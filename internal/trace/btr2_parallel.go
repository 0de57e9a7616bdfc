package trace

import (
	"io"
	"sync"
)

// Parallel replay of a BTR2 stream.
//
// BTR2 chunks are self-contained (absolute base PC, own event count and
// starting global index), so the expensive work — varint decode and
// per-chunk inflation — parallelises perfectly. Program order still
// matters to consumers (predictor state, slice clocks), so decoded
// chunks pass through a reorder stage that releases them to the sink in
// StartIndex order: the pipeline is
//
//	frame reader ─→ bounded worker pool (decode) ─→ reorder ─→ sink
//
// The sink sees exactly the sequential event stream; only the decode
// runs concurrently.
//
// Chunk frames (payload backing arrays included) and decode buffers are
// recycled through sync.Pools, so the steady state allocates nothing
// per chunk: the pools warm up over the first few chunks and the rest
// of the stream runs on reused memory.

// decodeJob is one chunk frame awaiting decode, tagged with its arrival
// sequence number.
type decodeJob struct {
	seq   int64
	chunk *Chunk
}

// decodeResult is one decoded chunk (or the error that killed it).
type decodeResult struct {
	seq   int64
	chunk *Chunk // returned to the frame pool after delivery
	soa   *SoABatch
	err   error
}

// ParallelReplay decodes the remaining chunks across a bounded pool of
// workers and feeds the events to sink in program order. It is
// equivalent to Replay — same events, same order, same count, each
// chunk an SoA batch decoded through the 8-wide kernel — and falls
// back to it when workers <= 1.
func (r *BTR2Reader) ParallelReplay(workers int, sink Sink) (int64, error) {
	if workers <= 1 {
		return r.Replay(sink)
	}

	var n int64

	var (
		jobs      = make(chan decodeJob, workers)
		results   = make(chan decodeResult, workers)
		abort     = make(chan struct{})
		readErr   = make(chan error, 1)
		wg        sync.WaitGroup
		soaPool   sync.Pool // recycles *SoABatch decode buffers
		framePool sync.Pool // recycles *Chunk frames (payload arrays)
	)

	// Decode workers: pull frames, decode into pooled buffers, push
	// results. abort unblocks a worker stuck on a full results channel
	// after the collector has stopped consuming.
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				b, _ := soaPool.Get().(*SoABatch)
				if b == nil {
					b = new(SoABatch)
				}
				res := decodeResult{seq: j.seq, chunk: j.chunk, soa: b, err: j.chunk.DecodeSoA(b)}
				select {
				case results <- res:
				case <-abort:
					return
				}
			}
		}()
	}

	// Frame reader: sequentially slices the stream into chunk frames —
	// cheap (no varint decode) — and dispatches them.
	go func() {
		defer close(jobs)
		var seq int64
		for {
			c, _ := framePool.Get().(*Chunk)
			if c == nil {
				c = new(Chunk)
			}
			if err := r.ReadChunkInto(c); err != nil {
				if err == io.EOF {
					err = nil
				}
				readErr <- err
				return
			}
			select {
			case jobs <- decodeJob{seq: seq, chunk: c}:
			case <-abort:
				readErr <- nil
				return
			}
			seq++
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	// Collector (this goroutine): reorder decoded chunks by sequence
	// number and deliver them in order. Stream continuity (each chunk's
	// StartIndex matching the running event count) was already enforced
	// by ReadChunkInto on the frame reader, and decode enforces each
	// chunk's own event count; delivering in dispatch order preserves
	// both.
	var (
		next     int64
		pending  = make(map[int64]decodeResult)
		firstErr error
	)
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
			close(abort)
		}
	}
	for res := range results {
		if res.err != nil {
			fail(res.err)
		}
		if firstErr != nil {
			continue // drain until the workers exit
		}
		pending[res.seq] = res
		for {
			cur, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			deliverSoA(sink, cur.soa)
			n += int64(cur.soa.Len())
			soaPool.Put(cur.soa)
			framePool.Put(cur.chunk)
			next++
		}
	}
	if err := <-readErr; err != nil && firstErr == nil {
		firstErr = err
	}
	return n, firstErr
}
