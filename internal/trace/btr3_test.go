package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// genCtxEvents tags a genEvents stream with nctx execution contexts in
// bursts, so chunks carry multi-run context tables with runs that start
// and end away from chunk boundaries.
func genCtxEvents(n, nctx int, seed int64) []Event {
	events := genEvents(n, seed)
	ctx, left := Context(0), 11
	for i := range events {
		if left == 0 {
			ctx = (ctx + 1) % Context(nctx)
			left = 7 + (i*13)%29
		}
		events[i].Ctx = ctx
		left--
	}
	return events
}

// encodeBTR3 writes events (contexts included) as a BTR3 stream.
func encodeBTR3(t testing.TB, events []Event, opts BTR2Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewBTR3Writer(&buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	w.BranchBatch(events)
	if w.Count() != int64(len(events)) {
		t.Fatalf("writer Count = %d, want %d", w.Count(), len(events))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestBTR3RoundTrip(t *testing.T) {
	events := genCtxEvents(10000, 3, 21)
	for _, tc := range []struct {
		name string
		opts BTR2Options
	}{
		{"default", BTR2Options{}},
		{"tiny-chunks", BTR2Options{ChunkEvents: 7}},
		{"aligned-chunks", BTR2Options{ChunkEvents: 1000}},
		{"compressed", BTR2Options{ChunkEvents: 512, Compress: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw := encodeBTR3(t, events, tc.opts)
			r, err := OpenReader(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := r.(*BTR3Reader); !ok {
				t.Fatalf("OpenReader returned %T, want *BTR3Reader", r)
			}
			var rec Recorder
			n, err := r.Replay(&rec)
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(len(events)) {
				t.Fatalf("replayed %d events, want %d", n, len(events))
			}
			for i := range events {
				if rec.Events[i] != events[i] {
					t.Fatalf("event %d: got %v want %v", i, rec.Events[i], events[i])
				}
			}
		})
	}
}

// TestBTR3SingleContextRoundTrip pins that an all-context-0 stream is
// valid BTR3 and decodes without materialising a context lane.
func TestBTR3SingleContextRoundTrip(t *testing.T) {
	events := genEvents(3000, 22)
	raw := encodeBTR3(t, events, BTR2Options{ChunkEvents: 700})
	r, err := NewBTR3Reader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	c := new(Chunk)
	if err := r.ReadChunkInto(c); err != nil {
		t.Fatal(err)
	}
	if len(c.CtxRuns) != 1 || c.CtxRuns[0] != (CtxRun{Ctx: 0, N: 700}) {
		t.Fatalf("single-context chunk runs = %v, want one 700-event context-0 run", c.CtxRuns)
	}
	var soa SoABatch
	if err := c.DecodeSoA(&soa); err != nil {
		t.Fatal(err)
	}
	if len(soa.Ctxs) != 0 {
		t.Fatal("context-0 chunk materialised a context lane")
	}
}

func TestBTR3NextAndReadBatch(t *testing.T) {
	events := genCtxEvents(2500, 4, 23)
	raw := encodeBTR3(t, events, BTR2Options{ChunkEvents: 600})
	r, err := NewBTR3Reader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var got []Event
	for i := 0; i < 7; i++ {
		e, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, e)
	}
	var b SoABatch
	for {
		err := r.ReadBatch(&b)
		got = b.AppendEvents(got)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != len(events) {
		t.Fatalf("read %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d: got %v want %v", i, got[i], events[i])
		}
	}
}

func TestBTR3ParallelReplayMatchesSequential(t *testing.T) {
	events := genCtxEvents(50000, 3, 24)
	for _, chunk := range []int{512, 1013} {
		for _, compress := range []bool{false, true} {
			raw := encodeBTR3(t, events, BTR2Options{ChunkEvents: chunk, Compress: compress})
			for _, workers := range []int{1, 4, 8} {
				r, err := NewBTR3Reader(bytes.NewReader(raw))
				if err != nil {
					t.Fatal(err)
				}
				rec := NewRecorder(len(events))
				n, err := r.ParallelReplay(workers, rec)
				if err != nil {
					t.Fatalf("chunk=%d z=%v workers=%d: %v", chunk, compress, workers, err)
				}
				if n != int64(len(events)) {
					t.Fatalf("chunk=%d z=%v workers=%d: replayed %d, want %d",
						chunk, compress, workers, n, len(events))
				}
				for i := range events {
					if rec.Events[i] != events[i] {
						t.Fatalf("chunk=%d z=%v workers=%d: event %d out of order: got %v want %v",
							chunk, compress, workers, i, rec.Events[i], events[i])
					}
				}
			}
		}
	}
}

func TestBTR3Index(t *testing.T) {
	events := genCtxEvents(5000, 3, 25)
	raw := encodeBTR3(t, events, BTR2Options{ChunkEvents: 777})
	ix, err := ReadBTR3Index(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	wantChunks := (len(events) + 776) / 777
	if len(ix.Chunks) != wantChunks || ix.Total != int64(len(events)) {
		t.Fatalf("index: %d chunks total %d, want %d chunks total %d",
			len(ix.Chunks), ix.Total, wantChunks, len(events))
	}
	// Random access must reproduce the sequential view, contexts
	// included — the run table rides the chunk frame, not the stream.
	c, err := ix.ReadChunk(bytes.NewReader(raw), 3)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := c.Decode(nil)
	if err != nil {
		t.Fatal(err)
	}
	start := 3 * 777
	if c.StartIndex != int64(start) || len(evs) != 777 {
		t.Fatalf("chunk 3: start %d count %d", c.StartIndex, len(evs))
	}
	for i, e := range evs {
		if e != events[start+i] {
			t.Fatalf("chunk 3 event %d: got %v want %v", i, e, events[start+i])
		}
	}
	// A BTR2 index read of the same bytes must refuse the magic.
	if _, err := ReadBTR2Index(bytes.NewReader(raw), int64(len(raw))); err == nil {
		t.Fatal("BTR2 index read of a BTR3 stream succeeded")
	}
}

// TestBTR2WriterRejectsContexts pins the format boundary: a non-zero
// context reaching a BTR2 writer is an error, not a silent drop.
func TestBTR2WriterRejectsContexts(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewBTR2Writer(&buf, BTR2Options{ChunkEvents: 4})
	if err != nil {
		t.Fatal(err)
	}
	w.BranchCtx(1, 0x400000, true)
	if err := w.Close(); !errors.Is(err, errCtxUnsupported) {
		t.Fatalf("BTR2 Close after a context-tagged event = %v, want errCtxUnsupported", err)
	}
	// The batch path must refuse too.
	buf.Reset()
	w, err = NewBTR2Writer(&buf, BTR2Options{ChunkEvents: 4})
	if err != nil {
		t.Fatal(err)
	}
	w.BranchBatch([]Event{{PC: 4, Ctx: 2, Taken: true}})
	if err := w.Close(); !errors.Is(err, errCtxUnsupported) {
		t.Fatalf("BTR2 batch Close = %v, want errCtxUnsupported", err)
	}
}

// TestBTR3Truncation mirrors the BTR2 truncation tests at version 3:
// cuts inside the context-run table and the payload must surface as
// clean errors, and a stream cut at a chunk boundary replays its
// complete prefix.
func TestBTR3Truncation(t *testing.T) {
	events := genCtxEvents(2000, 3, 26)
	raw := encodeBTR3(t, events, BTR2Options{ChunkEvents: 500})

	t.Run("footer-cut", func(t *testing.T) {
		trunc := raw[:len(raw)-20]
		if _, err := ReadBTR3Index(bytes.NewReader(trunc), int64(len(trunc))); err == nil {
			t.Fatal("index read of a footer-less stream succeeded")
		}
		r, err := NewBTR3Reader(bytes.NewReader(trunc))
		if err != nil {
			t.Fatal(err)
		}
		var rec Recorder
		n, err := r.Replay(&rec)
		if err != nil {
			t.Fatalf("replay of a footer-cut stream: %v", err)
		}
		if n != int64(len(events)) {
			t.Fatalf("footer-cut replay got %d events, want %d", n, len(events))
		}
	})

	t.Run("run-table-cut", func(t *testing.T) {
		// Header is magic + one flags byte; the first chunk's run table
		// starts after count, startIndex and basePC. Cutting a few bytes
		// into the frame lands inside the varint soup before any payload.
		r, err := NewBTR3Reader(bytes.NewReader(raw[:len(magic3)+1+4]))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Replay(NewRecorder(0)); err == nil {
			t.Fatal("replay of a mid-frame cut succeeded")
		}
	})

	t.Run("bad-run-tables", func(t *testing.T) {
		frame := func(runs ...byte) []byte {
			var data []byte
			data = append(data, "BTR3\x00"...)
			data = append(data, 2)       // count
			data = append(data, 0)       // start index
			data = append(data, 0x80, 1) // basePC 128
			data = append(data, runs...)
			data = append(data, CodecRaw)
			data = append(data, 2)          // payload length
			data = append(data, 0x04, 0x04) // two events
			return data
		}
		for name, runs := range map[string][]byte{
			"zero-runs":      {0},
			"over-count":     {3, 0, 1, 0, 1, 0, 1},
			"under-covering": {1, 0, 1},
			"zero-length":    {1, 0, 0},
			"overflow-run":   {1, 0, 3},
		} {
			r, err := NewBTR3Reader(bytes.NewReader(frame(runs...)))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if _, err := r.Replay(NewRecorder(0)); err == nil {
				t.Fatalf("%s: corrupt run table replayed cleanly", name)
			}
		}
		// The same framing with a valid table decodes.
		r, err := NewBTR3Reader(bytes.NewReader(frame(2, 0, 1, 5, 1)))
		if err != nil {
			t.Fatal(err)
		}
		var rec Recorder
		if n, err := r.Replay(&rec); err != nil || n != 2 {
			t.Fatalf("valid frame: n=%d err=%v", n, err)
		}
		if rec.Events[0].Ctx != 0 || rec.Events[1].Ctx != 5 {
			t.Fatalf("contexts = %d,%d, want 0,5", rec.Events[0].Ctx, rec.Events[1].Ctx)
		}
	})

	t.Run("payload-cut", func(t *testing.T) {
		var data []byte
		data = append(data, "BTR3\x00"...)
		data = append(data, 3)        // count
		data = append(data, 0)        // start index
		data = append(data, 0x80, 1)  // basePC 128
		data = append(data, 1, 0, 3)  // one context-0 run of 3
		data = append(data, CodecRaw) // codec
		data = append(data, 3)        // payload length
		data = append(data, 0x04, 0x04, 0x80)
		r, err := NewBTR3Reader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		_, err = r.Replay(NewRecorder(0))
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("Replay error = %v, want ErrTruncated", err)
		}
	})
}
