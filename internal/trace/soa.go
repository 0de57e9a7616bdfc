package trace

import "fmt"

// Struct-of-arrays event batches.
//
// The AoS Event slice costs 16 bytes per event (8-byte PC, 1-byte bool,
// 7 bytes padding) and forces every consumer to re-split the fields it
// actually wants. The hot decode→predict→profile pipeline instead moves
// events as one flat PC array plus a packed outcome bitmap: half the
// memory traffic, and the predictor/profiler inner loops index the two
// arrays directly with no per-event struct assembly. SoABatch is that
// shape, and the only one a batch of events has once it leaves its
// producer: every reader's ReadBatch and Replay decode straight into
// it (BTR2/BTR3 chunks eight events per iteration through
// Chunk.DecodeSoA), and internal/engine, the daemon's WAL and its
// ingest fronts consume it without ever materialising []Event.

// SoABatch is a run of branch events in struct-of-arrays layout: PCs[i]
// is event i's branch site and bit i (bit i%64 of word i/64) of Taken
// is its direction. Taken always holds exactly (len(PCs)+63)/64 words
// when the batch is built through Append/Grow.
//
// Ctxs is the optional execution-context lane: empty means every event
// belongs to context 0 (the overwhelmingly common single-stream case
// pays nothing for the field); otherwise it holds exactly len(PCs)
// entries, Ctxs[i] tagging event i. Only context-tagged producers
// (BTR3 decode, context-carrying wire chunks and WAL records)
// populate it.
type SoABatch struct {
	PCs   []PC
	Taken []uint64
	Ctxs  []Context
}

// Len returns the number of events in the batch.
func (b *SoABatch) Len() int { return len(b.PCs) }

// Ctx reports event i's execution context (0 when the batch carries no
// context lane).
func (b *SoABatch) Ctx(i int) Context {
	if len(b.Ctxs) == 0 {
		return 0
	}
	return b.Ctxs[i]
}

// Reset empties the batch, keeping the backing arrays.
func (b *SoABatch) Reset() {
	b.PCs = b.PCs[:0]
	b.Taken = b.Taken[:0]
	b.Ctxs = b.Ctxs[:0]
}

// Grow resizes the batch to exactly n events with a zeroed outcome
// bitmap and no context lane (all events context 0), reusing the
// backing arrays when they are large enough. The caller then fills PCs
// by index and ORs bits into Taken; GrowCtxs materialises the context
// lane when the producer has per-event contexts to record.
func (b *SoABatch) Grow(n int) {
	if cap(b.PCs) < n {
		b.PCs = make([]PC, n)
	} else {
		b.PCs = b.PCs[:n]
	}
	words := (n + 63) / 64
	if cap(b.Taken) < words {
		b.Taken = make([]uint64, words)
	} else {
		b.Taken = b.Taken[:words]
		for i := range b.Taken {
			b.Taken[i] = 0
		}
	}
	b.Ctxs = b.Ctxs[:0]
}

// GrowCtxs materialises the context lane as len(PCs) zeroed entries
// (reusing the backing array) so the caller can tag events by index.
func (b *SoABatch) GrowCtxs() {
	n := len(b.PCs)
	if cap(b.Ctxs) < n {
		b.Ctxs = make([]Context, n)
		return
	}
	b.Ctxs = b.Ctxs[:n]
	for i := range b.Ctxs {
		b.Ctxs[i] = 0
	}
}

// Span extracts events [i, j) into dst as a word-aligned batch: PCs
// (and the context lane, when b has one) are copied and the outcome
// bits are repacked so dst's bit 0 is event i. This is what lets a
// consumer keep running packed-bitmap SoA kernels over sub-ranges that
// start mid-word.
func (b *SoABatch) Span(dst *SoABatch, i, j int) {
	n := j - i
	dst.Grow(n)
	copy(dst.PCs, b.PCs[i:j])
	if len(b.Ctxs) > 0 {
		dst.Ctxs = append(dst.Ctxs, b.Ctxs[i:j]...)
	}
	w, r := i>>6, uint(i&63)
	if r == 0 {
		copy(dst.Taken, b.Taken[w:w+len(dst.Taken)])
	} else {
		for k := range dst.Taken {
			v := b.Taken[w+k] >> r
			if w+k+1 < len(b.Taken) {
				v |= b.Taken[w+k+1] << (64 - r)
			}
			dst.Taken[k] = v
		}
	}
	// Mask stray bits above n in the last word so spans compare clean.
	if n&63 != 0 && len(dst.Taken) > 0 {
		dst.Taken[len(dst.Taken)-1] &= 1<<uint(n&63) - 1
	}
}

// Append adds one event to the batch.
func (b *SoABatch) Append(pc PC, taken bool) {
	i := len(b.PCs)
	b.PCs = append(b.PCs, pc)
	if i%64 == 0 {
		b.Taken = append(b.Taken, 0)
	}
	if taken {
		b.Taken[i>>6] |= 1 << uint(i&63)
	}
}

// TakenBit reports event i's direction.
func (b *SoABatch) TakenBit(i int) bool {
	return b.Taken[i>>6]>>uint(i&63)&1 != 0
}

// AppendEvents converts the batch back to AoS events, appending to
// dst: the bridge into producer-edge APIs that take []Event, such as
// the router relaying a decoded chunk through wire.Session.Send.
func (b *SoABatch) AppendEvents(dst []Event) []Event {
	for i, pc := range b.PCs {
		dst = append(dst, Event{PC: pc, Ctx: b.Ctx(i), Taken: b.TakenBit(i)})
	}
	return dst
}

// FromEvents rebuilds the batch from an AoS event slice (the bridge
// from recorded streams). The context lane is materialised only when
// some event carries a non-zero context.
func (b *SoABatch) FromEvents(events []Event) {
	b.Grow(len(events))
	for i, e := range events {
		b.PCs[i] = e.PC
		if e.Taken {
			b.Taken[i>>6] |= 1 << uint(i&63)
		}
		if e.Ctx != 0 {
			if len(b.Ctxs) == 0 {
				b.GrowCtxs()
			}
			b.Ctxs[i] = e.Ctx
		}
	}
}

// SoABatchSink is an optional struct-of-arrays bulk path for Sink
// implementations: one call delivers a whole decoded batch, equivalent
// to calling Branch(PCs[i], TakenBit(i)) (BranchCtx on Ctx(i)) for
// each i in order. Every reader's Replay prefers it, so events flow
// decode→predict→profile with no per-event interface call.
type SoABatchSink interface {
	Sink
	BranchBatchSoA(b *SoABatch)
}

// deliverSoA feeds one SoA batch into sink through the richest path it
// implements: the batch itself for SoA sinks, otherwise one call per
// event — BranchCtx when the sink keeps contexts, Branch when not.
func deliverSoA(sink Sink, b *SoABatch) {
	switch s := sink.(type) {
	case SoABatchSink:
		s.BranchBatchSoA(b)
	case CtxSink:
		for i, pc := range b.PCs {
			s.BranchCtx(b.Ctx(i), pc, b.TakenBit(i))
		}
	default:
		for i, pc := range b.PCs {
			sink.Branch(pc, b.TakenBit(i))
		}
	}
}

// TruncatedError reports a trace stream cut (or corrupted) inside an
// event varint, locating the cut for diagnostics: the chunk it fell in
// (-1 for unchunked BTR1 streams), the index of the event being decoded
// when the bytes ran out, and the byte offset of the cut — relative to
// the chunk payload for BTR2, relative to the end of the header for
// BTR1. It unwraps to ErrTruncated so callers can errors.Is-match
// without parsing the position out of the message.
type TruncatedError struct {
	Chunk  int64 // BTR2 chunk ordinal, or -1 for a BTR1 stream
	Event  int64 // index of the event the cut falls inside
	Offset int64 // byte offset of the cut (see above for the base)
}

// Error implements error.
func (e *TruncatedError) Error() string {
	if e.Chunk >= 0 {
		return fmt.Sprintf("trace: truncated event varint in chunk %d (event %d, payload byte %d)",
			e.Chunk, e.Event, e.Offset)
	}
	return fmt.Sprintf("trace: truncated event varint (event %d, stream byte %d past header)",
		e.Event, e.Offset)
}

// Unwrap makes errors.Is(err, ErrTruncated) hold.
func (e *TruncatedError) Unwrap() error { return ErrTruncated }
