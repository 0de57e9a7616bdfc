package wal

import (
	"encoding/binary"
	"fmt"

	"twodprof/internal/trace"
)

// The event-record decoders of older daemons. A current daemon logs
// the bytes its ingest front received (DESIGN.md §3f) and writes no
// event records of this codec; these decoders remain so that the live
// logs older daemons left still recover. The layout is
//
//	uvarint(count) takenBitmap[ceil(count/8)] uvarint(pc)*count
//
// — the taken bits packed up front so the PC varints stay
// byte-aligned, and every PC a full absolute uvarint, so 64-bit PCs
// round-trip losslessly.
//
// The context-carrying variant (DecodeEventsCtx) follows the PCs with
// a run-length context table:
//
//	uvarint(nRuns) nRuns × (uvarint(ctx) uvarint(runLen))
//
// with the run lengths summing to count. The record type, not a sniff,
// says which variant a payload is.

// maxEventsPerRecord bounds the event count of one payload, so a
// corrupt count varint cannot demand an absurd allocation; the older
// daemons split larger batches across several records.
const maxEventsPerRecord = 1 << 20

// decodeEvents parses the plain event layout into b, returning the
// unparsed tail for the context-table variant to continue from.
func decodeEvents(b *trace.SoABatch, payload []byte) ([]byte, error) {
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return nil, fmt.Errorf("wal: event record: bad count varint")
	}
	if count > maxEventsPerRecord {
		return nil, fmt.Errorf("wal: event record claims %d events (max %d)", count, maxEventsPerRecord)
	}
	payload = payload[n:]
	// Every event costs at least one PC byte on top of its bitmap bit,
	// so a count the payload cannot hold is refused before Grow
	// commits memory to it.
	nbitmap := (int(count) + 7) / 8
	if uint64(len(payload)) < count+uint64(nbitmap) {
		return nil, fmt.Errorf("wal: event record: %d events do not fit %d payload bytes", count, len(payload))
	}
	b.Grow(int(count))
	for i, x := range payload[:nbitmap] {
		b.Taken[i/8] |= uint64(x) << (8 * (i % 8))
	}
	if r := count % 64; r != 0 {
		b.Taken[len(b.Taken)-1] &= 1<<r - 1
	}
	payload = payload[nbitmap:]
	for i := range b.PCs {
		pc, n := binary.Uvarint(payload)
		if n <= 0 {
			return nil, fmt.Errorf("wal: event record: bad pc varint at event %d", i)
		}
		payload = payload[n:]
		b.PCs[i] = trace.PC(pc)
	}
	return payload, nil
}

// DecodeEvents parses one plain event payload into b, replacing its
// contents. Every byte of the payload must be consumed — trailing
// garbage means the record is not an event record of this version.
func DecodeEvents(b *trace.SoABatch, payload []byte) error {
	rest, err := decodeEvents(b, payload)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("wal: event record: %d trailing bytes", len(rest))
	}
	return nil
}

// DecodeEventsCtx parses one context-carrying event payload into b,
// replacing its contents, with the context lane filled from the run
// table.
func DecodeEventsCtx(b *trace.SoABatch, payload []byte) error {
	rest, err := decodeEvents(b, payload)
	if err != nil {
		return err
	}
	count := b.Len()
	nRuns, n := binary.Uvarint(rest)
	if n <= 0 {
		return fmt.Errorf("wal: event record: bad context run count")
	}
	rest = rest[n:]
	if nRuns == 0 || nRuns > uint64(count) {
		return fmt.Errorf("wal: event record: %d context runs for %d events", nRuns, count)
	}
	b.GrowCtxs()
	covered := 0
	for r := uint64(0); r < nRuns; r++ {
		ctx, n := binary.Uvarint(rest)
		if n <= 0 || ctx > 1<<32-1 {
			return fmt.Errorf("wal: event record: bad context in run %d", r)
		}
		rest = rest[n:]
		runLen, m := binary.Uvarint(rest)
		if m <= 0 || runLen == 0 || runLen > uint64(count-covered) {
			return fmt.Errorf("wal: event record: bad run length in run %d", r)
		}
		rest = rest[m:]
		for i := covered; i < covered+int(runLen); i++ {
			b.Ctxs[i] = trace.Context(ctx)
		}
		covered += int(runLen)
	}
	if covered != count {
		return fmt.Errorf("wal: event record: context runs cover %d of %d events", covered, count)
	}
	if len(rest) != 0 {
		return fmt.Errorf("wal: event record: %d trailing bytes", len(rest))
	}
	return nil
}
