package wal

import (
	"encoding/binary"
	"fmt"

	"twodprof/internal/trace"
)

// Branch-event payload codec for event records. The layout is
//
//	uvarint(count) takenBitmap[ceil(count/8)] uvarint(pc)*count
//
// — the taken bits are packed up front so the PC varints stay
// byte-aligned, and PCs are stored as full absolute uvarints so every
// 64-bit PC round-trips losslessly (no shift-packing of the taken bit,
// which would drop the top PC bit).
//
// The context-carrying variant (EncodeEventsCtx/DecodeEventsCtx)
// appends a run-length context table after the PCs:
//
//	uvarint(nRuns) nRuns × (uvarint(ctx) uvarint(runLen))
//
// with the run lengths summing to count. It is a distinct codec — the
// record type, not a sniff, says which one a payload is — so batches
// without contexts keep the exact historical bytes and old logs stay
// byte-identical.

// MaxEventsPerRecord bounds the event count of one payload, so a
// corrupt count varint cannot demand an absurd allocation. Writers
// split larger batches across several records.
const MaxEventsPerRecord = 1 << 20

// EncodeEvents appends the codec form of b's events to dst and returns
// the extended slice. The taken bitmap is b's little-endian outcome
// words cut to ceil(count/8) bytes — bit i of byte i/8 is bit i of the
// words — with the bits above count cleared. It allocates nothing
// beyond dst's growth.
func EncodeEvents(dst []byte, b *trace.SoABatch) []byte {
	n := b.Len()
	dst = binary.AppendUvarint(dst, uint64(n))
	for w := 0; w < n/64; w++ {
		dst = binary.LittleEndian.AppendUint64(dst, b.Taken[w])
	}
	if r := n % 64; r != 0 {
		last := b.Taken[n/64] & (1<<uint(r) - 1)
		for k := 0; k < (r+7)/8; k++ {
			dst = append(dst, byte(last>>(8*k)))
		}
	}
	for _, pc := range b.PCs {
		dst = binary.AppendUvarint(dst, uint64(pc))
	}
	return dst
}

// EncodeEventsCtx appends the context-carrying codec form of b's
// events to dst: the plain layout plus the run-length context table
// (a batch without a context lane is one context-0 run). Callers use
// it only when some event carries a non-zero context; an all-zero
// batch belongs in the plain codec.
func EncodeEventsCtx(dst []byte, b *trace.SoABatch) []byte {
	dst = EncodeEvents(dst, b)
	n := b.Len()
	var nRuns uint64
	for i := 0; i < n; i = runEnd(b, i) {
		nRuns++
	}
	dst = binary.AppendUvarint(dst, nRuns)
	for i := 0; i < n; {
		j := runEnd(b, i)
		dst = binary.AppendUvarint(dst, uint64(b.Ctx(i)))
		dst = binary.AppendUvarint(dst, uint64(j-i))
		i = j
	}
	return dst
}

// runEnd returns the end of the same-context run starting at event i.
func runEnd(b *trace.SoABatch, i int) int {
	j := i + 1
	for j < b.Len() && b.Ctx(j) == b.Ctx(i) {
		j++
	}
	return j
}

// decodeEvents parses the plain event layout into b, returning the
// unparsed tail for the context-table variant to continue from.
func decodeEvents(b *trace.SoABatch, payload []byte) ([]byte, error) {
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return nil, fmt.Errorf("wal: event record: bad count varint")
	}
	if count > MaxEventsPerRecord {
		return nil, fmt.Errorf("wal: event record claims %d events (max %d)", count, MaxEventsPerRecord)
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
