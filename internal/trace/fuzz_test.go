package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// FuzzReader checks the trace reader never panics on arbitrary bytes:
// anything malformed must surface as an error or clean EOF. Plain BTR1
// inputs additionally go through ReadBatch and are pinned, event by
// event and down to the TruncatedError position, to scalarBTR1.
func FuzzReader(f *testing.F) {
	// A valid small trace as one seed.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Branch(0x400000, true)
	w.Branch(0x400004, false)
	w.Close()
	f.Add(buf.Bytes())
	// A longer BTR1 trace — runs of single-byte varints for the 8-wide
	// kernel, broken by two-byte wrap-around deltas and far jumps so its
	// 8-event groups also straddle bitmap words — whole and cut
	// mid-varint.
	buf.Reset()
	w, _ = NewWriter(&buf)
	for i := 0; i < 300; i++ {
		pc := PC(0x400000 + 4*(i%61))
		if i%97 == 50 {
			pc += 1 << 30
		}
		w.Branch(pc, i%3 == 0)
	}
	w.Branch(1<<40, true) // a multi-byte varint for the cut to split
	w.Close()
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()-1])
	f.Add([]byte("BTR1"))
	f.Add([]byte("BTR1\x00"))
	f.Add([]byte("NOPE"))
	f.Add([]byte{})
	f.Add([]byte{0x1f, 0x8b})
	f.Add(append([]byte("BTR1\x00"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))
	// BTR2 seeds: OpenReader dispatches on the magic, so the chunked
	// decoder is in this fuzzer's reach too.
	var b2 bytes.Buffer
	bw, _ := NewBTR2Writer(&b2, BTR2Options{ChunkEvents: 2})
	bw.Branch(0x400000, true)
	bw.Branch(0x400004, false)
	bw.Branch(0x400000, true)
	bw.Close()
	f.Add(b2.Bytes())
	f.Add(b2.Bytes()[:len(b2.Bytes())/2])
	f.Add([]byte("BTR2"))
	f.Add([]byte("BTR2\x00"))
	f.Add([]byte("BTR2\x00\x05\x00\x00\x00\xff"))
	// BTR3 seeds: the context-run table adds a third varint region to
	// every chunk frame for the fuzzer to mangle.
	var b3 bytes.Buffer
	bw3, _ := NewBTR3Writer(&b3, BTR2Options{ChunkEvents: 2})
	bw3.BranchCtx(0, 0x400000, true)
	bw3.BranchCtx(2, 0x400004, false)
	bw3.BranchCtx(2, 0x400000, true)
	bw3.Close()
	f.Add(b3.Bytes())
	f.Add(b3.Bytes()[:len(b3.Bytes())/2])
	f.Add([]byte("BTR3"))
	f.Add([]byte("BTR3\x00"))
	f.Add([]byte("BTR3\x00\x02\x00\x80\x01\x01\x00\x02\x00\x02\x04\x04"))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := OpenReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		if br, ok := r.(*Reader); ok && bytes.HasPrefix(data, magic[:]) {
			checkBTR1(t, data, br)
			return
		}
		var b SoABatch
		for i := 0; i < 10000; i++ {
			if err := r.ReadBatch(&b); err != nil {
				if err != io.EOF && err.Error() == "" {
					t.Fatal("empty error message")
				}
				return
			}
		}
	})
}

// scalarBTR1 decodes a plain BTR1 stream one varint at a time — the
// independent reference for the reader's 8-wide ReadBatch kernel. It
// returns the events before the first bad varint plus how the stream
// ended: cleanly, cut mid-varint (trunc, positioned like the reader's
// TruncatedError), or on an over-long varint (corrupt).
func scalarBTR1(data []byte) (events []Event, trunc *TruncatedError, corrupt bool) {
	_, n := binary.Uvarint(data[len(magic):])
	body := data[len(magic)+n:]
	last := int64(0)
	for pos := 0; pos < len(body); {
		word, sz := binary.Uvarint(body[pos:])
		if sz == 0 {
			return events, &TruncatedError{Chunk: -1, Event: int64(len(events)), Offset: int64(pos)}, false
		}
		if sz < 0 {
			return events, nil, true
		}
		pos += sz
		delta := int64(word >> 2)
		if word&2 != 0 {
			delta = -delta
		}
		last += delta
		events = append(events, Event{PC: PC(last), Taken: word&1 != 0})
	}
	return events, nil, false
}

// checkBTR1 drains r through ReadBatch and compares every event and
// the terminating error against scalarBTR1.
func checkBTR1(t *testing.T, data []byte, r *Reader) {
	want, trunc, corrupt := scalarBTR1(data)
	var (
		got []Event
		b   SoABatch
		err error
	)
	for err == nil {
		err = r.ReadBatch(&b)
		got = b.AppendEvents(got)
	}
	if len(got) != len(want) {
		t.Fatalf("ReadBatch decoded %d events, scalar reference %d (err %v)", len(got), len(want), err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: ReadBatch %+v, scalar reference %+v", i, got[i], want[i])
		}
	}
	var te *TruncatedError
	switch {
	case trunc != nil:
		if !errors.As(err, &te) || *te != *trunc {
			t.Fatalf("ReadBatch error %v, want %v", err, trunc)
		}
	case corrupt:
		if !errors.Is(err, errCorruptEvent) {
			t.Fatalf("ReadBatch error %v, want an over-long varint", err)
		}
	case err != io.EOF:
		t.Fatalf("ReadBatch error %v, want io.EOF", err)
	}
}

// FuzzBTR2RoundTrip checks write→read symmetry: any event sequence,
// chunk size and compression choice must decode back to exactly the
// events written, via both the sequential reader and the footer index —
// or, when a PC delta inside a chunk is 2^62 or more, Close must fail
// with ErrPCDelta.
func FuzzBTR2RoundTrip(f *testing.F) {
	f.Add([]byte{}, uint16(0), false)
	f.Add([]byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08}, uint16(2), false)
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0x80, 0x7f}, uint16(1), true)
	f.Add([]byte("some branchy payload for the fuzzer to mutate"), uint16(3), true)
	// Full-range jumps: ±3·2^60 (encodable), then +2^62 and −2^62
	// inside a chunk (not), and the same +2^62 across a chunk boundary
	// (encodable: each chunk restarts at its base PC).
	f.Add([]byte{0x30, 0x80, 0xd0, 0x81, 0x01, 0x00}, uint16(0), true)
	f.Add([]byte{0x01, 0x00, 0x40, 0x80}, uint16(2), false)
	f.Add([]byte{0x01, 0x00, 0xc0, 0x81, 0x01, 0x00}, uint16(0), false)
	f.Add([]byte{0x01, 0x00, 0x40, 0x80}, uint16(1), false)

	f.Fuzz(func(t *testing.T, data []byte, chunk uint16, compress bool) {
		// Derive an event stream from the raw bytes: 2 bytes per event —
		// a PC delta around a walking base, and a flags byte whose bit 0
		// is the taken bit and whose bit 7 scales the delta by 2^56 so
		// PCs reach the whole 64-bit space.
		events := make([]Event, 0, len(data)/2)
		pc := int64(0x400000)
		for i := 0; i+1 < len(data); i += 2 {
			if data[i+1]&0x80 != 0 {
				pc += int64(int8(data[i])) << 56
			} else {
				pc += int64(int8(data[i])) * 4
			}
			events = append(events, Event{PC: PC(pc), Taken: data[i+1]&1 == 1})
		}
		var buf bytes.Buffer
		w, err := NewBTR2Writer(&buf, BTR2Options{ChunkEvents: int(chunk), Compress: compress})
		if err != nil {
			t.Fatal(err)
		}
		w.BranchBatch(events)
		runLen := int(chunk)
		if runLen == 0 {
			runLen = DefaultChunkEvents
		}
		if err := w.Close(); !deltasFit(events, runLen) {
			if !errors.Is(err, ErrPCDelta) {
				t.Fatalf("Close = %v over an unencodable delta, want ErrPCDelta", err)
			}
			return
		} else if err != nil {
			t.Fatal(err)
		}

		rd, err := OpenReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		rec := NewRecorder(len(events))
		n, err := rd.Replay(rec)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(len(events)) {
			t.Fatalf("replayed %d events, wrote %d", n, len(events))
		}
		for i, e := range events {
			if rec.Events[i] != e {
				t.Fatalf("event %d: got %+v want %+v", i, rec.Events[i], e)
			}
		}

		// The footer index must agree with the stream.
		ix, err := ReadBTR2Index(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatal(err)
		}
		if ix.Total != int64(len(events)) {
			t.Fatalf("index says %d events, wrote %d", ix.Total, len(events))
		}
		var got int64
		for i := range ix.Chunks {
			c, err := ix.ReadChunk(bytes.NewReader(buf.Bytes()), i)
			if err != nil {
				t.Fatal(err)
			}
			evs, err := c.Decode(nil)
			if err != nil {
				t.Fatal(err)
			}
			// The 8-wide SoA kernel must agree with the scalar decoder
			// event for event.
			var soa SoABatch
			if err := c.DecodeSoA(&soa); err != nil {
				t.Fatal(err)
			}
			if soa.Len() != len(evs) {
				t.Fatalf("chunk %d: DecodeSoA produced %d events, Decode %d", i, soa.Len(), len(evs))
			}
			for j, e := range evs {
				if soa.PCs[j] != e.PC || soa.TakenBit(j) != e.Taken {
					t.Fatalf("chunk %d event %d: SoA {%#x %v}, scalar {%#x %v}",
						i, j, soa.PCs[j], soa.TakenBit(j), e.PC, e.Taken)
				}
			}
			got += int64(len(evs))
		}
		if got != int64(len(events)) {
			t.Fatalf("index chunks decode to %d events, wrote %d", got, len(events))
		}
	})
}

// FuzzBTR3RoundTrip checks the context-tagged format's write→read
// symmetry: any event sequence — contexts included — plus any chunk
// size and compression choice must decode back to exactly the events
// written, sequentially and through the footer index.
func FuzzBTR3RoundTrip(f *testing.F) {
	f.Add([]byte{}, uint16(0), false)
	f.Add([]byte{0x01, 0x02, 0x00, 0x04, 0x05, 0x01, 0x07, 0x08, 0x02}, uint16(2), false)
	f.Add([]byte{0xff, 0x00, 0x03, 0xff, 0x00, 0x03, 0x80, 0x7f, 0x00}, uint16(1), true)
	f.Add([]byte("context-tagged branchy payload to mutate"), uint16(3), true)

	f.Fuzz(func(t *testing.T, data []byte, chunk uint16, compress bool) {
		// 3 bytes per event: PC delta, taken bit, context id. Small ids
		// dominate so runs form, but any byte is a valid context.
		events := make([]Event, 0, len(data)/3)
		pc := int64(0x400000)
		for i := 0; i+2 < len(data); i += 3 {
			pc += int64(int8(data[i])) * 4
			events = append(events, Event{
				PC:    PC(pc),
				Ctx:   Context(data[i+2] & 0x0f),
				Taken: data[i+1]&1 == 1,
			})
		}
		var buf bytes.Buffer
		w, err := NewBTR3Writer(&buf, BTR2Options{ChunkEvents: int(chunk), Compress: compress})
		if err != nil {
			t.Fatal(err)
		}
		w.BranchBatch(events)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		rd, err := OpenReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := rd.(*BTR3Reader); !ok {
			t.Fatalf("OpenReader returned %T, want *BTR3Reader", rd)
		}
		rec := NewRecorder(len(events))
		n, err := rd.Replay(rec)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(len(events)) {
			t.Fatalf("replayed %d events, wrote %d", n, len(events))
		}
		for i, e := range events {
			if rec.Events[i] != e {
				t.Fatalf("event %d: got %+v want %+v", i, rec.Events[i], e)
			}
		}

		// The footer index must agree with the stream, and each chunk's
		// SoA decode must match the scalar one — context lane included.
		ix, err := ReadBTR3Index(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatal(err)
		}
		if ix.Total != int64(len(events)) {
			t.Fatalf("index says %d events, wrote %d", ix.Total, len(events))
		}
		var got int64
		for i := range ix.Chunks {
			c, err := ix.ReadChunk(bytes.NewReader(buf.Bytes()), i)
			if err != nil {
				t.Fatal(err)
			}
			evs, err := c.Decode(nil)
			if err != nil {
				t.Fatal(err)
			}
			var soa SoABatch
			if err := c.DecodeSoA(&soa); err != nil {
				t.Fatal(err)
			}
			if soa.Len() != len(evs) {
				t.Fatalf("chunk %d: DecodeSoA produced %d events, Decode %d", i, soa.Len(), len(evs))
			}
			for j, e := range evs {
				if soa.PCs[j] != e.PC || soa.TakenBit(j) != e.Taken || soa.Ctx(j) != e.Ctx {
					t.Fatalf("chunk %d event %d: SoA {%#x %v ctx %d}, scalar {%#x %v ctx %d}",
						i, j, soa.PCs[j], soa.TakenBit(j), soa.Ctx(j), e.PC, e.Taken, e.Ctx)
				}
			}
			got += int64(len(evs))
		}
		if got != int64(len(events)) {
			t.Fatalf("index chunks decode to %d events, wrote %d", got, len(events))
		}
	})
}
