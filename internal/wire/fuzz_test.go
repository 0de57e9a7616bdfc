package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"twodprof/internal/trace"
)

// FuzzWireFrame drives the frame decoder with arbitrary bytes. The
// contract under fuzz mirrors wal's torn-tail rules: a frame decodes
// if and only if it is fully present, plausibly sized and
// checksum-valid; everything else is a typed error (short / oversized /
// checksum / malformed), never a panic, and a decoded frame re-encodes
// to the exact input bytes.
func FuzzWireFrame(f *testing.F) {
	f.Add(appendFrame(nil, msgHello, 0, appendHello(nil)))
	f.Add(appendFrame(nil, msgHelloAck, 0, appendHelloAck(nil, DefaultWindow)))
	f.Add(appendFrame(nil, msgBegin, 1, marshalJSON(BeginParams{ID: "s", Metric: "bias"})))
	f.Add(appendFrame(nil, msgChunk, 1, chunkBody(0, []trace.Event{
		{PC: 4, Taken: true}, {PC: 100}, {PC: 3, Taken: true},
	})))
	f.Add(appendFrame(nil, msgChunk, 1, chunkBody(5, []trace.Event{
		{PC: 4, Ctx: 5, Taken: true}, {PC: 100, Ctx: 5},
	})))
	f.Add(appendFrame(nil, msgAck, 1, appendAck(nil, 1)))
	f.Add(appendFrame(nil, msgError, 1, appendError(nil, &Error{
		Code: CodeUnavailable, RetryAfter: time.Second, Msg: "at capacity",
	})))
	f.Add(appendFrame(nil, msgDone, 9, marshalJSON(Summary{Session: "s", State: "done"})))
	// Corrupt variants: flipped checksum byte, truncated tail, oversized
	// length field.
	torn := appendFrame(nil, msgChunk, 2, bytes.Repeat([]byte{0x55}, 100))
	f.Add(torn[:len(torn)-3])
	flip := append([]byte(nil), torn...)
	flip[5] ^= 0xff
	f.Add(flip)
	f.Add(binary.LittleEndian.AppendUint32(nil, MaxFrame+1))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Walk the buffer like the connection reader would: decode
		// frames until the first error poisons the rest.
		rest := data
		for {
			fr, n, err := DecodeFrame(rest)
			if err != nil {
				switch {
				case errors.Is(err, ErrShortFrame),
					errors.Is(err, ErrFrameSize),
					errors.Is(err, ErrChecksum),
					errors.Is(err, ErrBadFrame):
				default:
					t.Fatalf("unexpected error class: %v", err)
				}
				break
			}
			if n <= 0 || n > len(rest) {
				t.Fatalf("decode consumed %d of %d bytes", n, len(rest))
			}
			// A valid frame must re-encode to the exact bytes it came
			// from — framing is bijective.
			re := appendFrame(nil, fr.Type, fr.Stream, fr.Body)
			if !bytes.Equal(re, rest[:n]) {
				t.Fatalf("re-encode mismatch: %x vs %x", re, rest[:n])
			}
			// The typed message bodies must also never panic, whatever
			// the frame claims to be.
			switch fr.Type {
			case msgHello:
				_ = parseHello(fr.Body)
			case msgHelloAck:
				_, _ = parseHelloAck(fr.Body)
			case msgChunk:
				if events, err := decodeChunkEvents(fr.Body); err == nil {
					// A chunk that decodes must round-trip through the
					// encoder losslessly (the base PC may re-anchor, so
					// compare events, not bytes). Every event of a chunk
					// shares the frame's context.
					body, err := appendChunk(nil, events[0].Ctx, events)
					if err != nil {
						t.Fatalf("re-encoding a decoded chunk: %v", err)
					}
					again, err := decodeChunkEvents(body)
					if err != nil {
						t.Fatalf("re-encoded chunk failed to decode: %v", err)
					}
					if len(again) != len(events) {
						t.Fatalf("round trip %d events, want %d", len(again), len(events))
					}
					for i := range events {
						if again[i] != events[i] {
							t.Fatalf("round trip event %d: %+v vs %+v", i, again[i], events[i])
						}
					}
				}
			case msgAck:
				_, _ = parseAck(fr.Body)
			case msgError:
				_, _ = parseError(fr.Body)
			}
			rest = rest[n:]
			if len(rest) == 0 {
				break
			}
		}
	})
}
