package trace

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// Regression tests for degenerate inputs: OpenReader and NewReader must
// return a clear, typed error — never a gzip panic or a bare EOF — on
// empty or truncated streams.

func TestOpenReaderDegenerateInputs(t *testing.T) {
	cases := []struct {
		name  string
		input []byte
		want  error
	}{
		{"empty", nil, ErrEmpty},
		{"one byte", []byte{'B'}, ErrTruncated},
		{"one gzip byte", []byte{0x1f}, ErrTruncated},
		{"two bytes", []byte("BT"), ErrTruncated},
		{"magic only", []byte("BTR1"), ErrTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := OpenReader(bytes.NewReader(tc.input))
			if !errors.Is(err, tc.want) {
				t.Errorf("OpenReader(%q) error = %v, want %v", tc.input, err, tc.want)
			}
		})
	}
}

func TestOpenReaderTruncatedGzip(t *testing.T) {
	// A bare gzip magic number: sniffed as gzip, then the gzip header
	// turns out incomplete. Must be a descriptive error, not a panic.
	_, err := OpenReader(bytes.NewReader([]byte{0x1f, 0x8b}))
	if err == nil {
		t.Fatal("OpenReader on a bare gzip magic succeeded")
	}
	if !strings.Contains(err.Error(), "gzip") {
		t.Errorf("error %q does not mention gzip", err)
	}
}

// TestReadBatchMidVarintTruncation cuts a BTR1 stream inside a
// multi-byte event varint and checks the error both matches
// ErrTruncated and pinpoints the cut: event index and byte offset past
// the header, with Chunk == -1 marking the unchunked format.
func TestReadBatchMidVarintTruncation(t *testing.T) {
	// Header (magic + zero count), two single-byte events, then the
	// first byte of a multi-byte varint with its continuation bit set
	// and nothing after it.
	data := append([]byte("BTR1\x00"), 0x04, 0x04, 0x80)
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var b SoABatch
	err = r.ReadBatch(&b)
	if n := b.Len(); n != 2 {
		t.Fatalf("ReadBatch decoded %d events before the cut, want 2", n)
	}
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("ReadBatch error = %v, want ErrTruncated", err)
	}
	var te *TruncatedError
	if !errors.As(err, &te) {
		t.Fatalf("ReadBatch error %v is not a *TruncatedError", err)
	}
	if te.Chunk != -1 || te.Event != 2 || te.Offset != 2 {
		t.Errorf("TruncatedError = {Chunk:%d Event:%d Offset:%d}, want {Chunk:-1 Event:2 Offset:2}", te.Chunk, te.Event, te.Offset)
	}
}

// TestBTR2ChunkMidVarintTruncation checks that a chunk whose payload is
// cut inside an event varint reports the chunk ordinal, global event
// index and payload byte offset — through the scalar decoder, the
// 8-wide SoA decoder, and a full reader replay.
func TestBTR2ChunkMidVarintTruncation(t *testing.T) {
	// Payload: two single-byte events, then a dangling continuation
	// byte. The frame claims 3 events.
	c := &Chunk{Index: 4, StartIndex: 100, Count: 3, BasePC: 0x400000, Codec: CodecRaw,
		Payload: []byte{0x04, 0x04, 0x80}}
	check := func(t *testing.T, err error) {
		t.Helper()
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("error = %v, want ErrTruncated", err)
		}
		var te *TruncatedError
		if !errors.As(err, &te) {
			t.Fatalf("error %v is not a *TruncatedError", err)
		}
		if te.Chunk != 4 || te.Event != 102 || te.Offset != 2 {
			t.Errorf("TruncatedError = {Chunk:%d Event:%d Offset:%d}, want {Chunk:4 Event:102 Offset:2}", te.Chunk, te.Event, te.Offset)
		}
	}
	t.Run("Decode", func(t *testing.T) {
		_, err := c.Decode(nil)
		check(t, err)
	})
	t.Run("DecodeSoA", func(t *testing.T) {
		var b SoABatch
		check(t, c.DecodeSoA(&b))
	})
	t.Run("Replay", func(t *testing.T) {
		// The same cut payload framed as chunk 0 of a hand-built stream.
		var data []byte
		data = append(data, "BTR2\x00"...)
		data = append(data, 3)        // count
		data = append(data, 0)        // start index
		data = append(data, 0x80, 1)  // basePC 128
		data = append(data, CodecRaw) // codec
		data = append(data, 3)        // payload length
		data = append(data, 0x04, 0x04, 0x80)
		r, err := NewBTR2Reader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		_, err = r.Replay(NewRecorder(0))
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("Replay error = %v, want ErrTruncated", err)
		}
		var te *TruncatedError
		if !errors.As(err, &te) {
			t.Fatalf("Replay error %v is not a *TruncatedError", err)
		}
		if te.Chunk != 0 || te.Event != 2 || te.Offset != 2 {
			t.Errorf("TruncatedError = {Chunk:%d Event:%d Offset:%d}, want {Chunk:0 Event:2 Offset:2}", te.Chunk, te.Event, te.Offset)
		}
	})
}

func TestNewReaderDegenerateInputs(t *testing.T) {
	if _, err := NewReader(bytes.NewReader(nil)); !errors.Is(err, ErrEmpty) {
		t.Errorf("NewReader(empty) error = %v, want ErrEmpty", err)
	}
	if _, err := NewReader(strings.NewReader("BTR")); !errors.Is(err, ErrTruncated) {
		t.Errorf("NewReader(short magic) error = %v, want ErrTruncated", err)
	}
	if _, err := NewReader(strings.NewReader("BTR1")); !errors.Is(err, ErrTruncated) {
		t.Errorf("NewReader(missing count) error = %v, want ErrTruncated", err)
	}
	if _, err := NewReader(strings.NewReader("NOPE....")); !errors.Is(err, ErrBadMagic) {
		t.Errorf("NewReader(bad magic) error = %v, want ErrBadMagic", err)
	}
}
