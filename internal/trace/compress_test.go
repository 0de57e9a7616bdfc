package trace

import (
	"bytes"
	"testing"
)

func TestCompressedRoundTrip(t *testing.T) {
	events := []Event{
		{PC: 0x400000, Taken: true}, {PC: 0x400004}, {PC: 0x400000, Taken: true}, {PC: 7},
	}
	var buf bytes.Buffer
	w, err := NewCompressedWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		w.Branch(e.PC, e.Taken)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var rec Recorder
	n, err := r.Replay(&rec)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(events)) {
		t.Fatalf("read %d events", n)
	}
	for i := range events {
		if rec.Events[i] != events[i] {
			t.Fatalf("event %d: %v != %v", i, rec.Events[i], events[i])
		}
	}
}

func TestOpenReaderPlain(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Branch(9, true)
	w.Close()
	r, err := OpenReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var b SoABatch
	if err := r.ReadBatch(&b); err != nil || b.Len() != 1 || b.PCs[0] != 9 || !b.TakenBit(0) {
		t.Fatalf("plain stream via OpenReader: %v %v", b.AppendEvents(nil), err)
	}
}

func TestOpenReaderErrors(t *testing.T) {
	if _, err := OpenReader(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
	// gzip magic but garbage body.
	if _, err := OpenReader(bytes.NewReader([]byte{0x1f, 0x8b, 0x00})); err == nil {
		t.Fatal("corrupt gzip accepted")
	}
	if _, err := OpenReader(bytes.NewReader([]byte("XX"))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestCompressionShrinksRepetitiveTrace(t *testing.T) {
	var plain, comp bytes.Buffer
	pw, _ := NewWriter(&plain)
	cw, _ := NewCompressedWriter(&comp)
	for i := 0; i < 50000; i++ {
		pc := PC(0x400000 + uint64(i%7)*4)
		taken := i%3 != 0
		pw.Branch(pc, taken)
		cw.Branch(pc, taken)
	}
	pw.Close()
	cw.Close()
	if comp.Len() >= plain.Len() {
		t.Fatalf("gzip did not shrink: %d vs %d", comp.Len(), plain.Len())
	}
}
