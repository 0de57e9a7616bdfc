package trace

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"
)

// genEvents builds a deterministic pseudo-random event stream with the
// locality real branch streams have (hot loops + occasional jumps).
func genEvents(n int, seed int64) []Event {
	rng := rand.New(rand.NewSource(seed))
	evs := make([]Event, 0, n)
	pc := PC(0x400000)
	for i := 0; i < n; i++ {
		switch rng.Intn(10) {
		case 0:
			pc = PC(rng.Uint64() >> 16) // far jump
		case 1, 2:
			pc += PC(rng.Intn(64) * 4) // nearby site
		default:
			// stay on a hot site
		}
		evs = append(evs, Event{PC: pc, Taken: rng.Intn(3) != 0})
	}
	return evs
}

// encodeBTR2 writes events as a BTR2 stream.
func encodeBTR2(t testing.TB, events []Event, opts BTR2Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewBTR2Writer(&buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		w.Branch(e.PC, e.Taken)
	}
	if w.Count() != int64(len(events)) {
		t.Fatalf("writer Count = %d, want %d", w.Count(), len(events))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestBTR2RoundTrip(t *testing.T) {
	events := genEvents(10000, 1)
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
			raw := encodeBTR2(t, events, tc.opts)
			r, err := OpenReader(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := r.(*BTR2Reader); !ok {
				t.Fatalf("OpenReader returned %T, want *BTR2Reader", r)
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

func TestBTR2Empty(t *testing.T) {
	raw := encodeBTR2(t, nil, BTR2Options{})
	r, err := NewBTR2Reader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("Next on empty trace = %v, want io.EOF", err)
	}
}

func TestBTR2NextAndReadBatch(t *testing.T) {
	events := genEvents(2500, 2)
	raw := encodeBTR2(t, events, BTR2Options{ChunkEvents: 600})
	r, err := NewBTR2Reader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	// Interleave Next and ReadBatch across chunk boundaries.
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

func TestBTR2GzipWrapped(t *testing.T) {
	events := genEvents(3000, 3)
	raw := encodeBTR2(t, events, BTR2Options{ChunkEvents: 700})
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	gz.Write(raw)
	gz.Close()
	r, err := OpenReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var rec Recorder
	n, err := r.Replay(&rec)
	if err != nil || n != int64(len(events)) {
		t.Fatalf("gzip-wrapped BTR2 replay: n=%d err=%v", n, err)
	}
}

func TestBTR2ParallelReplayMatchesSequential(t *testing.T) {
	events := genEvents(50000, 4)
	for _, chunk := range []int{512, 1013} {
		for _, compress := range []bool{false, true} {
			raw := encodeBTR2(t, events, BTR2Options{ChunkEvents: chunk, Compress: compress})
			for _, workers := range []int{1, 4, 8} {
				r, err := NewBTR2Reader(bytes.NewReader(raw))
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

// TestBTR2ParallelReplayAfterNext checks events already pulled through
// the sequential API are not replayed twice.
func TestBTR2ParallelReplayAfterNext(t *testing.T) {
	events := genEvents(5000, 5)
	raw := encodeBTR2(t, events, BTR2Options{ChunkEvents: 300})
	r, err := NewBTR2Reader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}
	var rec Recorder
	n, err := r.ParallelReplay(4, &rec)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(events)-10) {
		t.Fatalf("replayed %d events after 10 Next calls, want %d", n, len(events)-10)
	}
	if rec.Events[0] != events[10] {
		t.Fatalf("first replayed event %v, want %v", rec.Events[0], events[10])
	}
}

func TestBTR2Index(t *testing.T) {
	events := genEvents(5000, 6)
	raw := encodeBTR2(t, events, BTR2Options{ChunkEvents: 777})
	ix, err := ReadBTR2Index(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	wantChunks := (len(events) + 776) / 777
	if len(ix.Chunks) != wantChunks || ix.Total != int64(len(events)) {
		t.Fatalf("index: %d chunks total %d, want %d chunks total %d",
			len(ix.Chunks), ix.Total, wantChunks, len(events))
	}
	// Random access to a middle chunk must reproduce the sequential view.
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
	if _, err := ix.ReadChunk(bytes.NewReader(raw), len(ix.Chunks)); err == nil {
		t.Fatal("out-of-range chunk read succeeded")
	}
}

func TestBTR2IndexOnUnfinishedStream(t *testing.T) {
	events := genEvents(2000, 7)
	raw := encodeBTR2(t, events, BTR2Options{ChunkEvents: 500})
	trunc := raw[:len(raw)-20] // cut into the footer
	if _, err := ReadBTR2Index(bytes.NewReader(trunc), int64(len(trunc))); err == nil {
		t.Fatal("index read of a footer-less stream succeeded")
	}
	// The sequential reader still replays every complete chunk.
	r, err := NewBTR2Reader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	var rec Recorder
	n, err := r.Replay(&rec)
	if err != nil {
		t.Fatalf("sequential replay of unfinished stream: %v", err)
	}
	if n != int64(len(events)) {
		t.Fatalf("unfinished stream replayed %d events, want %d", n, len(events))
	}
}

func TestBTR2CorruptStreams(t *testing.T) {
	events := genEvents(1000, 8)
	raw := encodeBTR2(t, events, BTR2Options{ChunkEvents: 100})
	cases := map[string][]byte{
		"bad magic":    append([]byte("BTRX"), raw[4:]...),
		"flipped byte": append(append(append([]byte{}, raw[:40]...), raw[40]^0xff), raw[41:]...),
	}
	for name, data := range cases {
		r, err := OpenReader(bytes.NewReader(data))
		if err != nil {
			continue // rejected at open: fine
		}
		var rec Recorder
		if _, err := r.Replay(&rec); err == nil && len(rec.Events) == len(events) {
			// A flipped payload byte may decode to different events; it
			// must not silently reproduce the original stream.
			same := true
			for i := range events {
				if rec.Events[i] != events[i] {
					same = false
					break
				}
			}
			if same {
				t.Errorf("%s: corrupt stream replayed the original events with no error", name)
			}
		}
	}
}

func TestBTR2WriterFailingWriter(t *testing.T) {
	fw := &failingWriter{failAfter: 10}
	w, err := NewBTR2Writer(fw, BTR2Options{ChunkEvents: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		w.Branch(PC(i), i%2 == 0)
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close on a failing writer returned nil")
	} else if !errors.Is(err, errWriteFailed) {
		t.Fatalf("Close error %v does not wrap the write error", err)
	}
}

// errWriteFailed is the sentinel failure injected by failingWriter.
var errWriteFailed = errors.New("injected write failure")

// failingWriter accepts failAfter bytes and then fails, like a disk
// filling up mid-write (partial writes included).
type failingWriter struct {
	n         int
	failAfter int
}

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.n >= f.failAfter {
		return 0, errWriteFailed
	}
	if f.n+len(p) > f.failAfter {
		k := f.failAfter - f.n
		f.n = f.failAfter
		return k, errWriteFailed
	}
	f.n += len(p)
	return len(p), nil
}

func TestWriterSurfacesWriteError(t *testing.T) {
	// Regression: Branch cannot return errors, so the first write error
	// must surface from Close, wrapped with context.
	fw := &failingWriter{failAfter: 4} // header fits, events do not
	w, err := NewWriter(fw)
	if err != nil {
		t.Fatal(err)
	}
	// bufio holds ~4 KB; write enough to force a mid-stream flush.
	for i := 0; i < 10000; i++ {
		w.Branch(PC(i*1000), i%2 == 0)
	}
	err = w.Close()
	if err == nil {
		t.Fatal("Close on a failing writer returned nil")
	}
	if !errors.Is(err, errWriteFailed) {
		t.Fatalf("Close error %v does not wrap the underlying write error", err)
	}
	if got := err.Error(); got == errWriteFailed.Error() {
		t.Fatalf("Close error %q carries no context", got)
	}
	// The error must be sticky: a second Close reports the same failure.
	if err2 := w.Close(); !errors.Is(err2, errWriteFailed) {
		t.Fatalf("second Close = %v, want the recorded write error", err2)
	}
}

func TestWriterFlushErrorWrapped(t *testing.T) {
	fw := &failingWriter{failAfter: 5} // header (5 bytes) succeeds
	w, err := NewWriter(fw)
	if err != nil {
		t.Fatal(err)
	}
	w.Branch(1, true) // stays in bufio's buffer
	err = w.Close()
	if err == nil {
		t.Fatal("Close did not surface the flush error")
	}
	if !errors.Is(err, errWriteFailed) {
		t.Fatalf("flush error %v does not wrap the write error", err)
	}
}

func TestNewRecorderPrealloc(t *testing.T) {
	r := NewRecorder(1024)
	if cap(r.Events) != 1024 || len(r.Events) != 0 {
		t.Fatalf("NewRecorder(1024): len=%d cap=%d", len(r.Events), cap(r.Events))
	}
	r.Branch(1, true)
	r.BranchBatch([]Event{{PC: 2}, {PC: 3, Taken: true}})
	if len(r.Events) != 3 || r.Events[2] != (Event{PC: 3, Taken: true}) {
		t.Fatalf("recorded %v", r.Events)
	}
	r.Reset()
	if len(r.Events) != 0 || cap(r.Events) != 1024 {
		t.Fatalf("Reset lost the buffer: len=%d cap=%d", len(r.Events), cap(r.Events))
	}
	if NewRecorder(0).Events != nil || NewRecorder(-5).Events != nil {
		t.Fatal("non-positive hint allocated a buffer")
	}
}

func TestNewRecorderNoRegrowth(t *testing.T) {
	const n = 100000
	r := NewRecorder(n)
	base := &r.Events[:1][0] // address of the backing array start
	for i := 0; i < n; i++ {
		r.Branch(PC(i), true)
	}
	if &r.Events[0] != base {
		t.Fatal("sized recorder re-grew its buffer")
	}
	if fmt.Sprint(len(r.Events)) != fmt.Sprint(n) {
		t.Fatalf("recorded %d events", len(r.Events))
	}
}
