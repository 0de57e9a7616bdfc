package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRecorderReplay(t *testing.T) {
	var rec Recorder
	rec.Branch(1, true)
	rec.Branch(2, false)
	rec.Branch(1, true)

	var out Recorder
	n := rec.Replay(&out)
	if n != 3 {
		t.Fatalf("Replay returned %d", n)
	}
	if len(out.Events) != 3 || out.Events[1] != (Event{PC: 2, Taken: false}) {
		t.Fatalf("replayed events wrong: %v", out.Events)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	for i := 0; i < 5; i++ {
		c.Branch(10, true)
	}
	c.Branch(20, false)
	if c.Dynamic != 6 || c.Static() != 2 {
		t.Fatalf("Dynamic=%d Static=%d", c.Dynamic, c.Static())
	}
	if c.ExecCount(10) != 5 || c.ExecCount(20) != 1 || c.ExecCount(30) != 0 {
		t.Fatal("ExecCount wrong")
	}
	if len(c.Sites()) != 2 {
		t.Fatal("Sites wrong")
	}
}

func TestFilterLimitTee(t *testing.T) {
	var a, b Recorder
	tee := Tee{&a, &b}
	for i := 0; i < 4; i++ {
		tee.Branch(PC(i), true)
	}
	for _, rec := range []*Recorder{&a, &b} {
		if len(rec.Events) != 4 || rec.Events[3] != (Event{PC: 3, Taken: true}) {
			t.Fatalf("tee delivered %v", rec.Events)
		}
	}
}

func TestSinkFunc(t *testing.T) {
	var got []Event
	s := SinkFunc(func(pc PC, taken bool) { got = append(got, Event{PC: pc, Taken: taken}) })
	s.Branch(7, true)
	if len(got) != 1 || got[0] != (Event{PC: 7, Taken: true}) {
		t.Fatalf("SinkFunc got %v", got)
	}
}

func roundTrip(t *testing.T, events []Event) []Event {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
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
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var rec Recorder
	n, err := r.Replay(&rec)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(events)) {
		t.Fatalf("read %d events, want %d", n, len(events))
	}
	return rec.Events
}

func TestFileRoundTrip(t *testing.T) {
	events := []Event{
		{PC: 0x400000, Taken: true},
		{PC: 0x400004},
		{PC: 0x400000, Taken: true},   // backward delta
		{PC: 0xffffffff, Taken: true}, // big jump
		{PC: 0},                       // back to zero
	}
	got := roundTrip(t, events)
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d: got %v want %v", i, got[i], events[i])
		}
	}
}

func TestFileRoundTripQuick(t *testing.T) {
	f := func(pcs []uint32, dirs []bool) bool {
		var events []Event
		for i, pc := range pcs {
			taken := i < len(dirs) && dirs[i]
			events = append(events, Event{PC: PC(pc), Taken: taken})
		}
		got := roundTrip(t, events)
		if len(got) != len(events) {
			return false
		}
		for i := range events {
			if got[i] != events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// deltasFit is the reference for ErrPCDelta: whether every PC delta a
// writer must encode is below 2^62 in magnitude. BTR1 encodes its first
// event against PC 0; BTR2/BTR3 start each chunk of `chunk` events at
// its own base PC (chunk 0: one delta run for the whole stream).
func deltasFit(events []Event, chunk int) bool {
	prev := PC(0)
	for i, e := range events {
		if chunk > 0 && i%chunk == 0 {
			prev = e.PC
		}
		if d := uint64(e.PC - prev); d >= 1<<62 && -d >= 1<<62 {
			return false
		}
		prev = e.PC
	}
	return true
}

// fullRangeEvents builds a stream over the whole 64-bit PC space: hot
// steps, far jumps either way that the encoding holds, and rare jumps
// of 2^62 or more (explicit, or to a random PC) that it cannot.
func fullRangeEvents(rng *rand.Rand) []Event {
	events := make([]Event, 1+rng.Intn(48))
	pc := PC(rng.Uint64() >> rng.Intn(64))
	for i := range events {
		switch k := rng.Intn(64); {
		case k == 0:
			pc = PC(rng.Uint64())
		case k == 1:
			pc += 1<<62 + PC(rng.Int63n(1<<62))
		case k < 8:
			pc += PC(rng.Int63n(1 << 62))
		case k < 14:
			pc -= PC(rng.Int63n(1 << 62))
		default:
			pc += PC(rng.Intn(64) * 4)
		}
		events[i] = Event{PC: pc, Ctx: Context(rng.Intn(3)), Taken: rng.Intn(2) == 0}
	}
	return events
}

// TestRoundTripFullRangePCs: over full-range 64-bit PCs every format
// round-trips exactly, or — when some delta is 2^62 or more, which the
// event word cannot hold — Close fails with ErrPCDelta instead of
// writing a stream that decodes to different PCs.
func TestRoundTripFullRangePCs(t *testing.T) {
	type format struct {
		name  string
		chunk int  // events per delta run; 0 = the whole stream
		ctx   bool // carries execution contexts
		write func(io.Writer, []Event) error
	}
	formats := []format{{"btr1", 0, false, func(w io.Writer, events []Event) error {
		tw, err := NewWriter(w)
		if err != nil {
			return err
		}
		for _, e := range events {
			tw.Branch(e.PC, e.Taken)
		}
		return tw.Close()
	}}}
	for _, chunk := range []int{1, 3, 7, DefaultChunkEvents} {
		for _, ver := range []int{2, 3} {
			formats = append(formats, format{fmt.Sprintf("btr%d/chunk-%d", ver, chunk), chunk, ver == 3,
				func(w io.Writer, events []Event) error {
					opts := BTR2Options{ChunkEvents: chunk, Compress: chunk == 7}
					var bw interface {
						BranchBatch([]Event)
						Close() error
					}
					var err error
					if ver == 3 {
						bw, err = NewBTR3Writer(w, opts)
					} else {
						bw, err = NewBTR2Writer(w, opts)
					}
					if err != nil {
						return err
					}
					bw.BranchBatch(events)
					return bw.Close()
				}})
		}
	}
	probe := []Event{{PC: 0x10}, {PC: 0xC000000000000010}, {PC: 0x20}}
	for _, f := range formats {
		t.Run(f.name, func(t *testing.T) {
			check := func(events []Event) (encoded bool) {
				t.Helper()
				if !f.ctx {
					events = append([]Event(nil), events...)
					for i := range events {
						events[i].Ctx = 0
					}
				}
				var buf bytes.Buffer
				err := f.write(&buf, events)
				if !deltasFit(events, f.chunk) {
					if !errors.Is(err, ErrPCDelta) {
						t.Fatalf("Close = %v over an unencodable delta, want ErrPCDelta", err)
					}
					return false
				}
				if err != nil {
					t.Fatal(err)
				}
				r, err := OpenReader(&buf)
				if err != nil {
					t.Fatal(err)
				}
				var rec Recorder
				if _, err := r.Replay(&rec); err != nil {
					t.Fatal(err)
				}
				if len(rec.Events) != len(events) {
					t.Fatalf("read %d events, wrote %d", len(rec.Events), len(events))
				}
				for i := range events {
					if rec.Events[i] != events[i] {
						t.Fatalf("event %d: got %+v, wrote %+v", i, rec.Events[i], events[i])
					}
				}
				return true
			}
			if f.chunk != 1 && check(probe) {
				t.Fatal("a 2^62 PC jump passed as encodable")
			}
			rng := rand.New(rand.NewSource(62))
			var encoded, refused int
			for i := 0; i < 400; i++ {
				if check(fullRangeEvents(rng)) {
					encoded++
				} else {
					refused++
				}
			}
			if encoded < 50 || (f.chunk != 1 && refused < 50) {
				t.Fatalf("generator skew: %d streams encoded, %d refused", encoded, refused)
			}
		})
	}
}

func TestFileEmpty(t *testing.T) {
	if got := roundTrip(t, nil); len(got) != 0 {
		t.Fatalf("empty trace read %v", got)
	}
}

func TestBadMagic(t *testing.T) {
	_, err := NewReader(bytes.NewReader([]byte("NOPE0000")))
	if err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestTruncatedHeader(t *testing.T) {
	_, err := NewReader(bytes.NewReader([]byte("BT")))
	if err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestReaderNextEOF(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Branch(5, true)
	w.Close()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var b SoABatch
	if err := r.ReadBatch(&b); err != nil || b.Len() != 1 || b.PCs[0] != 5 || !b.TakenBit(0) {
		t.Fatalf("ReadBatch = %v, %v", b.AppendEvents(nil), err)
	}
	if err := r.ReadBatch(&b); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
}

func TestCompactEncoding(t *testing.T) {
	// Repeating the same PC should cost ~1 byte per event.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	for i := 0; i < 1000; i++ {
		w.Branch(0x400000, i%2 == 0)
	}
	w.Close()
	perEvent := float64(buf.Len()) / 1000
	if perEvent > 1.5 {
		t.Fatalf("encoding too large: %.2f bytes/event", perEvent)
	}
}
