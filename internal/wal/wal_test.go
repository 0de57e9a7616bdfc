package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"twodprof/internal/trace"
)

func tmpLog(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "test.wal")
}

// writeLog creates a log at path holding recs and closes it.
func writeLog(t *testing.T, path string, recs []Record, policy SyncPolicy) {
	t.Helper()
	l, err := Create(path, policy)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := l.Append(rec.Type, rec.Payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func sampleRecords() []Record {
	return []Record{
		{Type: 1, Payload: []byte(`{"id":"s-1"}`)},
		{Type: 2, Payload: bytes.Repeat([]byte{0xAB}, 1000)},
		{Type: 2, Payload: nil}, // empty payload is legal
		{Type: 3, Payload: []byte("done")},
	}
}

func recordsEqual(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type {
			t.Errorf("record %d: type %d, want %d", i, got[i].Type, want[i].Type)
		}
		if !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Errorf("record %d: payload mismatch (%d vs %d bytes)", i, len(got[i].Payload), len(want[i].Payload))
		}
	}
}

func TestLogRoundtrip(t *testing.T) {
	for _, policy := range []SyncPolicy{
		{Mode: SyncAlways},
		{Mode: SyncNever},
		{Mode: SyncInterval, Interval: 10 * time.Millisecond},
	} {
		t.Run(policy.String(), func(t *testing.T) {
			path := tmpLog(t)
			want := sampleRecords()
			writeLog(t, path, want, policy)

			got, repair, err := ReadAll(path)
			if err != nil {
				t.Fatal(err)
			}
			if repair != nil {
				t.Fatalf("clean log reported repair: %+v", repair)
			}
			recordsEqual(t, got, want)
		})
	}
}

func TestCreateRefusesExisting(t *testing.T) {
	path := tmpLog(t)
	writeLog(t, path, nil, SyncPolicy{Mode: SyncNever})
	if _, err := Create(path, SyncPolicy{Mode: SyncNever}); err == nil {
		t.Fatal("Create over an existing log succeeded")
	}
}

// TestTornTailRepair: a file cut mid-record loses exactly the torn
// record; Open truncates the file and appends resume at the repaired
// boundary.
func TestTornTailRepair(t *testing.T) {
	path := tmpLog(t)
	want := sampleRecords()
	writeLog(t, path, want, SyncPolicy{Mode: SyncNever})

	// Cut three bytes off the final record's payload.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-3); err != nil {
		t.Fatal(err)
	}

	l, got, repair, err := Open(path, SyncPolicy{Mode: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if repair == nil {
		t.Fatal("torn log reported no repair")
	}
	if repair.Reason != "torn record" {
		t.Errorf("repair reason %q, want torn record", repair.Reason)
	}
	recordsEqual(t, got, want[:len(want)-1])

	// Appends must resume cleanly at the repaired boundary.
	if err := l.Append(9, []byte("after repair")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, repair, err = ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if repair != nil {
		t.Fatalf("repaired+appended log still reports repair: %+v", repair)
	}
	wantAfter := append(append([]Record{}, want[:len(want)-1]...), Record{Type: 9, Payload: []byte("after repair")})
	recordsEqual(t, got, wantAfter)
}

// TestCorruptRecordRejected: a checksum-corrupt record ends the trusted
// prefix — it and everything after it are dropped.
func TestCorruptRecordRejected(t *testing.T) {
	path := tmpLog(t)
	want := sampleRecords()
	writeLog(t, path, want, SyncPolicy{Mode: SyncNever})

	// Flip one byte inside the second record's payload. The second
	// record starts after the header and the first record's frame.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := len(magic) + frameHeader + 1 + len(want[0].Payload) // start of record 2's frame
	raw[off+frameHeader+10] ^= 0xFF                            // a payload byte of record 2
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	got, repair, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if repair == nil || repair.Reason != "checksum mismatch" {
		t.Fatalf("repair = %+v, want checksum mismatch", repair)
	}
	recordsEqual(t, got, want[:1])
	if repair.Offset != int64(off) {
		t.Errorf("repair offset %d, want %d", repair.Offset, off)
	}
}

// TestOversizeLengthRejected: a garbage length field must not drive an
// allocation; the scan stops at it.
func TestOversizeLengthRejected(t *testing.T) {
	path := tmpLog(t)
	writeLog(t, path, sampleRecords()[:1], SyncPolicy{Mode: SyncNever})

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	var frame [frameHeader]byte
	binary.LittleEndian.PutUint32(frame[0:4], MaxRecord+1)
	if _, err := f.Write(frame[:]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, repair, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if repair == nil || repair.Reason != "oversized record" {
		t.Fatalf("repair = %+v, want oversized record", repair)
	}
	if len(got) != 1 {
		t.Fatalf("got %d records, want 1", len(got))
	}
}

func TestBadHeaderRefused(t *testing.T) {
	path := tmpLog(t)
	if err := os.WriteFile(path, []byte("not a wal file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Open(path, SyncPolicy{Mode: SyncNever}); err == nil {
		t.Fatal("Open of a non-WAL file succeeded")
	}
	recs, repair, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || repair == nil || repair.Reason != "bad header" {
		t.Fatalf("ReadAll = %d recs, repair %+v", len(recs), repair)
	}
}

func TestRewriteCompacts(t *testing.T) {
	path := tmpLog(t)
	writeLog(t, path, sampleRecords(), SyncPolicy{Mode: SyncNever})
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	compact := []Record{
		{Type: 1, Payload: []byte(`{"id":"s-1"}`)},
		{Type: 3, Payload: []byte("done")},
	}
	if err := Rewrite(path, compact); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Errorf("compaction did not shrink the log: %d -> %d bytes", before.Size(), after.Size())
	}
	got, repair, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if repair != nil {
		t.Fatalf("rewritten log reports repair: %+v", repair)
	}
	recordsEqual(t, got, compact)

	// No temp droppings left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries after rewrite, want 1", len(entries))
	}
}

func TestParseSyncPolicy(t *testing.T) {
	cases := []struct {
		in      string
		want    SyncPolicy
		wantErr bool
	}{
		{in: "always", want: SyncPolicy{Mode: SyncAlways}},
		{in: "never", want: SyncPolicy{Mode: SyncNever}},
		{in: "interval", want: SyncPolicy{Mode: SyncInterval, Interval: DefaultSyncInterval}},
		{in: "250ms", want: SyncPolicy{Mode: SyncInterval, Interval: 250 * time.Millisecond}},
		{in: "bogus", wantErr: true},
		{in: "-5s", wantErr: true},
		{in: "0s", wantErr: true},
	}
	for _, c := range cases {
		got, err := ParseSyncPolicy(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseSyncPolicy(%q): no error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSyncPolicy(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseSyncPolicy(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

// TestIntervalFlusherSyncs: with an interval policy, appended data
// reaches the file (visible to an independent reader) without Close.
func TestIntervalFlusherSyncs(t *testing.T) {
	path := tmpLog(t)
	l, err := Create(path, SyncPolicy{Mode: SyncInterval, Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(1, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		recs, _, err := ReadAll(path)
		if err == nil && len(recs) == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("interval flusher never made the record visible (recs=%d err=%v)", len(recs), err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// batchOf builds an SoA batch from AoS events.
func batchOf(events ...trace.Event) *trace.SoABatch {
	b := new(trace.SoABatch)
	b.FromEvents(events)
	return b
}

// requireBatch fails unless got holds exactly want's events (contexts
// included) and no stray outcome bits above its count.
func requireBatch(t *testing.T, label string, got, want *trace.SoABatch) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d events, want %d", label, got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if got.PCs[i] != want.PCs[i] || got.TakenBit(i) != want.TakenBit(i) || got.Ctx(i) != want.Ctx(i) {
			t.Fatalf("%s event %d: {%d %d %v}, want {%d %d %v}", label, i,
				got.PCs[i], got.Ctx(i), got.TakenBit(i), want.PCs[i], want.Ctx(i), want.TakenBit(i))
		}
	}
	if n := got.Len(); n%64 != 0 && got.Taken[n/64]>>uint(n%64) != 0 {
		t.Fatalf("%s: stray outcome bits above event %d", label, n)
	}
}

// goldenEvents is a fixed 13-event batch (not a multiple of 8, so the
// bitmap's last byte is partial) with full 64-bit PCs and four
// contexts.
func goldenEvents() []trace.Event {
	pcs := []trace.PC{0x400000, 0x400004, 1<<64 - 1, 1 << 63, 0, 7, 0x400010, 0x3fff00, 0x400000, 0xdeadbeefcafe, 5, 0x400004, 1 << 40}
	ctxs := []trace.Context{0, 0, 3, 3, 3, 1, 0, 0, 1 << 31, 1 << 31, 2, 2, 0}
	ev := make([]trace.Event, len(pcs))
	for i, pc := range pcs {
		ev[i] = trace.Event{PC: pc, Ctx: ctxs[i], Taken: i%3 != 1}
	}
	return ev
}

// TestEventsCodecGolden pins both event codecs to bytes captured from
// the AoS encoder that wrote every log before the SoA codec: those logs
// must keep decoding, and new logs must stay byte-identical to them.
func TestEventsCodecGolden(t *testing.T) {
	const (
		plainHex = "0d6d1b8080800284808002ffffffffffffffffff018080808080808080800100079080800280feff0180808002fe95bff7dbd5370584808002808080808020"
		ctxHex   = plainHex + "07000203030101000280808080080202020001"
	)
	ev := goldenEvents()
	withCtx := batchOf(ev...)
	for i := range ev {
		ev[i].Ctx = 0
	}
	plain := batchOf(ev...)

	if got := hex.EncodeToString(EncodeEvents(nil, plain)); got != plainHex {
		t.Errorf("EncodeEvents = %s, want %s", got, plainHex)
	}
	if got := hex.EncodeToString(EncodeEventsCtx(nil, withCtx)); got != ctxHex {
		t.Errorf("EncodeEventsCtx = %s, want %s", got, ctxHex)
	}
	raw, _ := hex.DecodeString(plainHex)
	var b trace.SoABatch
	if err := DecodeEvents(&b, raw); err != nil {
		t.Fatal(err)
	}
	requireBatch(t, "plain", &b, plain)
	raw, _ = hex.DecodeString(ctxHex)
	if err := DecodeEventsCtx(&b, raw); err != nil {
		t.Fatal(err)
	}
	requireBatch(t, "ctx", &b, withCtx)
}

func TestEventsCodecRoundtrip(t *testing.T) {
	cases := [][]trace.Event{
		nil,
		{{PC: 0, Taken: false}},
		{{PC: 1, Taken: true}, {PC: 2, Taken: false}, {PC: 3, Taken: true}},
		{{PC: 1<<64 - 1, Taken: true}, {PC: 1 << 63, Taken: false}}, // full 64-bit PCs survive
	}
	// A 1000-event mixed batch crossing several bitmap bytes and words.
	var big []trace.Event
	for i := 0; i < 1000; i++ {
		big = append(big, trace.Event{PC: trace.PC(i * 7), Taken: i%3 == 0})
	}
	cases = append(cases, big)

	var got trace.SoABatch
	for i, events := range cases {
		want := batchOf(events...)
		if err := DecodeEvents(&got, EncodeEvents(nil, want)); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		requireBatch(t, fmt.Sprintf("case %d", i), &got, want)
	}

	// Outcome bits above the count — in a span's source words or in a
	// hand-written bitmap byte — never reach the codec's output or the
	// decoded batch.
	var dirty trace.SoABatch
	dirty.FromEvents(big[:70])
	dirty.Taken[1] |= 0xffff << 6
	clean := batchOf(big[:70]...)
	if !bytes.Equal(EncodeEvents(nil, &dirty), EncodeEvents(nil, clean)) {
		t.Error("EncodeEvents leaked outcome bits above the count")
	}
	if err := DecodeEvents(&got, []byte{0x03, 0xff, 0x01, 0x02, 0x03}); err != nil {
		t.Fatal(err)
	}
	requireBatch(t, "stray bitmap bits", &got, batchOf(
		trace.Event{PC: 1, Taken: true}, trace.Event{PC: 2, Taken: true}, trace.Event{PC: 3, Taken: true}))
}

func TestDecodeEventsRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		{},                       // missing count
		{0x80},                   // truncated count varint
		{0x05},                   // count without bitmap
		{0x02, 0x00},             // bitmap but no pcs
		{0x01, 0x00, 0x00, 0x00}, // trailing bytes
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}, // absurd count
		{0x80, 0x80, 0x40, 0x00, 0x00},                               // 1M events claimed by a 2-byte body
	}
	var b trace.SoABatch
	for i, payload := range cases {
		if err := DecodeEvents(&b, payload); err == nil {
			t.Errorf("case %d: DecodeEvents accepted garbage %x", i, payload)
		}
	}
	// The oversized claim is refused before the batch grows to it.
	if cap(b.PCs) > 16 {
		t.Errorf("decoder grew the batch to %d events for a payload that cannot hold them", cap(b.PCs))
	}
}

func TestEventsCtxCodecRoundtrip(t *testing.T) {
	// Interleaved contexts with varied run lengths, plus a big batch
	// whose runs cross bitmap-byte boundaries.
	cases := [][]trace.Event{
		{{PC: 1, Ctx: 3, Taken: true}},
		{{PC: 1, Ctx: 0}, {PC: 2, Ctx: 1, Taken: true}, {PC: 3, Ctx: 1}, {PC: 4, Ctx: 0, Taken: true}},
	}
	var big []trace.Event
	for i := 0; i < 500; i++ {
		big = append(big, trace.Event{
			PC:    trace.PC(i * 5),
			Ctx:   trace.Context(i / 37 % 4),
			Taken: i%3 == 0,
		})
	}
	cases = append(cases, big)
	var got trace.SoABatch
	for i, events := range cases {
		want := batchOf(events...)
		if err := DecodeEventsCtx(&got, EncodeEventsCtx(nil, want)); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		requireBatch(t, fmt.Sprintf("case %d", i), &got, want)
	}
}

func TestDecodeEventsCtxRejectsGarbage(t *testing.T) {
	good := EncodeEventsCtx(nil, batchOf(
		trace.Event{PC: 1, Ctx: 2, Taken: true}, trace.Event{PC: 2, Ctx: 2}, trace.Event{PC: 3, Ctx: 1},
	))
	cases := [][]byte{
		good[:len(good)-1],                             // truncated run table
		append(good[:len(good):len(good)], 0x00),       // trailing byte
		EncodeEvents(nil, batchOf(trace.Event{PC: 1})), // plain payload: no run table
	}
	// Run table claiming more runs than events.
	bad := EncodeEvents(nil, batchOf(trace.Event{PC: 1}))
	bad = append(bad, 0x05)
	cases = append(cases, bad)
	// Runs under-covering the events (1 run of length 1 for 2 events).
	under := EncodeEvents(nil, batchOf(trace.Event{PC: 1}, trace.Event{PC: 2}))
	under = append(under, 0x01, 0x00, 0x01)
	cases = append(cases, under)
	var b trace.SoABatch
	for i, payload := range cases {
		if err := DecodeEventsCtx(&b, payload); err == nil {
			t.Errorf("case %d: DecodeEventsCtx accepted garbage %x", i, payload)
		}
	}
	// And the plain decoder must refuse a ctx payload (trailing bytes).
	if err := DecodeEvents(&b, good); err == nil {
		t.Error("DecodeEvents accepted a context-carrying payload")
	}
}
