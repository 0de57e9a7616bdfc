package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
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
// record: ReadAll reports the torn tail and returns the records before
// it, and rewriting that prefix drops the tail — the rewritten log
// rescans clean and equal.
func TestTornTailRepair(t *testing.T) {
	path := tmpLog(t)
	want := sampleRecords()
	writeLog(t, path, want, SyncPolicy{Mode: SyncNever})

	// Cut three bytes off the final record's payload.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw = raw[:len(raw)-3]
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	got, repair, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if repair == nil {
		t.Fatal("torn log reported no repair")
	}
	if repair.Reason != "torn record" {
		t.Errorf("repair reason %q, want torn record", repair.Reason)
	}
	if repair.Offset+repair.DroppedBytes != int64(len(raw)) {
		t.Errorf("repair %+v does not end at the file's %d bytes", repair, len(raw))
	}
	recordsEqual(t, got, want[:len(want)-1])

	// The rewrite frames records as Append did, so the rewritten log is
	// the valid prefix byte for byte.
	if err := Rewrite(path, got); err != nil {
		t.Fatal(err)
	}
	again, after, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if after != nil {
		t.Fatalf("rewritten log still reports repair: %+v", after)
	}
	recordsEqual(t, again, want[:len(want)-1])
	if rewritten, err := os.ReadFile(path); err != nil || !bytes.Equal(rewritten, raw[:repair.Offset]) {
		t.Errorf("rewritten log is not the %d-byte valid prefix (%d bytes, %v)", repair.Offset, len(rewritten), err)
	}
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

// TestBadHeaderRefused: a file that is not a log yields no records and
// a "bad header" tail, and reading it leaves it exactly as it was — the
// caller skips it, nothing deletes or truncates it.
func TestBadHeaderRefused(t *testing.T) {
	path := tmpLog(t)
	raw := []byte("not a wal file")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, repair, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || repair == nil || repair.Reason != "bad header" {
		t.Fatalf("ReadAll = %d recs, repair %+v", len(recs), repair)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, raw) {
		t.Fatalf("reading a bad-header file changed it: %q, %v", after, err)
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
		t.Errorf("rewrite did not shrink the log: %d -> %d bytes", before.Size(), after.Size())
	}
	if after.Mode() != before.Mode() {
		t.Errorf("rewrite changed the log's mode: %v -> %v", before.Mode(), after.Mode())
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

// TestIsRewriteTemp: the name Rewrite gives its temp file is recognised,
// and no log name is.
func TestIsRewriteTemp(t *testing.T) {
	tmp, err := os.CreateTemp(t.TempDir(), "s-1.wal"+rewriteTemp)
	if err != nil {
		t.Fatal(err)
	}
	tmp.Close()
	if name := filepath.Base(tmp.Name()); !IsRewriteTemp(name) {
		t.Errorf("IsRewriteTemp(%q) = false", name)
	}
	for _, name := range []string{"s-1.wal", "s.rewrite-1.wal", "s-1.wal.tmp", "notes.txt", "s-1.wal.compact-123"} {
		if IsRewriteTemp(name) {
			t.Errorf("IsRewriteTemp(%q) = true", name)
		}
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

// TestIntervalFlusherKeepsSyncError: a background fsync that fails is
// not dropped. The next Append writes nothing and returns the error,
// and so does Close.
func TestIntervalFlusherKeepsSyncError(t *testing.T) {
	l, err := Create(tmpLog(t), SyncPolicy{Mode: SyncInterval, Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	// With the buffer written out, the flusher's next tick has nothing
	// to write and only its fsync fails, which leaves the buffered
	// writer without an error of its own.
	if err := l.w.Flush(); err != nil {
		t.Fatal(err)
	}
	l.f.Close()
	l.dirty = true
	buffered := l.w.Buffered()
	l.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for {
		l.mu.Lock()
		failed := l.err != nil
		l.mu.Unlock()
		if failed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the interval flusher kept no error in 5s")
		}
		time.Sleep(time.Millisecond)
	}
	if err := l.Append(1, []byte("lost")); !errors.Is(err, os.ErrClosed) {
		t.Errorf("append after a failed background sync = %v, want an error wrapping os.ErrClosed", err)
	}
	l.mu.Lock()
	if n := l.w.Buffered(); n != buffered {
		t.Errorf("append after a failed background sync buffered %d bytes", n-buffered)
	}
	l.mu.Unlock()
	if err := l.Close(); !errors.Is(err, os.ErrClosed) {
		t.Errorf("close after a failed background sync = %v, want an error wrapping os.ErrClosed", err)
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

// encodeEvents is the plain event encoder older daemons logged with,
// kept as the test oracle of the decoders: it appends the codec form
// of b's events to dst. The taken bitmap is b's little-endian outcome
// words cut to ceil(count/8) bytes, with the bits above count cleared.
func encodeEvents(dst []byte, b *trace.SoABatch) []byte {
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

// encodeEventsCtx is the context-carrying encoder older daemons logged
// with: the plain layout plus the run-length context table (a batch
// without a context lane is one context-0 run).
func encodeEventsCtx(dst []byte, b *trace.SoABatch) []byte {
	dst = encodeEvents(dst, b)
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

// TestEventsCodecGolden pins both event decoders, and the test
// oracle's encoders, to bytes captured from the AoS encoder that wrote
// the event records of older daemons' logs: those logs must keep
// decoding.
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

	if got := hex.EncodeToString(encodeEvents(nil, plain)); got != plainHex {
		t.Errorf("encodeEvents = %s, want %s", got, plainHex)
	}
	if got := hex.EncodeToString(encodeEventsCtx(nil, withCtx)); got != ctxHex {
		t.Errorf("encodeEventsCtx = %s, want %s", got, ctxHex)
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
		if err := DecodeEvents(&got, encodeEvents(nil, want)); err != nil {
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
	if !bytes.Equal(encodeEvents(nil, &dirty), encodeEvents(nil, clean)) {
		t.Error("encodeEvents leaked outcome bits above the count")
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
		if err := DecodeEventsCtx(&got, encodeEventsCtx(nil, want)); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		requireBatch(t, fmt.Sprintf("case %d", i), &got, want)
	}
}

func TestDecodeEventsCtxRejectsGarbage(t *testing.T) {
	good := encodeEventsCtx(nil, batchOf(
		trace.Event{PC: 1, Ctx: 2, Taken: true}, trace.Event{PC: 2, Ctx: 2}, trace.Event{PC: 3, Ctx: 1},
	))
	cases := [][]byte{
		good[:len(good)-1],                             // truncated run table
		append(good[:len(good):len(good)], 0x00),       // trailing byte
		encodeEvents(nil, batchOf(trace.Event{PC: 1})), // plain payload: no run table
	}
	// Run table claiming more runs than events.
	bad := encodeEvents(nil, batchOf(trace.Event{PC: 1}))
	bad = append(bad, 0x05)
	cases = append(cases, bad)
	// Runs under-covering the events (1 run of length 1 for 2 events).
	under := encodeEvents(nil, batchOf(trace.Event{PC: 1}, trace.Event{PC: 2}))
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

// TestSyncPolicyValidate: every mode with its required cadence passes,
// and each invalid field is refused with an error that names it.
func TestSyncPolicyValidate(t *testing.T) {
	for _, p := range []SyncPolicy{
		{Mode: SyncAlways},
		{Mode: SyncNever},
		{Mode: SyncInterval, Interval: DefaultSyncInterval},
	} {
		if err := p.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", p, err)
		}
	}
	invalid := []struct {
		field, value string
		policy       SyncPolicy
	}{
		{"Mode", "99", SyncPolicy{Mode: 99}},
		{"Interval", "0", SyncPolicy{Mode: SyncInterval}},
		{"Interval", "-1ms", SyncPolicy{Mode: SyncInterval, Interval: -time.Millisecond}},
	}
	for _, tc := range invalid {
		t.Run("rejects "+tc.field+"="+tc.value, func(t *testing.T) {
			err := tc.policy.Validate()
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("error %q does not name %s", err, tc.field)
			}
		})
	}
}
