package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"twodprof/internal/bpred"
	"twodprof/internal/core"
	"twodprof/internal/trace"
	"twodprof/internal/wal"
	"twodprof/internal/wire"
)

// durableConfig is testConfig plus a data directory with an aggressive
// fsync policy (tests care about correctness, not write latency).
func durableConfig(t testing.TB) Config {
	cfg := testConfig()
	cfg.DataDir = t.TempDir()
	cfg.Fsync = wal.SyncPolicy{Mode: wal.SyncAlways}
	return cfg
}

// sessionList fetches and decodes /v1/sessions.
func sessionList(t testing.TB, srv *Server) []SessionInfo {
	t.Helper()
	code, body := get(t, srv, "/v1/sessions")
	if code != 200 {
		t.Fatalf("/v1/sessions: %d: %s", code, body)
	}
	var infos []SessionInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatal(err)
	}
	return infos
}

func findSession(t testing.TB, infos []SessionInfo, id string) SessionInfo {
	t.Helper()
	for _, info := range infos {
		if info.ID == id {
			return info
		}
	}
	t.Fatalf("session %s not in /v1/sessions (%d entries)", id, len(infos))
	return SessionInfo{}
}

// requireCheckpointLog fails unless the log at path is exactly recBegin
// plus recSnapshot plus one terminal record of type typ, with no torn
// tail, and returns its records.
func requireCheckpointLog(t testing.TB, path string, typ byte) []wal.Record {
	t.Helper()
	recs, repair, err := wal.ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if repair != nil || len(recs) != 3 || recs[0].Type != recBegin || recs[1].Type != recSnapshot || recs[2].Type != typ {
		last := byte(0)
		if len(recs) > 0 {
			last = recs[len(recs)-1].Type
		}
		t.Fatalf("%s: %d records ending in type %d (torn tail %+v), want exactly recBegin + recSnapshot + type %d",
			filepath.Base(path), len(recs), last, repair, typ)
	}
	return recs
}

// requireCheckpointDir fails unless every log in dir is recBegin plus
// recSnapshot plus a terminal record.
func requireCheckpointDir(t testing.TB, dir string) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		recs, _, err := wal.ReadAll(path)
		if err != nil {
			t.Fatal(err)
		}
		typ := byte(recDone)
		if len(recs) > 0 && recs[len(recs)-1].Type == recFail {
			typ = recFail
		}
		requireCheckpointLog(t, path, typ)
	}
}

// traceEvents decodes every event of a BTR trace.
func traceEvents(t testing.TB, raw []byte) []trace.Event {
	t.Helper()
	tr, err := trace.OpenReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(0)
	if _, err := tr.Replay(rec); err != nil {
		t.Fatal(err)
	}
	return rec.Events
}

// referenceReport is the independent ground truth for recovered
// sessions: one offline profiler driven through Branch, one event at a
// time, over the given events.
func referenceReport(t testing.TB, cfg Config, events []trace.Event) []byte {
	t.Helper()
	prof, err := core.NewProfiler(cfg.Profile, bpred.MustNew(cfg.Predictor))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		prof.Branch(e.PC, e.Taken)
	}
	return marshalReport(t, prof.Finish())
}

// decodePrefix returns the events a prefix of a BTR body decodes to:
// every batch the reader yields up to its first error, as recovery
// replays an HTTP body log.
func decodePrefix(t testing.TB, body []byte) []trace.Event {
	t.Helper()
	tr, err := trace.OpenReader(bytes.NewReader(body))
	if err != nil {
		return nil
	}
	var (
		events []trace.Event
		b      trace.SoABatch
	)
	for {
		err := tr.ReadBatch(&b)
		events = b.AppendEvents(events)
		if err != nil {
			return events
		}
	}
}

// requirePrefix fails unless prefix is a prefix of events.
func requirePrefix(t testing.TB, prefix, events []trace.Event) {
	t.Helper()
	if len(prefix) > len(events) || !slices.Equal(prefix, events[:len(prefix)]) {
		t.Fatalf("the %d decoded events are not a prefix of the %d-event stream", len(prefix), len(events))
	}
}

// awaitLiveInput polls a streaming session's log until its input
// records hold as many bytes as want, requires that they are want
// itself, as records of type typ no larger than limit, and returns
// the log's records: the copy of the live log a crash at that moment
// would leave.
func awaitLiveInput(t testing.TB, path string, typ byte, want []byte, limit int) []wal.Record {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		// A record being appended may show as a torn tail; the valid
		// prefix before it is what a crash would keep.
		recs, _, err := wal.ReadAll(path)
		if err != nil {
			t.Fatal(err)
		}
		var got []byte
		for i, rec := range recs {
			switch {
			case i == 0 && rec.Type != recBegin:
				t.Fatalf("%s starts with record type %d", filepath.Base(path), rec.Type)
			case i == 0:
			case rec.Type != typ || len(rec.Payload) > limit:
				t.Fatalf("%s: record %d has type %d and %d bytes, want type %d of at most %d bytes",
					filepath.Base(path), i, rec.Type, len(rec.Payload), typ, limit)
			default:
				got = append(got, rec.Payload...)
			}
		}
		if len(got) >= len(want) {
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: the live log's %d input bytes are not the %d bytes sent", filepath.Base(path), len(got), len(want))
			}
			return recs
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: the live log never held the %d bytes sent (has %d)", filepath.Base(path), len(want), len(got))
		}
		time.Sleep(time.Millisecond)
	}
}

// postLive ingests body as session id through a pipe, piece bytes at
// a time with the last byte held back, and requires after each piece
// that the live log holds exactly the body bytes sent so far, as
// recBody records no larger than the body buffer. It returns the copy
// of the live log taken before the last byte went out (a BTR2 or BTR3
// session would finish, and rewrite its log, on reading its footer),
// and the status of the ingest, which then completes.
func postLive(t testing.TB, srv *Server, id string, body []byte, piece int) ([]wal.Record, int) {
	t.Helper()
	pr, pw := io.Pipe()
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest?session="+id, pr))
		pr.CloseWithError(errors.New("ingest returned"))
	}()
	var live []wal.Record
	last := len(body) - 1
	for sent := 0; sent < last; {
		n := min(piece, last-sent)
		if _, err := pw.Write(body[sent : sent+n]); err != nil {
			t.Fatal(err)
		}
		sent += n
		live = awaitLiveInput(t, srv.store.path(id), recBody, body[:sent], ingestBodyBuffer)
	}
	if _, err := pw.Write(body[last:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	<-done
	return live, rec.Code
}

// Older daemons logged decoded events in the WAL's own codec. These
// are TestEventsCodecGolden's payloads (internal/wal): its 13 golden
// events as one plain record and as one context-carrying record.
const (
	goldenPlainHex = "0d6d1b8080800284808002ffffffffffffffffff018080808080808080800100079080800280feff0180808002fe95bff7dbd5370584808002808080808020"
	goldenCtxHex   = goldenPlainHex + "07000203030101000280808080080202020001"
)

// olderDaemonEventRecords returns an older daemon's recEvents and
// recEventsCtx records of the golden events, and those events in log
// order, contexts dropped (a shared session profiles them as one
// stream).
func olderDaemonEventRecords(t testing.TB) ([]wal.Record, []trace.Event) {
	t.Helper()
	plain, err := hex.DecodeString(goldenPlainHex)
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := hex.DecodeString(goldenCtxHex)
	if err != nil {
		t.Fatal(err)
	}
	pcs := []trace.PC{0x400000, 0x400004, 1<<64 - 1, 1 << 63, 0, 7, 0x400010, 0x3fff00, 0x400000, 0xdeadbeefcafe, 5, 0x400004, 1 << 40}
	var events []trace.Event
	for range 2 {
		for i, pc := range pcs {
			events = append(events, trace.Event{PC: pc, Taken: i%3 != 1})
		}
	}
	return []wal.Record{{Type: recEvents, Payload: plain}, {Type: recEventsCtx, Payload: withCtx}}, events
}

// tearTail appends a torn frame to the log at path: a length field
// promising more bytes than follow.
func tearTail(t testing.TB, path string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xDE, 0xAD}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableRestartReport: a finished session survives a clean daemon
// restart — the recovered /v1/report is byte-identical, and the session
// reappears idle-tier with the recovered marker.
func TestDurableRestartReport(t *testing.T) {
	cfg := durableConfig(t)
	srv := startServer(t, cfg)
	raw := kernelTrace(t, "fsm", "train", false)
	if code, body := postTrace(t, srv, "/v1/ingest?session=dur-1&kernel=fsm", raw); code != 200 {
		t.Fatalf("ingest: %d: %s", code, body)
	}
	_, want := get(t, srv, "/v1/report?session=dur-1")

	if err := srv.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}

	srv2 := startServer(t, cfg)
	info := findSession(t, sessionList(t, srv2), "dur-1")
	if !info.Recovered {
		t.Error("recovered session not marked recovered in /v1/sessions")
	}
	if info.Tier != "idle" {
		t.Errorf("recovered session tier = %q, want idle", info.Tier)
	}
	if info.State != "done" {
		t.Errorf("recovered session state = %q, want done", info.State)
	}
	code, got := get(t, srv2, "/v1/report?session=dur-1")
	if code != 200 {
		t.Fatalf("report after restart: %d: %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Error("recovered report is not byte-identical to the pre-restart report")
	}
	// The reload promoted the session back to the hot tier.
	if tier := findSession(t, sessionList(t, srv2), "dur-1").Tier; tier != "hot" {
		t.Errorf("tier after reload = %q, want hot", tier)
	}
	// A fresh generated id must not collide with the recovered log.
	if code, body := postTrace(t, srv2, "/v1/ingest", raw); code != 200 {
		t.Fatalf("post-recovery ingest: %d: %s", code, body)
	}
	if findSession(t, sessionList(t, srv2), "dur-1").ID != "dur-1" {
		t.Error("recovered session lost after a new ingest")
	}
}

// TestMidStreamRecovery: a log without a terminal record (the daemon
// died while the client was streaming) is replayed through a fresh
// engine at startup. Its recBody records hold the first half of a BTR1
// body, cut inside an event; the recovered report is byte-identical to
// an offline profiler run over the events those bytes decode to, the
// session reports the bytes its log kept, and the log is rewritten to
// recBegin + recSnapshot + recFail, so the next restart only reads it.
func TestMidStreamRecovery(t *testing.T) {
	cfg := durableConfig(t)
	raw := kernelTrace(t, "typesum", "train", false)
	kept := raw[:len(raw)/2]
	prefix := decodePrefix(t, kept)
	requirePrefix(t, prefix, traceEvents(t, raw))

	// Craft the interrupted log by hand: begin + body reads, no
	// terminal record, then a torn frame on the tail.
	st, err := openStore(cfg.DataDir, cfg.Fsync, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	plog, err := st.Create(sessionMeta{ID: "interrupted", Profile: cfg.Profile, Predictor: cfg.Predictor})
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(kept); off += 997 {
		if err := plog.append(recBody, kept[off:min(off+997, len(kept))]); err != nil {
			t.Fatal(err)
		}
	}
	plog.abandon()
	tearTail(t, st.path("interrupted"))

	srv := startServer(t, cfg)
	info := findSession(t, sessionList(t, srv), "interrupted")
	if info.State != "failed" {
		t.Errorf("state = %q, want failed", info.State)
	}
	if !strings.Contains(info.Error, "recovered from WAL") {
		t.Errorf("reason = %q, want the recovery marker", info.Error)
	}
	if info.Events != int64(len(prefix)) {
		t.Errorf("recovered %d events, want %d", info.Events, len(prefix))
	}
	if info.Bytes != int64(len(kept)) {
		t.Errorf("recovered session reports %d bytes, want the %d its log kept", info.Bytes, len(kept))
	}

	code, got := get(t, srv, "/v1/report?session=interrupted")
	if code != 200 {
		t.Fatalf("report: %d: %s", code, got)
	}
	// The independent ground truth: one offline profiler over the same
	// durable prefix.
	if want := referenceReport(t, cfg, prefix); !bytes.Equal(got, want) {
		t.Error("recovered report differs from an offline run over the durable prefix")
	}

	// Recovery checkpointed the replay: the log is now recBegin +
	// recSnapshot + recFail, so a second recovery serves the same bytes
	// without replay.
	requireCheckpointLog(t, st.path("interrupted"), recFail)
	if err := srv.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}
	srv2 := startServer(t, cfg)
	requireCheckpointDir(t, cfg.DataDir)
	code, again := get(t, srv2, "/v1/report?session=interrupted")
	if code != 200 {
		t.Fatalf("report after second restart: %d: %s", code, again)
	}
	if !bytes.Equal(again, got) {
		t.Error("second recovery produced different report bytes")
	}
	if info := findSession(t, sessionList(t, srv2), "interrupted"); info.Bytes != int64(len(kept)) {
		t.Errorf("after the second restart the session reports %d bytes, want %d", info.Bytes, len(kept))
	}
}

// TestRecoverOlderDaemonLog: the live log of an older daemon — a
// recBegin that still carries the deleted shards parameter, event
// records in the WAL's old codec (plain and context-carrying), a torn
// tail — recovers to the reference report over the events it holds,
// with no encoder of that codec in the daemon, and is rewritten to
// recBegin + recSnapshot + recFail. Such logs held no received bytes,
// so the session reports 0.
func TestRecoverOlderDaemonLog(t *testing.T) {
	cfg := durableConfig(t)
	meta, err := json.Marshal(sessionMeta{ID: "older", Profile: cfg.Profile, Predictor: cfg.Predictor})
	if err != nil {
		t.Fatal(err)
	}
	meta = append(meta[:len(meta)-1], `,"shards":4}`...)
	recs, events := olderDaemonEventRecords(t)
	path := filepath.Join(cfg.DataDir, "older.wal")
	if err := wal.Rewrite(path, append([]wal.Record{{Type: recBegin, Payload: meta}}, recs...)); err != nil {
		t.Fatal(err)
	}
	tearTail(t, path)

	srv := startServer(t, cfg)
	info := findSession(t, sessionList(t, srv), "older")
	if info.State != "failed" || !info.Recovered {
		t.Errorf("recovered session: state=%q recovered=%v, want failed/true", info.State, info.Recovered)
	}
	if info.Events != int64(len(events)) || info.Bytes != 0 {
		t.Errorf("recovered %d events and %d bytes, want %d and 0", info.Events, info.Bytes, len(events))
	}
	code, got := get(t, srv, "/v1/report?session=older")
	if code != 200 {
		t.Fatalf("report: %d: %s", code, got)
	}
	if want := referenceReport(t, cfg, events); !bytes.Equal(got, want) {
		t.Error("recovered report differs from an offline run over the logged events")
	}
	requireCheckpointLog(t, path, recFail)
}

// TestRecoveryDecodesNoSnapshot: recovering a finished log decodes its
// begin and terminal records and leaves the checkpoint snapshot for the
// session's first read, so it allocates as often for a snapshot of
// 10,000 branches as for one of 10.
func TestRecoveryDecodesNoSnapshot(t *testing.T) {
	cfg := durableConfig(t)
	srv := startServer(t, cfg)
	sites := []int{10, 10000}
	for _, n := range sites {
		events := make([]trace.Event, 20000)
		for i := range events {
			events[i] = trace.Event{PC: trace.PC(0x400000 + 4*(i%n)), Taken: i%3 != 0}
		}
		var body bytes.Buffer
		w, err := trace.NewWriter(&body)
		if err != nil {
			t.Fatal(err)
		}
		w.BranchBatch(events)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if code, resp := postTrace(t, srv, fmt.Sprintf("/v1/ingest?session=sites-%d", n), body.Bytes()); code != 200 {
			t.Fatalf("ingest: %d: %s", code, resp)
		}
	}
	if err := srv.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}
	allocs := make([]float64, len(sites))
	for i, n := range sites {
		path := srv.store.path(fmt.Sprintf("sites-%d", n))
		allocs[i] = testing.AllocsPerRun(10, func() {
			if _, err := srv.store.recoverOne(path); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[0] != allocs[1] {
		t.Errorf("recovering a finished log of %d branches allocates %v times, of %d branches %v times; want equal",
			sites[0], allocs[0], sites[1], allocs[1])
	}
}

// TestCorruptCheckpointReadsAsInterrupted: the checkpoint record
// precedes the terminal record, so a finished log whose checkpoint
// frame or terminal frame is corrupt keeps no terminal record in its
// valid prefix and recovers as an interrupted session with no input,
// rewritten to a finished log of its own.
func TestCorruptCheckpointReadsAsInterrupted(t *testing.T) {
	corpusLog := filepath.Join("testdata", "corpus", "split-done-http.wal")
	finished, err := os.ReadFile(corpusLog)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := wal.ReadAll(corpusLog)
	if err != nil || len(recs) != 3 {
		t.Fatalf("corpus log: %d records, %v", len(recs), err)
	}
	// The file is the magic, then each record framed by 9 bytes.
	snapAt := 6 + 9 + len(recs[0].Payload) + 9
	for _, c := range []struct {
		frame string
		at    int // the byte flipped
	}{
		{"checkpoint", snapAt + len(recs[1].Payload)/2},
		{"terminal", len(finished) - 1},
	} {
		t.Run(c.frame, func(t *testing.T) {
			cfg := durableConfig(t)
			corrupt := slices.Clone(finished)
			corrupt[c.at] ^= 0xff
			if err := os.WriteFile(filepath.Join(cfg.DataDir, "split-done-http.wal"), corrupt, 0o644); err != nil {
				t.Fatal(err)
			}
			srv := startServer(t, cfg)
			info := findSession(t, sessionList(t, srv), "split-done-http")
			if info.State != "failed" || info.Error != recoveredReason || info.Events != 0 || info.Bytes != 0 {
				t.Errorf("recovered %+v, want an interrupted session with no input", info)
			}
			requireCheckpointLog(t, srv.store.path("split-done-http"), recFail)
		})
	}
}

// TestHTTPLogRecoversEveryCut: an HTTP session's live log, in every
// body format and read size, cut after any number of its recBody
// records, recovers to the reference report over the events the kept
// bytes decode to, and reports the kept bytes as the session's bytes.
func TestHTTPLogRecoversEveryCut(t *testing.T) {
	cfg := durableConfig(t)
	cfg.Fsync = wal.SyncPolicy{Mode: wal.SyncNever}
	cfg.MaxSessions = 128 // every cut stays listed
	events := traceEvents(t, kernelTrace(t, "fsm", "train", false))
	ctxEvents := slices.Clone(events)
	for i := range ctxEvents {
		ctxEvents[i].Ctx = trace.Context(i / 3000 % 3)
	}
	var btr2, btr2Deflate, btr3 bytes.Buffer
	for _, enc := range []struct {
		buf      *bytes.Buffer
		compress bool
	}{{&btr2, false}, {&btr2Deflate, true}} {
		w, err := trace.NewBTR2Writer(enc.buf, trace.BTR2Options{ChunkEvents: 5000, Compress: enc.compress})
		if err != nil {
			t.Fatal(err)
		}
		w.BranchBatch(events)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	w3, err := trace.NewBTR3Writer(&btr3, trace.BTR2Options{ChunkEvents: 5000})
	if err != nil {
		t.Fatal(err)
	}
	w3.BranchBatch(ctxEvents)
	if err := w3.Close(); err != nil {
		t.Fatal(err)
	}
	bodies := []struct {
		name string
		raw  []byte
	}{
		{"btr1", kernelTrace(t, "fsm", "train", false)},
		{"btr1-gzip", kernelTrace(t, "fsm", "train", true)},
		{"btr2", btr2.Bytes()},
		{"btr2-deflate", btr2Deflate.Bytes()},
		{"btr3", btr3.Bytes()},
	}

	st, err := openStore(cfg.DataDir, cfg.Fsync, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	type cut struct {
		id   string
		kept []byte
	}
	var cuts []cut
	for _, body := range bodies {
		for _, size := range []int{997, 8 << 10, ingestBodyBuffer} {
			var reads [][]byte
			for off := 0; off < len(body.raw); off += size {
				reads = append(reads, body.raw[off:min(off+size, len(body.raw))])
			}
			n := len(reads)
			ks := []int{0, 1, n / 3, n / 2, n - 1, n}
			slices.Sort(ks)
			for _, k := range slices.Compact(ks) {
				c := cut{id: fmt.Sprintf("%s-%d-%d", body.name, size, k)}
				plog, err := st.Create(sessionMeta{ID: c.id, Profile: cfg.Profile, Predictor: cfg.Predictor})
				if err != nil {
					t.Fatal(err)
				}
				for _, read := range reads[:k] {
					c.kept = append(c.kept, read...)
					if err := plog.append(recBody, read); err != nil {
						t.Fatal(err)
					}
				}
				plog.abandon()
				cuts = append(cuts, c)
			}
		}
	}

	t.Logf("%d cut logs", len(cuts))
	srv := startServer(t, cfg)
	infos := sessionList(t, srv)
	for _, c := range cuts {
		prefix := decodePrefix(t, c.kept)
		stream := events
		if strings.HasPrefix(c.id, "btr3") {
			stream = ctxEvents
		}
		requirePrefix(t, prefix, stream)
		info := findSession(t, infos, c.id)
		if info.State != "failed" || info.Events != int64(len(prefix)) || info.Bytes != int64(len(c.kept)) {
			t.Errorf("%s: recovered %s with %d events and %d bytes, want failed with %d and %d",
				c.id, info.State, info.Events, info.Bytes, len(prefix), len(c.kept))
		}
		code, got := get(t, srv, "/v1/report?session="+c.id)
		if code != 200 {
			t.Fatalf("%s: report: %d: %s", c.id, code, got)
		}
		if want := referenceReport(t, cfg, prefix); !bytes.Equal(got, want) {
			t.Errorf("%s: recovered report differs from an offline run over the %d events of the %d kept bytes",
				c.id, len(prefix), len(c.kept))
		}
		requireCheckpointLog(t, st.path(c.id), recFail)
	}
}

// TestIdleEvictionAndReload: the janitor demotes an unqueried finished
// session to the idle tier (report released), and the next query
// reloads it byte-identically from the checkpoint.
func TestIdleEvictionAndReload(t *testing.T) {
	cfg := durableConfig(t)
	cfg.IdleAfter = 30 * time.Millisecond
	srv := startServer(t, cfg)

	raw := kernelTrace(t, "fsm", "train", false)
	if code, body := postTrace(t, srv, "/v1/ingest?session=sleepy&kernel=fsm", raw); code != 200 {
		t.Fatalf("ingest: %d: %s", code, body)
	}
	_, want := get(t, srv, "/v1/report?session=sleepy")
	_, wantSnap := get(t, srv, "/v1/snapshot?session=sleepy")

	waitIdle := func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if findSession(t, sessionList(t, srv), "sleepy").Tier == "idle" {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("janitor never idled the session")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitIdle()

	code, got := get(t, srv, "/v1/report?session=sleepy")
	if code != 200 {
		t.Fatalf("report after idle eviction: %d: %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Error("report reloaded from the idle tier is not byte-identical")
	}
	if tier := findSession(t, sessionList(t, srv), "sleepy").Tier; tier != "hot" {
		t.Errorf("tier after reload = %q, want hot", tier)
	}

	// A snapshot read reloads the checkpoint just the same.
	waitIdle()
	code, got = get(t, srv, "/v1/snapshot?session=sleepy")
	if code != 200 {
		t.Fatalf("snapshot after idle eviction: %d: %s", code, got)
	}
	if !bytes.Equal(got, wantSnap) {
		t.Error("snapshot reloaded from the idle tier is not byte-identical")
	}
	if tier := findSession(t, sessionList(t, srv), "sleepy").Tier; tier != "hot" {
		t.Errorf("tier after snapshot reload = %q, want hot", tier)
	}
}

// TestLifecycleReadersRace: readers loop Report, Snapshot, Tier and
// /v1/sessions while the owner completes and fails sessions and the
// janitor idles them, so reads race both terminal transitions and
// reloads. A finished session must read back one report, whether its
// checkpoint was resident or reloaded from the log. Not skipped under
// -short: `make race` runs it.
func TestLifecycleReadersRace(t *testing.T) {
	cfg := durableConfig(t)
	cfg.Fsync = wal.SyncPolicy{Mode: wal.SyncNever}
	cfg.IdleAfter = time.Millisecond
	srv := startServer(t, cfg)

	events := traceEvents(t, kernelTrace(t, "fsm", "train", false))
	events = events[:min(len(events), 3*trace.ReadBatchEvents)]
	chunk := chunkBody(t, 0, events)
	const sessions = 6
	runs := make([]*ingestRun, sessions)
	for i := range runs {
		run, ierr := srv.beginSession(wire.BeginParams{ID: fmt.Sprintf("r-%d", i), Kernel: "fsm"})
		if ierr != nil {
			t.Fatal(ierr)
		}
		runs[i] = run
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var finals sync.Map // session id → report JSON read after it finished
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, sess := range srv.registry.List() {
					finished := sess.State() != SessionActive
					sess.Tier()
					rep, err := sess.Report()
					if err != nil {
						t.Errorf("session %s: report: %v", sess.ID, err)
						return
					}
					if _, err := sess.Snapshot(); err != nil {
						t.Errorf("session %s: snapshot: %v", sess.ID, err)
						return
					}
					if !finished {
						continue
					}
					got, err := json.Marshal(rep)
					if err != nil {
						t.Error(err)
						return
					}
					if first, loaded := finals.LoadOrStore(sess.ID, got); loaded && !bytes.Equal(first.([]byte), got) {
						t.Errorf("session %s: finished report changed between reads", sess.ID)
					}
				}
				rec := httptest.NewRecorder()
				srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sessions", nil))
				if rec.Code != http.StatusOK {
					t.Errorf("/v1/sessions: %d", rec.Code)
					return
				}
				// Pace the sweeps well past IdleAfter so the janitor gets
				// to idle sessions between them.
				time.Sleep(5 * time.Millisecond)
			}
		}()
	}

	for i, run := range runs {
		for k := 0; k < 3; k++ {
			if err := (&wireSink{run: run}).Events(chunk); err != nil {
				t.Fatal(err)
			}
		}
		if i%2 == 0 {
			if _, err := run.complete(); err != nil {
				t.Fatal(err)
			}
		} else {
			run.fail(errors.New("client hung up"))
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.metrics.SessionsIdled.Load() < 2*sessions {
		if time.Now().After(deadline) {
			t.Errorf("janitor idled %d sessions in 10s, want %d", srv.metrics.SessionsIdled.Load(), 2*sessions)
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	for _, run := range runs {
		if tier := run.session.Tier(); tier != "hot" && tier != "idle" {
			t.Errorf("session %s: tier %q after finishing", run.session.ID, tier)
		}
	}
}

// TestOlderFinishedLogRewrittenOnce: an older daemon's finished log,
// which still holds event records between recBegin and its terminal
// record, is rewritten once at the next start without them — byte for
// byte the corpus's two-record finished log it was built from — and
// still reproduces that log's report; the start after that only reads
// it.
func TestOlderFinishedLogRewrittenOnce(t *testing.T) {
	cfg := durableConfig(t)
	corpusLog := filepath.Join("testdata", "corpus", "done-http")
	finished, err := os.ReadFile(corpusLog + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(corpusLog + ".report.json")
	if err != nil {
		t.Fatal(err)
	}
	recs, repair, err := wal.ReadAll(corpusLog + ".wal")
	if err != nil || repair != nil || len(recs) != 2 {
		t.Fatalf("corpus log: %d records, torn tail %+v, %v; want recBegin + terminal", len(recs), repair, err)
	}

	// Recovery never decodes the event records of a finished log, so
	// the golden ones stand in for the session's.
	events, _ := olderDaemonEventRecords(t)
	logPath := filepath.Join(cfg.DataDir, "done-http.wal")
	if err := wal.Rewrite(logPath, slices.Concat(recs[:1], events, recs[1:])); err != nil {
		t.Fatal(err)
	}
	full, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}

	srv := startServer(t, cfg)
	rewritten, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rewritten, finished) {
		t.Errorf("recovery left a %d-byte log (from %d bytes), want the %d-byte finished log without its event records",
			len(rewritten), full.Size(), len(finished))
	}
	code, got := get(t, srv, "/v1/report?session=done-http")
	if code != 200 {
		t.Fatalf("report from rewritten log: %d: %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Error("rewritten log does not reproduce the original report")
	}
	if err := srv.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}

	// A finished log without event records is only read.
	before, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := startServer(t, cfg)
	after, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) || !after.ModTime().Equal(before.ModTime()) {
		t.Error("a restart rewrote a finished log without event records")
	}
	if code, again := get(t, srv2, "/v1/report?session=done-http"); code != 200 || !bytes.Equal(again, want) {
		t.Errorf("report after the second restart: %d, identical %v", code, bytes.Equal(again, want))
	}
}

// TestFinishedLogIsCheckpoint: a session finished over either ingest
// front, completed or failed, leaves a log of exactly recBegin + its
// checkpoint + its terminal record by the time its summary is returned
// — no event record waits for a later pass.
func TestFinishedLogIsCheckpoint(t *testing.T) {
	cfg := durableConfig(t)
	srv := startWireServer(t, cfg)
	raw := kernelTrace(t, "fsm", "train", false)
	events := traceEvents(t, raw)
	logOf := func(id string) string { return filepath.Join(cfg.DataDir, id+".wal") }

	t.Run("http/complete", func(t *testing.T) {
		if code, body := postTrace(t, srv, "/v1/ingest?session=h-done&kernel=fsm", raw); code != 200 {
			t.Fatalf("ingest: %d: %s", code, body)
		}
		requireCheckpointLog(t, logOf("h-done"), recDone)
	})
	t.Run("http/fail", func(t *testing.T) {
		// A BTR2 body cut inside a later chunk fails after its first
		// chunks were logged.
		var body bytes.Buffer
		w, err := trace.NewBTR2Writer(&body, trace.BTR2Options{ChunkEvents: 1000})
		if err != nil {
			t.Fatal(err)
		}
		w.BranchBatch(events)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if code, resp := postTrace(t, srv, "/v1/ingest?session=h-fail", body.Bytes()[:body.Len()/2]); code != 400 {
			t.Fatalf("ingest of a cut body: %d: %s", code, resp)
		}
		requireCheckpointLog(t, logOf("h-fail"), recFail)
	})
	t.Run("wire/complete", func(t *testing.T) {
		sess, err := dialWire(t, srv).Begin(wire.BeginParams{ID: "w-done"})
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Send(events); err != nil {
			t.Fatal(err)
		}
		if sum, err := sess.End(); err != nil || sum.State != "done" {
			t.Fatalf("end: %+v, %v", sum, err)
		}
		requireCheckpointLog(t, logOf("w-done"), recDone)
	})
	t.Run("wire/fail", func(t *testing.T) {
		sess, err := dialWire(t, srv).Begin(wire.BeginParams{ID: "w-fail"})
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Send(events); err != nil {
			t.Fatal(err)
		}
		// An abort has no reply: the session's state is the signal. The
		// terminal transition holds the session lock until the log is
		// rewritten, so once State reads failed the log is final.
		sess.Abort()
		deadline := time.Now().Add(5 * time.Second)
		for srv.registry.Get("w-fail").State() != SessionFailed {
			if time.Now().After(deadline) {
				t.Fatal("aborted wire session never failed")
			}
			time.Sleep(time.Millisecond)
		}
		requireCheckpointLog(t, logOf("w-fail"), recFail)
	})
}

// TestRecoverRemovesRewriteTemps: a rewrite a crash cut short leaves
// its temp file beside the log; the next start deletes it — and no
// other file — and the log recovers unchanged.
func TestRecoverRemovesRewriteTemps(t *testing.T) {
	cfg := durableConfig(t)
	srv := startServer(t, cfg)
	raw := kernelTrace(t, "fsm", "train", false)
	if code, body := postTrace(t, srv, "/v1/ingest?session=kept&kernel=fsm", raw); code != 200 {
		t.Fatalf("ingest: %d: %s", code, body)
	}
	_, want := get(t, srv, "/v1/report?session=kept")
	if err := srv.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(cfg.DataDir, "kept.wal")
	finished, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// The temp a crashed rewrite leaves holds a half-written log.
	tmp, err := os.CreateTemp(cfg.DataDir, "kept.wal.rewrite-*.tmp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tmp.Write(finished[:len(finished)/2]); err != nil {
		t.Fatal(err)
	}
	tmp.Close()
	if !wal.IsRewriteTemp(filepath.Base(tmp.Name())) {
		t.Fatalf("%s is not named as a rewrite temp", tmp.Name())
	}
	other := filepath.Join(cfg.DataDir, "notes.txt")
	if err := os.WriteFile(other, []byte("not ours"), 0o644); err != nil {
		t.Fatal(err)
	}

	srv2 := startServer(t, cfg)
	if _, err := os.Stat(tmp.Name()); !os.IsNotExist(err) {
		t.Errorf("leftover rewrite temp still on disk (stat: %v)", err)
	}
	if _, err := os.Stat(other); err != nil {
		t.Errorf("a file that is no rewrite temp was touched: %v", err)
	}
	if after, err := os.ReadFile(logPath); err != nil || !bytes.Equal(after, finished) {
		t.Errorf("the log changed at recovery (%v)", err)
	}
	if code, got := get(t, srv2, "/v1/report?session=kept"); code != 200 || !bytes.Equal(got, want) {
		t.Errorf("report after recovery: %d, identical %v", code, bytes.Equal(got, want))
	}
	if n := walErrors(t, srv2); n != 0 {
		t.Errorf("twodprof_wal_errors_total = %d, want 0", n)
	}
}

// TestCapEvictedSessionServedFromDisk: a session the registry's
// retention cap dropped is still served from its on-disk checkpoint —
// the deepest lifecycle tier.
func TestCapEvictedSessionServedFromDisk(t *testing.T) {
	cfg := durableConfig(t)
	cfg.MaxSessions = 1
	srv := startServer(t, cfg)

	raw := kernelTrace(t, "fsm", "train", false)
	if code, body := postTrace(t, srv, "/v1/ingest?session=old&kernel=fsm", raw); code != 200 {
		t.Fatalf("ingest: %d: %s", code, body)
	}
	_, want := get(t, srv, "/v1/report?session=old")
	for i := 0; i < 2; i++ {
		if code, body := postTrace(t, srv, fmt.Sprintf("/v1/ingest?session=new-%d&kernel=fsm", i), raw); code != 200 {
			t.Fatalf("ingest new-%d: %d: %s", i, code, body)
		}
	}
	if srv.registry.Get("old") != nil {
		t.Fatal("session old still in the registry; cap did not evict it")
	}

	code, got := get(t, srv, "/v1/report?session=old")
	if code != 200 {
		t.Fatalf("report for cap-evicted session: %d: %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Error("disk-served report for a cap-evicted session is not byte-identical")
	}
	// And re-registering the evicted id is refused — its log still owns it.
	if code, _ := postTrace(t, srv, "/v1/ingest?session=old", raw); code != 409 {
		t.Errorf("re-ingest of a persisted id: status %d, want 409", code)
	}
}

// TestDurableIngestOversizedChunk: a BTR2 body whose one chunk holds
// more than a million events profiles like an offline run over the
// same events; its live log holds the body as recBody records no
// larger than the body buffer, and a copy of that log, restored as if
// the daemon had died there, recovers to the same report.
func TestDurableIngestOversizedChunk(t *testing.T) {
	if testing.Short() {
		t.Skip("million-event session")
	}
	cfg := durableConfig(t)
	events := make([]trace.Event, 1<<20+1000)
	state := uint64(0x9e3779b97f4a7c15)
	for i := range events {
		state = state*6364136223846793005 + 1442695040888963407
		events[i] = trace.Event{PC: trace.PC(0x400000 + 4*(state>>54)), Taken: state>>40&3 != 0}
	}
	var body bytes.Buffer
	w, err := trace.NewBTR2Writer(&body, trace.BTR2Options{ChunkEvents: len(events)})
	if err != nil {
		t.Fatal(err)
	}
	w.BranchBatch(events)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	srv := startServer(t, cfg)
	live, code := postLive(t, srv, "big", body.Bytes(), 300<<10)
	if code != 200 {
		t.Fatalf("ingest: %d", code)
	}
	_, report := get(t, srv, "/v1/report?session=big")
	if err := srv.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}
	if len(live) < 3 {
		t.Fatalf("a %d-byte body logged as %d records", body.Len(), len(live))
	}
	if err := wal.Rewrite(srv.store.path("big"), live); err != nil {
		t.Fatal(err)
	}

	srv2 := startServer(t, cfg)
	if info := findSession(t, sessionList(t, srv2), "big"); info.Events != int64(len(events)) {
		t.Errorf("recovered %d events, want %d", info.Events, len(events))
	}
	code, got := get(t, srv2, "/v1/report?session=big")
	if code != 200 {
		t.Fatalf("report after recovery: %d: %s", code, got)
	}
	want := referenceReport(t, cfg, events)
	if !bytes.Equal(got, want) {
		t.Error("recovered report differs from an offline run over the same events")
	}
	if !bytes.Equal(report, want) {
		t.Error("live report differs from an offline run over the same events")
	}
}

// TestDurableIngestZeroAlloc extends the engine's zero-alloc contract
// through both durable tees at -fsync never: once warmed up, a wire
// chunk (decode, log append of its body, engine) and an HTTP body read
// (log append) allocate nothing.
func TestDurableIngestZeroAlloc(t *testing.T) {
	cfg := durableConfig(t)
	cfg.Fsync = wal.SyncPolicy{Mode: wal.SyncNever}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	events := make([]trace.Event, trace.ReadBatchEvents)
	for i := range events {
		events[i] = trace.Event{PC: trace.PC(0x400000 + 4*(i*7%61)), Taken: i%3 != 0}
	}

	run, ierr := srv.beginSession(wire.BeginParams{ID: "alloc-wire"})
	if ierr != nil {
		t.Fatal(ierr)
	}
	sink := &wireSink{run: run}
	chunk := chunkBody(t, 0, events)
	apply := func() {
		if err := sink.Events(chunk); err != nil {
			t.Fatal(err)
		}
	}
	apply() // warm-up: session setup is where allocation is allowed
	if allocs := testing.AllocsPerRun(20, apply); allocs != 0 {
		t.Fatalf("steady-state durable wire ingest: %v allocs/chunk, want 0", allocs)
	}
	if _, err := sink.End(); err != nil {
		t.Fatal(err)
	}

	run, ierr = srv.beginSession(wire.BeginParams{ID: "alloc-http"})
	if ierr != nil {
		t.Fatal(ierr)
	}
	walBefore := srv.metrics.WALBytes.Load()
	body := &bodyReader{
		r:       repeatReader(kernelTrace(t, "fsm", "train", false)[:32<<10]),
		session: run.session,
		metrics: srv.metrics,
		log:     run.session.plog,
	}
	buf := make([]byte, ingestBodyBuffer)
	reads := 0
	read := func() {
		if n, err := body.Read(buf); n != 32<<10 || err != nil {
			t.Fatalf("body read = %d, %v", n, err)
		}
		reads++
	}
	read()
	if allocs := testing.AllocsPerRun(20, read); allocs != 0 {
		t.Fatalf("steady-state durable body read: %v allocs/read, want 0", allocs)
	}
	if got, want := srv.metrics.WALBytes.Load()-walBefore, int64(reads*(32<<10+9)); got != want {
		t.Fatalf("%d body reads logged %d bytes, want %d", reads, got, want)
	}
	if _, err := run.complete(); err != nil {
		t.Fatal(err)
	}
}

// repeatReader serves its bytes on every read, forever.
type repeatReader []byte

func (r repeatReader) Read(p []byte) (int, error) { return copy(p, r), nil }

// chunkBody is the wire chunk body a client sends for events of one
// context: uvarint count, context and base PC, then the BTR2 deltas.
func chunkBody(t testing.TB, ctx trace.Context, events []trace.Event) []byte {
	t.Helper()
	b := binary.AppendUvarint(nil, uint64(len(events)))
	b = binary.AppendUvarint(b, uint64(ctx))
	b = binary.AppendUvarint(b, uint64(events[0].PC))
	b, err := trace.AppendEventDeltas(b, events[0].PC, events)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLiveLogIsTheInput: while a durable session streams, its log is
// recBegin followed by exactly what the client sent — the HTTP body
// bytes read so far, in order, or the wire chunk bodies, in order.
func TestLiveLogIsTheInput(t *testing.T) {
	cfg := durableConfig(t)
	srv := startWireServer(t, cfg)
	raw := kernelTrace(t, "fsm", "train", true)
	events := traceEvents(t, raw)

	t.Run("http", func(t *testing.T) {
		if _, code := postLive(t, srv, "live-http", raw, 4093); code != 200 {
			t.Fatalf("ingest: %d", code)
		}
		requireCheckpointLog(t, srv.store.path("live-http"), recDone)
	})

	t.Run("wire", func(t *testing.T) {
		sess, err := dialWire(t, srv).Begin(wire.BeginParams{ID: "live-wire"})
		if err != nil {
			t.Fatal(err)
		}
		var sent []byte
		for off := 0; off < len(events); off += 3000 {
			piece := events[off:min(off+3000, len(events))]
			if err := sess.Send(piece); err != nil {
				t.Fatal(err)
			}
			sent = append(sent, chunkBody(t, 0, piece)...)
			recs := awaitLiveInput(t, srv.store.path("live-wire"), recChunk, sent, 1<<20)
			if len(recs) != 1+(off/3000+1) {
				t.Fatalf("%d chunks sent, live log holds %d chunk records", off/3000+1, len(recs)-1)
			}
		}
		if sum, err := sess.End(); err != nil || sum.State != "done" {
			t.Fatalf("end: %+v, %v", sum, err)
		}
		requireCheckpointLog(t, srv.store.path("live-wire"), recDone)
	})
}

// walErrors reads twodprof_wal_errors_total from /metrics.
func walErrors(t testing.TB, srv *Server) int64 {
	t.Helper()
	return metric(t, srv, "twodprof_wal_errors_total")
}

// metric reads one counter from /metrics.
func metric(t testing.TB, srv *Server, name string) int64 {
	t.Helper()
	_, body := get(t, srv, "/metrics")
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			var n int64
			if _, err := fmt.Sscan(v, &n); err != nil {
				t.Fatalf("metrics line %q: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("/metrics has no %s:\n%s", name, body)
	return 0
}

// TestPersistenceErrorsCounted: persistence failures the daemon
// survives are counted in /metrics, not only printed to stderr.
func TestPersistenceErrorsCounted(t *testing.T) {
	t.Run("unrecoverable-log", func(t *testing.T) {
		cfg := durableConfig(t)
		if err := os.WriteFile(filepath.Join(cfg.DataDir, "garbage.wal"), []byte("not a session log"), 0o644); err != nil {
			t.Fatal(err)
		}
		srv := startServer(t, cfg)
		if n := walErrors(t, srv); n != 1 {
			t.Fatalf("twodprof_wal_errors_total = %d after skipping one unrecoverable log, want 1", n)
		}
		if _, err := os.Stat(filepath.Join(cfg.DataDir, "garbage.wal")); err != nil {
			t.Fatalf("the skipped log must stay on disk: %v", err)
		}
	})
	t.Run("private-multi-context-checkpoint", func(t *testing.T) {
		// A private session that carried two contexts has no merged
		// snapshot (engine.ErrMultiContext), so its checkpoint fails.
		srv := startServer(t, durableConfig(t))
		var buf bytes.Buffer
		w, err := trace.NewBTR3Writer(&buf, trace.BTR2Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5000; i++ {
			w.BranchCtx(trace.Context(i%2), trace.PC(0x400000+4*(i%13)), i%3 == 0)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		postTrace(t, srv, "/v1/ingest?session=mt&agg=private", buf.Bytes())
		if n := walErrors(t, srv); n != 1 {
			t.Fatalf("twodprof_wal_errors_total = %d after one failed checkpoint, want 1", n)
		}
	})
}
