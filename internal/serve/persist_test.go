package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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
// plus one terminal record of type typ, with no torn tail, and returns
// its records.
func requireCheckpointLog(t testing.TB, path string, typ byte) []wal.Record {
	t.Helper()
	recs, repair, err := wal.ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if repair != nil || len(recs) != 2 || recs[0].Type != recBegin || recs[1].Type != typ {
		last := byte(0)
		if len(recs) > 0 {
			last = recs[len(recs)-1].Type
		}
		t.Fatalf("%s: %d records ending in type %d (torn tail %+v), want exactly recBegin + type %d",
			filepath.Base(path), len(recs), last, repair, typ)
	}
	return recs
}

// requireCheckpointDir fails unless every log in dir is recBegin plus
// a terminal record.
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
// engine at startup; the recovered report is byte-identical to an
// offline profiler run over the same durable prefix, and the log is
// rewritten to recBegin + recFail, so the next restart only reads it.
func TestMidStreamRecovery(t *testing.T) {
	cfg := durableConfig(t)
	raw := kernelTrace(t, "typesum", "train", false)
	events := traceEvents(t, raw)
	prefix := events[:len(events)/2]

	// Craft the interrupted log by hand: begin + event batches, no
	// terminal record, then a torn frame on the tail.
	st, err := openStore(cfg.DataDir, cfg.Fsync, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	// The begin record is an older daemon's: it still carries the
	// session's shards parameter, which recovery must ignore.
	meta, err := json.Marshal(sessionMeta{ID: "interrupted", Profile: cfg.Profile, Predictor: cfg.Predictor})
	if err != nil {
		t.Fatal(err)
	}
	meta = append(meta[:len(meta)-1], `,"shards":4}`...)
	l, err := wal.Create(st.path("interrupted"), st.policy)
	if err != nil {
		t.Fatal(err)
	}
	plog := &sessionLog{st: st, id: "interrupted", l: l}
	if err := plog.append(recBegin, meta); err != nil {
		t.Fatal(err)
	}
	var b trace.SoABatch
	for off := 0; off < len(prefix); off += 512 {
		b.FromEvents(prefix[off:min(off+512, len(prefix))])
		if err := plog.appendEvents(&b); err != nil {
			t.Fatal(err)
		}
	}
	plog.abandon()
	f, err := os.OpenFile(st.path("interrupted"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xDE, 0xAD}); err != nil {
		t.Fatal(err)
	}
	f.Close()

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
	// recFail, so a second recovery serves the same bytes without replay.
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
	var batch trace.SoABatch
	batch.FromEvents(events[:min(len(events), 3*trace.ReadBatchEvents)])
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
			if err := run.events(&batch); err != nil {
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

// TestCompactionShrinksLog: an older daemon's finished log, which still
// holds every event record ahead of its terminal record, is rewritten
// once at the next start to recBegin + terminal — byte for byte the log
// this daemon leaves — and still reproduces the original report; the
// start after that only reads it.
func TestCompactionShrinksLog(t *testing.T) {
	cfg := durableConfig(t)
	srv := startServer(t, cfg)

	raw := kernelTrace(t, "fsm", "train", false)
	if code, body := postTrace(t, srv, "/v1/ingest?session=fat&kernel=fsm", raw); code != 200 {
		t.Fatalf("ingest: %d: %s", code, body)
	}
	_, want := get(t, srv, "/v1/report?session=fat")
	if err := srv.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(cfg.DataDir, "fat.wal")
	recs := requireCheckpointLog(t, logPath, recDone)
	finished, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}

	// Rebuild the log an older daemon would have left: the session's
	// event records between recBegin and the terminal record.
	oldLog := []wal.Record{recs[0]}
	events := traceEvents(t, raw)
	var b trace.SoABatch
	for off := 0; off < len(events); off += trace.ReadBatchEvents {
		b.FromEvents(events[off:min(off+trace.ReadBatchEvents, len(events))])
		oldLog = append(oldLog, wal.Record{Type: recEvents, Payload: wal.EncodeEvents(nil, &b)})
	}
	oldLog = append(oldLog, recs[1])
	if err := wal.Rewrite(logPath, oldLog); err != nil {
		t.Fatal(err)
	}
	full, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}

	srv2 := startServer(t, cfg)
	rewritten, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rewritten, finished) {
		t.Errorf("recovery left a %d-byte log (from %d bytes), want the %d-byte log a finished session leaves",
			len(rewritten), full.Size(), len(finished))
	}
	code, got := get(t, srv2, "/v1/report?session=fat")
	if code != 200 {
		t.Fatalf("report from rewritten log: %d: %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Error("rewritten log does not reproduce the original report")
	}
	if err := srv2.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}

	// A log that already is recBegin + terminal is only read.
	before, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	srv3 := startServer(t, cfg)
	after, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) || !after.ModTime().Equal(before.ModTime()) {
		t.Error("a restart rewrote a log that already was recBegin + checkpoint")
	}
	if code, again := get(t, srv3, "/v1/report?session=fat"); code != 200 || !bytes.Equal(again, want) {
		t.Errorf("report after the second restart: %d, identical %v", code, bytes.Equal(again, want))
	}
}

// TestFinishedLogIsCheckpoint: a session finished over either ingest
// front, completed or failed, leaves a log of exactly recBegin + its
// terminal record by the time its summary is returned — no event
// record waits for a later pass.
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
// more events than a WAL record may carry profiles like an offline run
// over the same events, and the decoded batch is logged as several
// event records, from which a session interrupted right after logging
// the chunk recovers to the same report.
func TestDurableIngestOversizedChunk(t *testing.T) {
	if testing.Short() {
		t.Skip("million-event session")
	}
	cfg := durableConfig(t)
	cfg.Fsync = wal.SyncPolicy{Mode: wal.SyncNever}
	events := make([]trace.Event, wal.MaxEventsPerRecord+1000)
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
	if code, resp := postTrace(t, srv, "/v1/ingest?session=big", body.Bytes()); code != 200 {
		t.Fatalf("ingest: %d: %s", code, resp)
	}
	_, live := get(t, srv, "/v1/report?session=big")

	// The live log of a session fed the same batch, abandoned as if the
	// daemon died right after logging it.
	plog, err := srv.store.Create(sessionMeta{ID: "cut", Profile: cfg.Profile, Predictor: cfg.Predictor})
	if err != nil {
		t.Fatal(err)
	}
	var b trace.SoABatch
	b.FromEvents(events)
	if err := plog.appendEvents(&b); err != nil {
		t.Fatal(err)
	}
	plog.abandon()
	if err := srv.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}
	recs, _, err := wal.ReadAll(filepath.Join(cfg.DataDir, "cut.wal"))
	if err != nil {
		t.Fatal(err)
	}
	var eventRecs int
	for _, rec := range recs {
		if rec.Type == recEvents {
			eventRecs++
		}
	}
	if eventRecs != 2 {
		t.Fatalf("batch of %d events logged as %d event records, want 2", len(events), eventRecs)
	}

	srv2 := startServer(t, cfg)
	if info := findSession(t, sessionList(t, srv2), "cut"); info.Events != int64(len(events)) {
		t.Errorf("recovered %d events, want %d", info.Events, len(events))
	}
	code, got := get(t, srv2, "/v1/report?session=cut")
	if code != 200 {
		t.Fatalf("report after recovery: %d: %s", code, got)
	}
	want := referenceReport(t, cfg, events)
	if !bytes.Equal(got, want) {
		t.Error("recovered report differs from an offline run over the same events")
	}
	if !bytes.Equal(live, want) {
		t.Error("live report differs from an offline run over the same events")
	}
}

// TestDurableIngestZeroAlloc extends the engine's zero-alloc contract
// through the durable tee: once warmed up, applying a decoded batch to
// a durable session at -fsync never — WAL encode, append,
// engine — allocates nothing.
func TestDurableIngestZeroAlloc(t *testing.T) {
	cfg := durableConfig(t)
	cfg.Fsync = wal.SyncPolicy{Mode: wal.SyncNever}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run, ierr := srv.beginSession(wire.BeginParams{ID: "alloc"})
	if ierr != nil {
		t.Fatal(ierr)
	}
	events := make([]trace.Event, trace.ReadBatchEvents)
	for i := range events {
		events[i] = trace.Event{PC: trace.PC(0x400000 + 4*(i*7%61)), Taken: i%3 != 0}
	}
	var b trace.SoABatch
	b.FromEvents(events)
	apply := func() {
		if err := run.events(&b); err != nil {
			t.Fatal(err)
		}
	}
	apply() // warm-up: session setup is where allocation is allowed
	if allocs := testing.AllocsPerRun(20, apply); allocs != 0 {
		t.Fatalf("steady-state durable ingest: %v allocs/batch, want 0", allocs)
	}
	if _, err := run.complete(); err != nil {
		t.Fatal(err)
	}
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
