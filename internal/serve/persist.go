package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"twodprof/internal/core"
	"twodprof/internal/engine"
	"twodprof/internal/trace"
	"twodprof/internal/wal"
)

// Durable sessions (DESIGN.md §3f). Every session owns one write-ahead
// log under the daemon's data directory:
//
//	<data-dir>/<escaped-session-id>.wal
//
// The record schema on top of package wal's framing:
//
//	recBegin   JSON sessionMeta — resolved profiling config, predictor,
//	           aggregation mode and (optional) kernel name. Always first.
//	recEvents  wal.EncodeEvents batch, appended ahead of the in-memory
//	           engine in exact stream order (a decoded batch larger than
//	           wal.MaxEventsPerRecord spans several records). Batches
//	           carrying execution contexts use recEventsCtx
//	           (wal.EncodeEventsCtx) instead; logs from before contexts
//	           existed contain only recEvents and replay as context 0
//	           unchanged.
//	recDone /  JSON terminalRecord — the merged engine snapshot
//	recFail    (core.Snapshot) plus event/byte totals (and the failure
//	           reason for recFail). Always last; nothing follows it.
//
// Invariants:
//
//   - A live log is recBegin plus event records, no terminal. The WAL
//     keeps raw events while a session streams because a mid-stream
//     snapshot cannot rebuild the run (snapshots drop in-flight slice
//     counters by design, and predictor state is not serialisable).
//   - A finished log is exactly recBegin + terminal: at the terminal
//     transition the live log is closed and atomically rewritten to
//     the two records (wal.Rewrite), so the event records are gone by
//     the time the session's summary is returned. Its report derives
//     from the checkpoint snapshot alone ((*core.Snapshot).Report is
//     exactly the assembly path engine.Finish uses, so the recovered
//     report is byte-identical to the uninterrupted one).
//   - Recovery ends every other log the same way. A log without a
//     terminal record is a session that was streaming when the daemon
//     died: its event records are replayed through a fresh engine
//     built from recBegin, which reconstructs predictor state and
//     in-slice counters exactly, and the log is rewritten to recBegin
//     plus recFail. A finished log that still holds event records
//     (written by an older daemon) or a torn tail is rewritten once to
//     recBegin plus its terminal record. A log that already is
//     recBegin + terminal is only read.
type sessionMeta struct {
	ID        string      `json:"id"`
	Group     string      `json:"group,omitempty"`
	Profile   core.Config `json:"profile"`
	Predictor string      `json:"predictor,omitempty"`
	// Aggregation is the context-aggregation mode ("shared"/"private");
	// logs written before contexts existed omit it and replay as shared.
	Aggregation string `json:"aggregation,omitempty"`
	Kernel      string `json:"kernel,omitempty"`
}

// terminalRecord fixes a finished session's outcome in its log.
type terminalRecord struct {
	Reason   string         `json:"reason,omitempty"` // set for recFail
	Events   int64          `json:"events"`
	Bytes    int64          `json:"bytes"`
	Snapshot *core.Snapshot `json:"snapshot"`
}

// WAL record types of the session schema.
const (
	recBegin  byte = 1
	recEvents byte = 2
	recDone   byte = 3
	recFail   byte = 4
	// recEventsCtx is an event batch carrying execution contexts
	// (wal.EncodeEventsCtx). Written only when a batch actually has a
	// non-zero context, so single-context sessions — and every log
	// written before contexts existed — keep the plain recEvents bytes.
	recEventsCtx byte = 5
)

// recoveredReason is the failure reason stamped on sessions that were
// mid-stream when the daemon died.
const recoveredReason = "stream interrupted by daemon restart (state recovered from WAL)"

// Store owns the daemon's data directory: session log naming, creation,
// recovery and checkpoint reload.
type Store struct {
	dir     string
	policy  wal.SyncPolicy
	metrics *Metrics
}

// openStore validates the policy and ensures the directory exists.
func openStore(dir string, policy wal.SyncPolicy, m *Metrics) (*Store, error) {
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: creating data dir: %w", err)
	}
	return &Store{dir: dir, policy: policy, metrics: m}, nil
}

// escapeID maps a session id to a safe filename component: ASCII
// letters, digits, '-', '_' and '.' pass through, everything else
// (including '%' itself and path separators) becomes %XX.
func escapeID(id string) string {
	var b strings.Builder
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	return b.String()
}

func (st *Store) path(id string) string {
	return filepath.Join(st.dir, escapeID(id)+".wal")
}

// Exists reports whether a session log for id is on disk. The registry
// consults it through Registry.Reserved, so neither generated nor
// user-supplied ids can collide with persisted sessions that are no
// longer (or not yet) in memory.
func (st *Store) Exists(id string) bool {
	_, err := os.Stat(st.path(id))
	return err == nil
}

// Create opens a fresh log for an active session and writes its
// recBegin metadata.
func (st *Store) Create(meta sessionMeta) (*sessionLog, error) {
	l, err := wal.Create(st.path(meta.ID), st.policy)
	if err != nil {
		return nil, err
	}
	payload, err := json.Marshal(meta)
	if err != nil {
		l.Close()
		return nil, err
	}
	sl := &sessionLog{st: st, id: meta.ID, l: l, begin: payload}
	if err := sl.append(recBegin, payload); err != nil {
		l.Close()
		os.Remove(st.path(meta.ID))
		return nil, err
	}
	return sl, nil
}

// sessionLog is one active session's WAL handle.
type sessionLog struct {
	st     *Store
	id     string
	l      *wal.Log
	begin  []byte         // the recBegin payload, which the finished log keeps
	encBuf []byte         // event-codec scratch, reused across batches
	span   trace.SoABatch // record-sized piece of an oversized batch
}

func (sl *sessionLog) append(typ byte, payload []byte) error {
	if err := sl.l.Append(typ, payload); err != nil {
		return err
	}
	sl.st.metrics.WALBytes.Add(int64(len(payload)) + 9)
	return nil
}

// appendEvents logs one decoded batch, picking the context-carrying
// record type only when some event needs it. A batch larger than
// wal.MaxEventsPerRecord (a big BTR2 chunk) is logged as several
// records, in order.
func (sl *sessionLog) appendEvents(b *trace.SoABatch) error {
	if n := b.Len(); n > wal.MaxEventsPerRecord {
		for i := 0; i < n; i += wal.MaxEventsPerRecord {
			b.Span(&sl.span, i, min(i+wal.MaxEventsPerRecord, n))
			if err := sl.appendEvents(&sl.span); err != nil {
				return err
			}
		}
		return nil
	}
	if b.Len() == 0 {
		return nil
	}
	typ := recEvents
	for _, ctx := range b.Ctxs {
		if ctx != 0 {
			typ = recEventsCtx
			break
		}
	}
	if typ == recEventsCtx {
		sl.encBuf = wal.EncodeEventsCtx(sl.encBuf[:0], b)
	} else {
		sl.encBuf = wal.EncodeEvents(sl.encBuf[:0], b)
	}
	return sl.append(typ, sl.encBuf)
}

// finish ends the log with the session's terminal record: it closes
// the live log (flush and fsync, so a crash before the rewrite still
// finds every event) and replaces it with recBegin + terminal. The
// rewrite is fsynced whatever the policy — a finished session's
// checkpoint must not sit in an OS buffer.
func (sl *sessionLog) finish(typ byte, term terminalRecord) error {
	if err := sl.l.Close(); err != nil {
		return err
	}
	payload, err := json.Marshal(term)
	if err != nil {
		return err
	}
	if err := checkpointLog(sl.st.path(sl.id), sl.begin, typ, payload); err != nil {
		return err
	}
	sl.st.metrics.WALBytes.Add(int64(len(payload)) + 9)
	return nil
}

// abandon closes the log without a terminal record (the next daemon
// start will recover it as an interrupted session).
func (sl *sessionLog) abandon() { _ = sl.l.Close() }

// checkpointLog atomically replaces the log at path with its recBegin
// payload plus one terminal record — the whole of a finished log.
func checkpointLog(path string, begin []byte, typ byte, term []byte) error {
	return wal.Rewrite(path, []wal.Record{
		{Type: recBegin, Payload: begin},
		{Type: typ, Payload: term},
	})
}

// parseLog splits a scanned record list into meta, event records and
// the terminal record (nil when the session was mid-stream).
func parseLog(recs []wal.Record) (meta sessionMeta, events []wal.Record, term *terminalRecord, termType byte, err error) {
	if len(recs) == 0 || recs[0].Type != recBegin {
		return meta, nil, nil, 0, fmt.Errorf("log does not start with a begin record")
	}
	if err := json.Unmarshal(recs[0].Payload, &meta); err != nil {
		return meta, nil, nil, 0, fmt.Errorf("decoding session meta: %w", err)
	}
	for _, rec := range recs[1:] {
		switch rec.Type {
		case recEvents, recEventsCtx:
			if term != nil {
				return meta, nil, nil, 0, fmt.Errorf("event record after terminal record")
			}
			events = append(events, rec)
		case recDone, recFail:
			if term != nil {
				return meta, nil, nil, 0, fmt.Errorf("duplicate terminal record")
			}
			var t terminalRecord
			if err := json.Unmarshal(rec.Payload, &t); err != nil {
				return meta, nil, nil, 0, fmt.Errorf("decoding terminal record: %w", err)
			}
			term, termType = &t, rec.Type
		default:
			return meta, nil, nil, 0, fmt.Errorf("unknown record type %d", rec.Type)
		}
	}
	return meta, events, term, termType, nil
}

// loadCheckpoint reads a finished session's checkpoint back from its
// log: the terminal snapshot plus the static prefilter column of the
// logged kernel. It is the read path of idle sessions and of sessions
// the registry's retention cap dropped; the report assembled from it
// reproduces the original engine report byte for byte.
func (st *Store) loadCheckpoint(id string) (*core.Snapshot, map[trace.PC]string, error) {
	recs, _, err := wal.ReadAll(st.path(id))
	if err != nil {
		return nil, nil, err
	}
	meta, _, term, _, err := parseLog(recs)
	if err != nil {
		return nil, nil, err
	}
	if term == nil || term.Snapshot == nil {
		return nil, nil, fmt.Errorf("session %s has no checkpoint record", id)
	}
	// A kernel name no longer bundled leaves the report unannotated.
	static, _ := staticColumn(meta.Kernel)
	return term.Snapshot, static, nil
}

// recoveredInfo pairs a rebuilt session with its repair diagnostics.
type recoveredInfo struct {
	session  *Session
	repaired bool
}

// Recover scans the data directory and rebuilds every logged session.
// Every session comes back idle (metadata only — no checkpoint
// resident) with its log ended as recBegin + terminal: sessions that
// were mid-stream are replayed through a fresh engine and checkpointed
// with a recFail record. Unreadable logs are skipped with a
// diagnostic, never deleted; the temp files of rewrites a crash cut
// short are deleted.
func (st *Store) Recover() ([]recoveredInfo, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("serve: reading data dir: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		switch {
		case e.IsDir():
		case strings.HasSuffix(e.Name(), ".wal"):
			names = append(names, e.Name())
		case wal.IsRewriteTemp(e.Name()):
			if err := os.Remove(filepath.Join(st.dir, e.Name())); err != nil {
				fmt.Fprintf(os.Stderr, "serve: removing leftover rewrite temp: %v\n", err)
			}
		}
	}
	sort.Strings(names)

	var out []recoveredInfo
	for _, name := range names {
		info, err := st.recoverOne(filepath.Join(st.dir, name))
		if err != nil {
			st.metrics.WALErrors.Add(1)
			fmt.Fprintf(os.Stderr, "serve: skipping unrecoverable log %s: %v\n", name, err)
			continue
		}
		out = append(out, info)
	}
	return out, nil
}

// recoverOne rebuilds a single session from its log, rewriting the log
// to recBegin + terminal unless it already is exactly that.
func (st *Store) recoverOne(path string) (recoveredInfo, error) {
	recs, repair, err := wal.ReadAll(path)
	if err != nil {
		return recoveredInfo{}, err
	}
	meta, events, term, termType, err := parseLog(recs)
	if err != nil {
		return recoveredInfo{}, err
	}
	if repair != nil {
		fmt.Fprintf(os.Stderr, "serve: repairing %s: dropping %d-byte torn tail (%s)\n",
			filepath.Base(path), repair.DroppedBytes, repair.Reason)
	}

	var payload []byte
	if term == nil {
		// Mid-stream at the crash: replay the logged events through a
		// fresh engine. The replay rebuilds predictor and slice state
		// exactly, so the resulting report matches an uninterrupted run
		// over the same durable prefix byte for byte.
		replayed, snap, err := st.replay(meta, events)
		if err != nil {
			return recoveredInfo{}, err
		}
		term = &terminalRecord{Reason: recoveredReason, Events: replayed, Snapshot: snap}
		termType = recFail
		if payload, err = json.Marshal(term); err != nil {
			return recoveredInfo{}, err
		}
	} else if len(events) > 0 || repair != nil {
		// Finished, but an older daemon kept the event records (or the
		// tail is torn): keep the terminal record's bytes as they are.
		payload = recs[len(recs)-1].Payload
	}
	if payload != nil {
		if err := checkpointLog(path, recs[0].Payload, termType, payload); err != nil {
			return recoveredInfo{}, err
		}
	}

	// Recovered sessions start on the idle tier: the checkpoint stays
	// in the log until the first read.
	s := &Session{
		ID:        meta.ID,
		Group:     meta.Group,
		store:     st,
		recovered: true,
		persisted: true,
		lastTouch: time.Now(),
		state:     SessionDone,
	}
	if termType == recFail {
		s.state, s.reason = SessionFailed, term.Reason
	}
	s.events.Store(term.Events)
	s.bytes.Store(term.Bytes)
	return recoveredInfo{session: s, repaired: repair != nil}, nil
}

// replay feeds logged event records through a fresh engine and returns
// the replayed event count plus the finished engine's snapshot.
// The static column is not part of a snapshot, so the engine is built
// without it.
func (st *Store) replay(meta sessionMeta, events []wal.Record) (int64, *core.Snapshot, error) {
	var agg engine.AggMode
	if meta.Aggregation != "" {
		var err error
		if agg, err = engine.ParseAggMode(meta.Aggregation); err != nil {
			return 0, nil, fmt.Errorf("session log metadata: %w", err)
		}
	}
	eng, err := engine.New(meta.Profile, engine.Options{
		Predictor:   meta.Predictor,
		Aggregation: agg,
	})
	if err != nil {
		return 0, nil, fmt.Errorf("rebuilding engine: %w", err)
	}
	var (
		replayed int64
		batch    trace.SoABatch
	)
	for _, rec := range events {
		if rec.Type == recEventsCtx {
			err = wal.DecodeEventsCtx(&batch, rec.Payload)
		} else {
			err = wal.DecodeEvents(&batch, rec.Payload)
		}
		if err != nil {
			eng.Abort()
			return 0, nil, fmt.Errorf("decoding event record: %w", err)
		}
		eng.BranchBatchSoA(&batch)
		replayed += int64(batch.Len())
	}
	// Finish, not Abort: the durable prefix is treated as a complete
	// run, applying the same trailing-partial-slice rule an
	// uninterrupted ingest would.
	if _, err := eng.Finish(); err != nil {
		return 0, nil, err
	}
	snap, err := eng.Snapshot()
	if err != nil {
		return 0, nil, err
	}
	return replayed, snap, nil
}
