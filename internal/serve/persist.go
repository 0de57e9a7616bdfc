package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"twodprof/internal/asmcheck"
	"twodprof/internal/core"
	"twodprof/internal/engine"
	"twodprof/internal/progs"
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
//	           shards parameter and (optional) kernel name. Always first.
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
// Recovery invariants:
//
//   - A log ending in recDone/recFail is a finished session; its report
//     derives from the checkpoint snapshot alone ((*core.Snapshot).
//     Report is exactly the assembly path engine.Finish uses, so the
//     recovered report is byte-identical to the uninterrupted one).
//   - A log without a terminal record is a session that was streaming
//     when the daemon died. Recovery replays its event records through
//     a fresh engine built from recBegin — front-end predictor state
//     and in-slice counters are reconstructed by the replay itself,
//     which is why the WAL keeps raw events while a session is live: a
//     mid-stream snapshot cannot capture either (snapshots drop
//     in-flight slice counters by design, and predictor state is not
//     serialisable), so checkpointing an active accuracy-metric
//     session would break byte-identity.
//   - Compaction therefore only rewrites *finished* logs: once the
//     terminal snapshot is durable the event records are redundant and
//     the log collapses to recBegin + terminal via an atomic
//     write-temp/rename.
type sessionMeta struct {
	ID        string      `json:"id"`
	Group     string      `json:"group,omitempty"`
	Profile   core.Config `json:"profile"`
	Predictor string      `json:"predictor,omitempty"`
	// Shards records the session's shards parameter as sent. Older
	// daemons sized the session's engine from it; recovery no longer
	// reads it, and it stays so recBegin keeps one shape across
	// versions.
	Shards int `json:"shards"`
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
// recovery, checkpoint reload and compaction.
type Store struct {
	dir             string
	policy          wal.SyncPolicy
	checkpointEvery int64
	metrics         *Metrics
}

// openStore validates the policy and ensures the directory exists.
func openStore(dir string, policy wal.SyncPolicy, checkpointEvery int64, m *Metrics) (*Store, error) {
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: creating data dir: %w", err)
	}
	return &Store{dir: dir, policy: policy, checkpointEvery: checkpointEvery, metrics: m}, nil
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
	sl := &sessionLog{st: st, id: meta.ID, l: l}
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

// finish appends the terminal record and closes the log; the terminal
// append is always fsynced regardless of policy — a finished session's
// checkpoint must not sit in an OS buffer.
func (sl *sessionLog) finish(typ byte, term terminalRecord) error {
	payload, err := json.Marshal(term)
	if err != nil {
		sl.l.Close()
		return err
	}
	if err := sl.append(typ, payload); err != nil {
		sl.l.Close()
		return err
	}
	return sl.l.Close() // Close flushes and fsyncs
}

// abandon closes the log without a terminal record (the next daemon
// start will recover it as an interrupted session).
func (sl *sessionLog) abandon() { _ = sl.l.Close() }

// staticForKernel resolves a logged kernel name back to its asmcheck
// static classification (nil when unnamed or no longer known).
func staticForKernel(name string) map[trace.PC]string {
	if name == "" {
		return nil
	}
	k, ok := progs.KernelByName(name)
	if !ok {
		return nil
	}
	return asmcheck.StaticClasses(k.Prog)
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
	return term.Snapshot, staticForKernel(meta.Kernel), nil
}

// compact rewrites a finished session's log to recBegin + terminal when
// it still carries at least checkpointEvery logged events (smaller logs
// are not worth the rewrite; checkpointEvery <= 0 compacts any log with
// event records). Returns whether a rewrite happened.
func (st *Store) compact(id string, checkpointEvery int64) (bool, error) {
	path := st.path(id)
	recs, _, err := wal.ReadAll(path)
	if err != nil {
		return false, err
	}
	_, events, term, termType, err := parseLog(recs)
	if err != nil {
		return false, err
	}
	if term == nil || len(events) == 0 {
		return false, nil
	}
	if checkpointEvery > 0 && term.Events < checkpointEvery {
		return false, nil
	}
	compacted := []wal.Record{
		recs[0],
		{Type: termType, Payload: recs[len(recs)-1].Payload},
	}
	if err := wal.Rewrite(path, compacted); err != nil {
		return false, err
	}
	return true, nil
}

// recoveredInfo pairs a rebuilt session with its repair diagnostics.
type recoveredInfo struct {
	session  *Session
	repaired bool
}

// Recover scans the data directory and rebuilds every logged session.
// Torn tails are truncated in place; sessions with a terminal record
// come back as idle (metadata only — no checkpoint resident); sessions
// that were mid-stream are replayed through a fresh engine,
// checkpointed with a recFail record, and come back idle too.
// Unreadable logs are skipped with a diagnostic, never deleted.
func (st *Store) Recover() ([]recoveredInfo, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("serve: reading data dir: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".wal") {
			names = append(names, e.Name())
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

// recoverOne rebuilds a single session from its log.
func (st *Store) recoverOne(path string) (recoveredInfo, error) {
	l, recs, repair, err := wal.Open(path, st.policy)
	if err != nil {
		return recoveredInfo{}, err
	}
	meta, events, term, termType, err := parseLog(recs)
	if err != nil {
		l.Close()
		return recoveredInfo{}, err
	}
	if repair != nil {
		fmt.Fprintf(os.Stderr, "serve: repaired %s: dropped %d-byte torn tail (%s)\n",
			filepath.Base(path), repair.DroppedBytes, repair.Reason)
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
	}

	if term != nil {
		// Finished before the restart: the checkpoint is authoritative,
		// nothing to replay.
		l.Close()
		if termType == recFail {
			s.state = SessionFailed
			s.reason = term.Reason
		} else {
			s.state = SessionDone
		}
		s.events.Store(term.Events)
		s.bytes.Store(term.Bytes)
		return recoveredInfo{session: s, repaired: repair != nil}, nil
	}

	// Mid-stream at the crash: replay the logged events through a fresh
	// engine. The replay rebuilds predictor and slice state exactly, so
	// the resulting report matches an uninterrupted run over the same
	// durable prefix byte for byte.
	replayed, snap, err := st.replay(meta, events)
	if err != nil {
		l.Close()
		return recoveredInfo{}, err
	}
	termRec := terminalRecord{
		Reason:   recoveredReason,
		Events:   replayed,
		Snapshot: snap,
	}
	payload, err := json.Marshal(termRec)
	if err != nil {
		l.Close()
		return recoveredInfo{}, err
	}
	if err := l.Append(recFail, payload); err != nil {
		l.Close()
		return recoveredInfo{}, err
	}
	if err := l.Close(); err != nil {
		return recoveredInfo{}, err
	}
	s.state = SessionFailed
	s.reason = recoveredReason
	s.events.Store(replayed)
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
