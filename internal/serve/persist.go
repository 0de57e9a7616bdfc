package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"twodprof/internal/core"
	"twodprof/internal/engine"
	"twodprof/internal/trace"
	"twodprof/internal/wal"
	"twodprof/internal/wire"
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
//	recBody    bytes of an HTTP ingest body (BTR1/BTR2/BTR3, optionally
//	           gzip) as one read returned them, appended before the
//	           decoder sees them: the payloads in order are a prefix of
//	           the body.
//	recChunk   one wire chunk body as received (wire.DecodeChunk's
//	           input), appended before its events are applied.
//	recDone /  JSON terminalRecord — the merged engine snapshot
//	recFail    (core.Snapshot) plus event/byte totals (and the failure
//	           reason for recFail). Always last; nothing follows it.
//
// Older daemons logged decoded batches instead of the bytes received:
// recEvents (wal.DecodeEvents) and, for batches carrying execution
// contexts, recEventsCtx (wal.DecodeEventsCtx). Those record types are
// read, never written.
//
// Invariants:
//
//   - A live log is recBegin plus the input its session's ingest front
//     received, in that front's framing, and no terminal. The WAL keeps
//     the input while a session streams because a mid-stream snapshot
//     cannot rebuild the run (snapshots drop in-flight slice counters
//     by design, and predictor state is not serialisable).
//   - A finished log is exactly recBegin + terminal: at the terminal
//     transition the live log is closed and atomically rewritten to
//     the two records (wal.Rewrite), so the input records are gone by
//     the time the session's summary is returned. Its report derives
//     from the checkpoint snapshot alone ((*core.Snapshot).Report is
//     exactly the assembly path engine.Finish uses, so the recovered
//     report is byte-identical to the uninterrupted one).
//   - Recovery ends every other log the same way. A log without a
//     terminal record is a session that was streaming when the daemon
//     died: its input is decoded by the decoder its record type names
//     and replayed through a fresh engine built from recBegin, which
//     reconstructs predictor state and in-slice counters exactly, and
//     the log is rewritten to recBegin plus recFail. A finished log
//     that still holds input records (written by an older daemon) or a
//     torn tail is rewritten once to recBegin plus its terminal record.
//     A log that already is recBegin + terminal is only read.
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
	recBegin     byte = 1
	recEvents    byte = 2 // older daemons: a decoded batch
	recDone      byte = 3
	recFail      byte = 4
	recEventsCtx byte = 5 // older daemons: a decoded batch carrying contexts
	recBody      byte = 6 // bytes of an HTTP ingest body, as read
	recChunk     byte = 7 // one wire chunk body, as received
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
	st    *Store
	id    string
	l     *wal.Log
	begin []byte // the recBegin payload, which the finished log keeps
}

func (sl *sessionLog) append(typ byte, payload []byte) error {
	if err := sl.l.Append(typ, payload); err != nil {
		return err
	}
	sl.st.metrics.WALBytes.Add(int64(len(payload)) + 9)
	return nil
}

// finish ends the log with the session's terminal record: it closes
// the live log (flush and fsync, so a crash before the rewrite still
// finds all the input) and replaces it with recBegin + terminal. The
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

// parseLog splits a scanned record list into meta, input records and
// the terminal record (nil when the session was mid-stream).
func parseLog(recs []wal.Record) (meta sessionMeta, input []wal.Record, term *terminalRecord, termType byte, err error) {
	if len(recs) == 0 || recs[0].Type != recBegin {
		return meta, nil, nil, 0, fmt.Errorf("log does not start with a begin record")
	}
	if err := json.Unmarshal(recs[0].Payload, &meta); err != nil {
		return meta, nil, nil, 0, fmt.Errorf("decoding session meta: %w", err)
	}
	for _, rec := range recs[1:] {
		switch rec.Type {
		case recBody, recChunk, recEvents, recEventsCtx:
			if term != nil {
				return meta, nil, nil, 0, fmt.Errorf("input record after terminal record")
			}
			input = append(input, rec)
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
	return meta, input, term, termType, nil
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
	meta, input, term, termType, err := parseLog(recs)
	if err != nil {
		return recoveredInfo{}, err
	}
	if repair != nil {
		fmt.Fprintf(os.Stderr, "serve: repairing %s: dropping %d-byte torn tail (%s)\n",
			filepath.Base(path), repair.DroppedBytes, repair.Reason)
	}

	var payload []byte
	if term == nil {
		// Mid-stream at the crash: replay the logged input through a
		// fresh engine. The replay rebuilds predictor and slice state
		// exactly, so the resulting report matches an uninterrupted run
		// over the same durable prefix byte for byte.
		replayed, received, snap, err := st.replay(meta, input)
		if err != nil {
			return recoveredInfo{}, err
		}
		term = &terminalRecord{Reason: recoveredReason, Events: replayed, Bytes: received, Snapshot: snap}
		termType = recFail
		if payload, err = json.Marshal(term); err != nil {
			return recoveredInfo{}, err
		}
	} else if len(input) > 0 || repair != nil {
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

// replay feeds a live log's input records through a fresh engine, each
// decoded by the decoder its record type names, and returns the
// replayed event count, the bytes the session received up to the
// durable prefix (the payload lengths of its body or chunk records; an
// older daemon's event records hold none), and the finished engine's
// snapshot. The static column is not part of a snapshot, so the engine
// is built without it.
func (st *Store) replay(meta sessionMeta, input []wal.Record) (events, received int64, snap *core.Snapshot, err error) {
	var agg engine.AggMode
	if meta.Aggregation != "" {
		if agg, err = engine.ParseAggMode(meta.Aggregation); err != nil {
			return 0, 0, nil, fmt.Errorf("session log metadata: %w", err)
		}
	}
	eng, err := engine.New(meta.Profile, engine.Options{
		Predictor:   meta.Predictor,
		Aggregation: agg,
	})
	if err != nil {
		return 0, 0, nil, fmt.Errorf("rebuilding engine: %w", err)
	}
	var (
		b    trace.SoABatch
		body []io.Reader
	)
	apply := func() {
		eng.BranchBatchSoA(&b)
		events += int64(b.Len())
	}
	for _, rec := range input {
		switch rec.Type {
		case recBody:
			body = append(body, bytes.NewReader(rec.Payload))
			received += int64(len(rec.Payload))
			continue
		case recChunk:
			err = wire.DecodeChunk(&b, rec.Payload)
			received += int64(len(rec.Payload))
		case recEvents:
			err = wal.DecodeEvents(&b, rec.Payload)
		case recEventsCtx:
			err = wal.DecodeEventsCtx(&b, rec.Payload)
		}
		if err != nil {
			eng.Abort()
			return 0, 0, nil, fmt.Errorf("decoding input record: %w", err)
		}
		apply()
	}
	// The body records hold the body up to where the daemon died,
	// usually inside a varint, chunk frame or gzip block: the decode
	// error that ends this loop marks that cut, as the live decoder
	// would have met it, and the events decoded before it are the
	// durable prefix. A cut inside the stream header, or a log of
	// another front, leaves none.
	if tr, err := trace.OpenReader(io.MultiReader(body...)); err == nil {
		for err == nil {
			err = tr.ReadBatch(&b)
			apply()
		}
	}
	// Finish, not Abort: the durable prefix is treated as a complete
	// run, applying the same trailing-partial-slice rule an
	// uninterrupted ingest would.
	if _, err := eng.Finish(); err != nil {
		return 0, 0, nil, err
	}
	if snap, err = eng.Snapshot(); err != nil {
		return 0, 0, nil, err
	}
	return events, received, snap, nil
}
