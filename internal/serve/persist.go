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
//	recSnapshot
//	           the checkpoint: the merged engine snapshot as
//	           core.Snapshot JSON. Always followed by the terminal record.
//	recDone /  JSON terminalRecord — event/byte totals (and the failure
//	recFail    reason for recFail). Always last; nothing follows it.
//
// The checkpoint precedes the terminal record because wal.ReadAll
// trusts only the longest valid prefix: a terminal record implies an
// intact checkpoint, and a log whose checkpoint frame is corrupt reads
// as interrupted, like one whose terminal frame is. Keeping the
// snapshot out of the terminal record lets recovery read a finished
// log's outcome without decoding its snapshot.
//
// Older daemons wrote two other forms, which are read, never written:
// a finished log of recBegin plus a terminal record that embeds the
// snapshot (its "snapshot" field), and live logs of decoded batches
// instead of the bytes received: recEvents (wal.DecodeEvents) and, for
// batches carrying execution contexts, recEventsCtx
// (wal.DecodeEventsCtx).
//
// Invariants:
//
//   - A live log is recBegin plus the input its session's ingest front
//     received, in that front's framing, and no terminal. The WAL keeps
//     the input while a session streams because a mid-stream snapshot
//     cannot rebuild the run (snapshots drop in-flight slice counters
//     by design, and predictor state is not serialisable).
//   - A finished log is exactly recBegin + recSnapshot + terminal: at
//     the terminal transition the live log is closed and atomically
//     rewritten to the three records (wal.Rewrite), so the input
//     records are gone by the time the session's summary is returned.
//     Its report derives from the checkpoint snapshot alone
//     ((*core.Snapshot).Report is exactly the assembly path
//     engine.Finish uses, so the recovered report is byte-identical to
//     the uninterrupted one).
//   - Recovery ends every other log the same way. A log without a
//     terminal record is a session that was streaming when the daemon
//     died: its input is decoded by the decoder its record type names
//     and replayed through a fresh engine built from recBegin, which
//     reconstructs predictor state and in-slice counters exactly, and
//     the log is rewritten to recBegin + recSnapshot + recFail. A
//     finished log that still holds input records (written by an older
//     daemon) or a torn tail is rewritten once without them, its other
//     records' bytes kept. Any other finished log is only read, and
//     its snapshot is not decoded until the session's first read.
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
	Reason string `json:"reason,omitempty"` // set for recFail
	Events int64  `json:"events"`
	Bytes  int64  `json:"bytes"`
	// Snapshot is the checkpoint as older daemons embedded it. This
	// daemon writes the checkpoint as a recSnapshot record instead, so
	// the field is only read, from older daemons' logs.
	Snapshot *core.Snapshot `json:"snapshot,omitempty"`
	// checkpoint is the payload of the recSnapshot record before this
	// terminal record, undecoded; parseLog sets it.
	checkpoint []byte
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
	recSnapshot  byte = 8 // the checkpoint, core.Snapshot JSON
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

// finish ends the log with the session's checkpoint and terminal
// record: it closes the live log (flush and fsync, so a crash before
// the rewrite still finds all the input) and replaces it with
// recBegin + recSnapshot + terminal. The rewrite is fsynced whatever
// the policy — a finished session's checkpoint must not sit in an OS
// buffer.
func (sl *sessionLog) finish(snap *core.Snapshot, typ byte, term terminalRecord) error {
	if err := sl.l.Close(); err != nil {
		return err
	}
	n, err := checkpointLog(sl.st.path(sl.id), sl.begin, snap, typ, term)
	if err != nil {
		return err
	}
	sl.st.metrics.WALBytes.Add(n)
	return nil
}

// abandon closes the log without a terminal record (the next daemon
// start will recover it as an interrupted session).
func (sl *sessionLog) abandon() { _ = sl.l.Close() }

// checkpointLog atomically replaces the log at path with the whole of
// a finished log: its recBegin payload, the checkpoint snapshot and the
// terminal record. It returns the bytes the last two records take.
func checkpointLog(path string, begin []byte, snap *core.Snapshot, typ byte, term terminalRecord) (int64, error) {
	// The codec methods are called directly: encoding/json would scan
	// a Marshaler's output once more to compact it.
	snapJSON, err := snap.MarshalJSON()
	if err != nil {
		return 0, err
	}
	termJSON, err := json.Marshal(term)
	if err != nil {
		return 0, err
	}
	if err := wal.Rewrite(path, []wal.Record{
		{Type: recBegin, Payload: begin},
		{Type: recSnapshot, Payload: snapJSON},
		{Type: typ, Payload: termJSON},
	}); err != nil {
		return 0, err
	}
	return int64(len(snapJSON) + 9 + len(termJSON) + 9), nil
}

// parseLog splits a scanned record list into meta, input records and
// the terminal record (nil when the session was mid-stream), which
// carries the checkpoint record's payload undecoded. A checkpoint with
// no terminal record after it in the valid prefix (the terminal frame
// is torn or corrupt) is dropped: the log reads as interrupted.
func parseLog(recs []wal.Record) (meta sessionMeta, input []wal.Record, term *terminalRecord, termType byte, err error) {
	if len(recs) == 0 || recs[0].Type != recBegin {
		return meta, nil, nil, 0, fmt.Errorf("log does not start with a begin record")
	}
	if err := json.Unmarshal(recs[0].Payload, &meta); err != nil {
		return meta, nil, nil, 0, fmt.Errorf("decoding session meta: %w", err)
	}
	var snap []byte
	for _, rec := range recs[1:] {
		switch {
		case term != nil:
			return meta, nil, nil, 0, fmt.Errorf("record type %d after the terminal record", rec.Type)
		case snap != nil && rec.Type != recDone && rec.Type != recFail:
			return meta, nil, nil, 0, fmt.Errorf("record type %d after the snapshot record", rec.Type)
		}
		switch rec.Type {
		case recBody, recChunk, recEvents, recEventsCtx:
			input = append(input, rec)
		case recSnapshot:
			snap = rec.Payload
		case recDone, recFail:
			var t terminalRecord
			if err := json.Unmarshal(rec.Payload, &t); err != nil {
				return meta, nil, nil, 0, fmt.Errorf("decoding terminal record: %w", err)
			}
			t.checkpoint = snap
			term, termType = &t, rec.Type
		default:
			return meta, nil, nil, 0, fmt.Errorf("unknown record type %d", rec.Type)
		}
	}
	return meta, input, term, termType, nil
}

// loadCheckpoint reads a finished session's checkpoint back from its
// log: the checkpoint snapshot plus the static prefilter column of the
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
	if term == nil || term.checkpoint == nil && term.Snapshot == nil {
		return nil, nil, fmt.Errorf("session %s has no checkpoint record", id)
	}
	snap := term.Snapshot
	if term.checkpoint != nil {
		// Called directly, the decoder skips encoding/json's validating
		// pass over its input.
		snap = new(core.Snapshot)
		if err := snap.UnmarshalJSON(term.checkpoint); err != nil {
			return nil, nil, err
		}
	}
	// A kernel name no longer bundled leaves the report unannotated.
	static, _ := staticColumn(meta.Kernel)
	return snap, static, nil
}

// recoveredInfo pairs a rebuilt session with its repair diagnostics.
type recoveredInfo struct {
	session  *Session
	repaired bool
}

// Recover scans the data directory and rebuilds every logged session.
// Every session comes back idle (metadata only — no checkpoint
// resident or decoded) with its log ended as a finished log: sessions
// that were mid-stream are replayed through a fresh engine and
// checkpointed with a recFail record. Unreadable logs are skipped with
// a diagnostic, never deleted; the temp files of rewrites a crash cut
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
// unless it already is a finished log and nothing more. It decodes
// recBegin and the terminal record, never the checkpoint record (an
// older daemon's terminal record embeds its snapshot, which decoding
// the record decodes too).
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

	switch {
	case term == nil:
		// Mid-stream at the crash: replay the logged input through a
		// fresh engine. The replay rebuilds predictor and slice state
		// exactly, so the resulting report matches an uninterrupted run
		// over the same durable prefix byte for byte.
		replayed, received, snap, err := st.replay(meta, input)
		if err != nil {
			return recoveredInfo{}, err
		}
		term = &terminalRecord{Reason: recoveredReason, Events: replayed, Bytes: received}
		termType = recFail
		if _, err := checkpointLog(path, recs[0].Payload, snap, termType, *term); err != nil {
			return recoveredInfo{}, err
		}
	case len(input) > 0 || repair != nil:
		// Finished, but an older daemon kept the event records (or the
		// tail is torn): keep the other records' bytes as they are.
		// parseLog admits input records only before the checkpoint and
		// the terminal record, so they are recs[1:1+len(input)].
		if err := wal.Rewrite(path, append(recs[:1], recs[1+len(input):]...)); err != nil {
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
