package serve

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"twodprof/internal/core"
	"twodprof/internal/engine"
	"twodprof/internal/trace"
)

// SessionState is a session's lifecycle position.
type SessionState int

const (
	// SessionActive: the client is still streaming events.
	SessionActive SessionState = iota
	// SessionDone: the stream completed and the final report is fixed.
	SessionDone
	// SessionFailed: the stream broke mid-flight; partial statistics
	// remain queryable.
	SessionFailed
)

// String returns the state name.
func (s SessionState) String() string {
	switch s {
	case SessionActive:
		return "active"
	case SessionDone:
		return "done"
	case SessionFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// Session is one profiling run flowing through the service. While
// active its profiling state is one internal/engine run; the session
// adds the lifecycle (active → done/failed, each transition
// single-shot), the ingest byte/event accounting and — when the daemon
// runs with a data directory — the WAL handle. At the terminal
// transition the engine is released and the session keeps only its
// checkpoint, the engine's snapshot: every later read (report,
// snapshot, group merge) assembles from it. A durable session's memory
// tier is whether that checkpoint is resident (hot) or only in its log
// (idle, reloaded on the next read).
type Session struct {
	ID string
	// Group, when non-empty, tags the session as one member of a
	// PC-sharded collector group; /v1/snapshot?group merges all members
	// (DESIGN.md §3g). Set before the session is published and never
	// written again.
	Group string

	mu    sync.Mutex
	state SessionState
	eng   *engine.Engine // the live run; nil once finished
	// snap is the checkpoint, fixed at the terminal transition and
	// never mutated, so readers share it. nil while active, while idle,
	// and after a transition whose engine had no single snapshot.
	snap *core.Snapshot
	// static is the report's static prefilter column (ingest
	// ?kernel=NAME), resident and dropped together with snap.
	static    map[trace.PC]string
	reason    string    // failure reason, for /v1/sessions
	lastTouch time.Time // last report query or lifecycle transition

	// Persistence. plog is only touched by the owning ingest goroutine
	// (appends) and under mu at the terminal transition; store is fixed
	// at setup.
	plog      *sessionLog
	store     *Store
	recovered bool // rebuilt from the WAL after a daemon restart
	persisted bool // terminal checkpoint record is in the log
	compacted bool // compaction attempted (logs are immutable after the terminal record)

	events atomic.Int64 // decoded events so far
	bytes  atomic.Int64 // raw bytes read from the client
}

// State returns the current lifecycle state.
func (s *Session) State() SessionState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Tier names the session's memory tier: "active" while streaming,
// "hot" finished with the checkpoint resident, "idle" finished with the
// checkpoint only in its log.
func (s *Session) Tier() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tierLocked()
}

func (s *Session) tierLocked() string {
	switch {
	case s.state == SessionActive:
		return "active"
	case s.persisted && s.snap == nil:
		return "idle"
	default:
		return "hot"
	}
}

// Events returns the number of events decoded so far.
func (s *Session) Events() int64 { return s.events.Load() }

// logEvents appends a decoded batch to the session's WAL ahead of the
// in-memory engine (write-ahead order: a batch the engine has applied
// is always at least buffered in the log). Only the owning ingest
// goroutine calls this, so plog needs no lock here; the terminal
// transition that clears it runs on the same goroutine.
func (s *Session) logEvents(b *trace.SoABatch) error {
	if s.plog == nil {
		return nil
	}
	return s.plog.appendEvents(b)
}

// complete drains the engine, checkpoints it and transitions to
// SessionDone, returning the final report. Transitions are
// single-shot: completing a done session returns the final report
// again (assembled from the checkpoint), completing a failed one
// reports the original failure without disturbing it.
func (s *Session) complete() (*core.Report, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case SessionDone:
		return s.reportLocked()
	case SessionFailed:
		return nil, fmt.Errorf("serve: session %s already failed: %s", s.ID, s.reason)
	}
	rep, err := s.eng.Finish()
	if err != nil {
		s.failLocked(err)
		return nil, err
	}
	s.terminateLocked(SessionDone, "")
	return rep, nil
}

// fail records why the session broke and drains the engine without the
// final flush; the partial statistics stay queryable through the
// checkpoint. Single-shot: once a session has finished (done or
// failed), fail is a no-op — in particular it never overwrites the
// reason of an earlier failure.
func (s *Session) fail(reason error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != SessionActive {
		return
	}
	s.failLocked(reason)
}

// failLocked is the one true failure transition (mu held, state
// SessionActive).
func (s *Session) failLocked(reason error) {
	s.eng.Abort()
	s.terminateLocked(SessionFailed, reason.Error())
}

// terminateLocked is the terminal step complete and fail share (mu
// held, engine drained): it keeps the engine's snapshot as the
// session's checkpoint, releases the engine, and appends the
// checkpoint (plus the byte/event totals) to the WAL as the terminal
// record, closing the log. A persistence error does not fail the
// session — the checkpoint is intact in memory — but the session is
// then never idled, since disk could not be trusted to reproduce it.
func (s *Session) terminateLocked(state SessionState, reason string) {
	snap, err := s.eng.Snapshot()
	s.eng, s.snap = nil, snap
	s.state, s.reason = state, reason
	s.lastTouch = time.Now()
	if s.plog == nil {
		return
	}
	plog := s.plog
	s.plog = nil
	if err != nil {
		plog.st.metrics.WALErrors.Add(1)
		fmt.Fprintf(os.Stderr, "serve: session %s: checkpoint snapshot: %v\n", s.ID, err)
		plog.abandon()
		return
	}
	term := terminalRecord{
		Reason:   reason,
		Events:   s.events.Load(),
		Bytes:    s.bytes.Load(),
		Snapshot: snap,
	}
	typ := recDone
	if state == SessionFailed {
		typ = recFail
	}
	if err := plog.finish(typ, term); err != nil {
		plog.st.metrics.WALErrors.Add(1)
		fmt.Fprintf(os.Stderr, "serve: session %s: writing checkpoint: %v\n", s.ID, err)
		return
	}
	s.persisted = true
}

// Report returns the session's merged 2D-profiling report: a live
// snapshot merge while the session is active, afterwards the report
// assembled from its checkpoint plus the static prefilter column —
// the assembly engine.Finish itself uses, so the bytes are the
// engine's.
func (s *Session) Report() (*core.Report, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastTouch = time.Now()
	if s.state == SessionActive {
		return s.eng.Report()
	}
	return s.reportLocked()
}

// reportLocked assembles a finished session's report from its
// checkpoint (mu held).
func (s *Session) reportLocked() (*core.Report, error) {
	snap, err := s.checkpointLocked()
	if err != nil {
		return nil, err
	}
	rep := snap.Report()
	rep.AnnotateStatic(s.static)
	return rep, nil
}

// Snapshot returns the session's merged mergeable state: the live
// engine's snapshot while active, the checkpoint afterwards. It is
// what /v1/snapshot serves and what cross-session merging
// (core.MergeSnapshots) consumes; callers must not mutate it.
func (s *Session) Snapshot() (*core.Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastTouch = time.Now()
	if s.state == SessionActive {
		return s.eng.Snapshot()
	}
	return s.checkpointLocked()
}

// checkpointLocked returns a finished session's checkpoint, reloading
// it from the log when the session is idle — which makes it hot again
// until the janitor's next idle sweep (mu held).
func (s *Session) checkpointLocked() (*core.Snapshot, error) {
	if s.persisted && s.snap == nil {
		snap, static, err := s.store.loadCheckpoint(s.ID)
		if err != nil {
			return nil, fmt.Errorf("serve: reloading session %s from its log: %w", s.ID, err)
		}
		s.snap, s.static = snap, static
	}
	if s.snap == nil {
		return nil, fmt.Errorf("serve: session %s has no checkpoint: %s", s.ID, s.reason)
	}
	return s.snap, nil
}

// maybeIdle drops a finished session's resident checkpoint once it is
// durable in the log and the session has not been queried for
// idleAfter. Returns whether the session just went idle.
func (s *Session) maybeIdle(now time.Time, idleAfter time.Duration) bool {
	if idleAfter <= 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.persisted || s.snap == nil || now.Sub(s.lastTouch) < idleAfter {
		return false
	}
	s.snap, s.static = nil, nil
	return true
}

// maybeCompact compacts the session's log into its checkpoint once the
// session is finished and durably checkpointed. Each log is examined at
// most once — it is immutable after the terminal record. Returns
// whether a rewrite actually happened.
func (s *Session) maybeCompact(checkpointEvery int64) bool {
	s.mu.Lock()
	if s.state == SessionActive || !s.persisted || s.compacted || s.store == nil {
		s.mu.Unlock()
		return false
	}
	s.compacted = true
	st, id := s.store, s.ID
	s.mu.Unlock()
	// Disk work happens outside mu so report queries never wait on it.
	did, err := st.compact(id, checkpointEvery)
	if err != nil {
		st.metrics.WALErrors.Add(1)
		fmt.Fprintf(os.Stderr, "serve: compacting session %s: %v\n", id, err)
		return false
	}
	return did
}

// Registry tracks sessions by id, newest last. Finished sessions are
// evicted oldest-first once more than the retention cap of them have
// accumulated; active sessions never are and never count against the
// cap.
type Registry struct {
	mu     sync.Mutex
	byID   map[string]*Session
	order  []string // insertion order, for latest-lookup and eviction
	nextID int
	cap    int

	// Reserved, when set, reports ids that are taken outside the
	// registry's own map — the daemon points it at the session store, so
	// neither a generated nor a user-supplied id can collide with a
	// session log already on disk. Set once before the registry is
	// shared; nil means no external reservations.
	Reserved func(id string) bool
}

// NewRegistry creates a registry retaining at most cap finished
// sessions. A non-positive cap is clamped to 1 (always retain at least
// the most recent finished session).
func NewRegistry(cap int) *Registry {
	if cap <= 0 {
		cap = 1
	}
	return &Registry{byID: make(map[string]*Session), cap: cap}
}

// Begin registers a new active session in group ("" for none). An
// empty id is assigned the next free generated id (generation skips
// ids already taken by a live registry entry or reserved on disk, so a
// client that registered "s-1" itself never causes a spurious
// conflict); a duplicate user-supplied id is an error. The group is
// set before the session is published, so readers need no lock for it.
func (r *Registry) Begin(id, group string, eng *engine.Engine) (*Session, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id == "" {
		for {
			r.nextID++
			id = fmt.Sprintf("s-%d", r.nextID)
			if _, dup := r.byID[id]; !dup && !r.reservedLocked(id) {
				break
			}
		}
	} else {
		if _, dup := r.byID[id]; dup {
			return nil, fmt.Errorf("serve: session %q already exists", id)
		}
		if r.reservedLocked(id) {
			return nil, fmt.Errorf("serve: session %q already exists in the session store", id)
		}
	}
	s := &Session{ID: id, Group: group, state: SessionActive, eng: eng, lastTouch: time.Now()}
	r.byID[id] = s
	r.order = append(r.order, id)
	r.evictLocked()
	return s, nil
}

func (r *Registry) reservedLocked(id string) bool {
	return r.Reserved != nil && r.Reserved(id)
}

// Adopt registers an already-built session (crash recovery). The
// retention cap applies to adopted sessions like any other.
func (r *Registry) Adopt(s *Session) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byID[s.ID]; dup {
		return fmt.Errorf("serve: session %q already exists", s.ID)
	}
	r.byID[s.ID] = s
	r.order = append(r.order, s.ID)
	r.evictLocked()
	return nil
}

// Remove forgets a session (used to undo a Begin whose persistence
// setup failed). No-op for unknown ids.
func (r *Registry) Remove(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byID[id]; !ok {
		return
	}
	delete(r.byID, id)
	kept := r.order[:0]
	for _, o := range r.order {
		if o != id {
			kept = append(kept, o)
		}
	}
	r.order = kept
}

// evictLocked drops the oldest finished sessions beyond the cap. Only
// finished sessions count against the cap: a burst of active sessions
// must never push recent finished ones out.
func (r *Registry) evictLocked() {
	finished := 0
	for _, id := range r.order {
		if r.byID[id].State() != SessionActive {
			finished++
		}
	}
	excess := finished - r.cap
	if excess <= 0 {
		return
	}
	kept := r.order[:0]
	for _, id := range r.order {
		if excess > 0 && r.byID[id].State() != SessionActive {
			delete(r.byID, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	r.order = kept
}

// Get returns the session with the given id, or nil.
func (r *Registry) Get(id string) *Session {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byID[id]
}

// Latest returns the most recently begun session, or nil when the
// registry is empty.
func (r *Registry) Latest() *Session {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.order) == 0 {
		return nil
	}
	return r.byID[r.order[len(r.order)-1]]
}

// List returns every retained session, oldest first.
func (r *Registry) List() []*Session {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Session, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.byID[id])
	}
	return out
}
