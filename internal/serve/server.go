package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"twodprof/internal/core"
	"twodprof/internal/wire"
)

// Server is the online 2D-profiling service.
//
//	POST /v1/ingest         stream a BTR1/BTR2/BTR3 trace (optionally gzipped) into a session
//	GET  /v1/report         merged report (live for active sessions, from the checkpoint once finished)
//	GET  /v1/snapshot       merged core.Snapshot of a session or group (cluster aggregation)
//	GET  /v1/sessions       list retained sessions
//	GET  /healthz/live      liveness (200 while the process serves at all)
//	GET  /healthz/ready     readiness (503 while draining or at the MaxActive cap)
//	GET  /healthz           alias of /healthz/ready
//	GET  /metrics           text-format counters
//
// With Config.WireAddr set the same sessions are also reachable over
// the binary wire protocol (internal/wire).
type Server struct {
	cfg      Config
	metrics  *Metrics
	registry *Registry
	store    *Store // nil without cfg.DataDir

	http        *http.Server
	listener    net.Listener
	wire        *wire.Server // nil without cfg.WireAddr
	wireLn      net.Listener
	wireErr     chan error
	draining    atomic.Bool
	janitorStop chan struct{}
	janitorDone chan struct{}
	stopOnce    sync.Once
}

// NewServer validates cfg and assembles the service (not yet
// listening). With cfg.DataDir set it also recovers every session
// logged in the data directory into the registry — interrupted
// sessions replayed, and every log ended as a finished log —
// before returning, so the daemon never serves while state is missing.
func NewServer(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		metrics:  &Metrics{},
		registry: NewRegistry(cfg.MaxSessions),
	}
	if cfg.DataDir != "" {
		store, err := openStore(cfg.DataDir, cfg.Fsync, s.metrics)
		if err != nil {
			return nil, err
		}
		s.store = store
		// On-disk logs reserve their ids even when the session is no
		// longer (or not yet) in the registry. Begin checks its own map
		// first, so this only fires for ids the registry does not hold.
		s.registry.Reserved = store.Exists
		recovered, err := store.Recover()
		if err != nil {
			return nil, err
		}
		for _, info := range recovered {
			if err := s.registry.Adopt(info.session); err != nil {
				fmt.Fprintf(os.Stderr, "serve: %v\n", err)
				continue
			}
			s.metrics.SessionsRecovered.Add(1)
			if info.repaired {
				s.metrics.WALRepairs.Add(1)
			}
		}
	}
	s.http = &http.Server{Addr: cfg.Addr, Handler: s.Handler()}
	if cfg.WireAddr != "" {
		s.wire = wire.NewServer(wireHandler{s}, wire.ServerOptions{
			ReadTimeout: cfg.ReadTimeout,
			Stats:       &s.metrics.Wire,
		})
	}
	return s, nil
}

// janitor is the background idle sweep: every quarter of
// cfg.IdleAfter (at least a millisecond) it drops the resident
// checkpoint of finished sessions unqueried for cfg.IdleAfter, so a
// session idles at most a quarter of IdleAfter late.
func (s *Server) janitor() {
	defer close(s.janitorDone)
	t := time.NewTicker(max(s.cfg.IdleAfter/4, time.Millisecond))
	defer t.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-t.C:
			now := time.Now()
			for _, sess := range s.registry.List() {
				if sess.maybeIdle(now, s.cfg.IdleAfter) {
					s.metrics.SessionsIdled.Add(1)
				}
			}
		}
	}
}

// Handler returns the service's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/ingest", s.handleIngest)
	mux.HandleFunc("/v1/report", s.handleReport)
	mux.HandleFunc("/v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("/v1/sessions", s.handleSessions)
	mux.HandleFunc("/healthz", s.handleReady)
	mux.HandleFunc("/healthz/live", s.handleLive)
	mux.HandleFunc("/healthz/ready", s.handleReady)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// Start begins serving on cfg.Addr (and cfg.WireAddr when set) and
// returns once the listeners are bound (serving continues on background
// goroutines; the HTTP side's terminal error is delivered on the
// returned channel).
func (s *Server) Start() (<-chan error, error) {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listening on %s: %w", s.cfg.Addr, err)
	}
	s.listener = ln
	if s.wire != nil {
		wln, err := net.Listen("tcp", s.cfg.WireAddr)
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("serve: listening on wire %s: %w", s.cfg.WireAddr, err)
		}
		s.wireLn = wln
		s.wireErr = make(chan error, 1)
		go func() {
			s.wireErr <- s.wire.Serve(wln)
		}()
	}
	if s.store != nil && s.cfg.IdleAfter > 0 {
		s.janitorStop = make(chan struct{})
		s.janitorDone = make(chan struct{})
		go s.janitor()
	}
	errc := make(chan error, 1)
	go func() {
		if err := s.http.Serve(ln); err != nil && err != http.ErrServerClosed {
			errc <- err
		}
		close(errc)
	}()
	return errc, nil
}

// Addr returns the bound HTTP listen address (useful with ":0").
func (s *Server) Addr() string {
	if s.listener == nil {
		return s.cfg.Addr
	}
	return s.listener.Addr().String()
}

// WireAddr returns the bound wire listen address ("" when the wire
// front is disabled).
func (s *Server) WireAddr() string {
	if s.wireLn == nil {
		return s.cfg.WireAddr
	}
	return s.wireLn.Addr().String()
}

// Metrics exposes the live counter registry (for benchmarks and
// embedding callers; mutate nothing).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Shutdown drains the service gracefully: readiness flips to 503, new
// connections are refused, and in-flight ingest sessions get
// cfg.DrainTimeout to complete before the remaining connections are
// torn down hard.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.stopOnce.Do(func() {
		if s.janitorStop != nil {
			close(s.janitorStop)
			<-s.janitorDone
		}
	})
	if s.cfg.DrainTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.DrainTimeout)
		defer cancel()
	}
	// The wire front drains in parallel with the HTTP one: new begins
	// are already refused (beginSession checks draining), so wait for
	// the in-flight streams to finish, then tear the listener down.
	wireDone := make(chan struct{})
	go func() {
		defer close(wireDone)
		if s.wire == nil {
			return
		}
		for s.metrics.Wire.Streams.Load() > 0 {
			select {
			case <-ctx.Done():
				s.wire.Close()
				return
			case <-time.After(10 * time.Millisecond):
			}
		}
		s.wire.Close()
	}()
	err := s.http.Shutdown(ctx)
	if err != nil {
		// Drain deadline expired: close the stragglers.
		closeErr := s.http.Close()
		if closeErr != nil && err == nil {
			err = closeErr
		}
	}
	<-wireDone
	return err
}

// handleReport serves the merged 2D-profiling report of one session as
// JSON: ?session=ID selects it, default is the most recent session.
// Active sessions get a live snapshot merge; finished ones the report
// assembled from their checkpoint.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "report wants GET", http.StatusMethodNotAllowed)
		return
	}
	var session *Session
	if id := r.URL.Query().Get("session"); id != "" {
		if session = s.lookup(id); session == nil {
			http.Error(w, fmt.Sprintf("unknown session %q", id), http.StatusNotFound)
			return
		}
	} else if session = s.registry.Latest(); session == nil {
		http.Error(w, "no sessions ingested yet", http.StatusNotFound)
		return
	}
	rep, err := session.Report()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// lookup returns the session with the given id, or nil when it is
// unknown. For an id the retention cap dropped whose log is still on
// disk (the deepest lifecycle tier) it returns an idle finished session
// backed by that log; it is never registered, so its done/failed state
// is never read.
func (s *Server) lookup(id string) *Session {
	if sess := s.registry.Get(id); sess != nil {
		return sess
	}
	if s.store != nil && s.store.Exists(id) {
		return &Session{ID: id, state: SessionDone, store: s.store, persisted: true}
	}
	return nil
}

// SessionInfo is one /v1/sessions entry. Exported so the cluster
// router can decode node listings for its scatter-gather view.
type SessionInfo struct {
	ID        string `json:"id"`
	Group     string `json:"group,omitempty"`
	State     string `json:"state"`
	Tier      string `json:"tier,omitempty"` // active / hot / idle (durable daemons only)
	Recovered bool   `json:"recovered,omitempty"`
	Events    int64  `json:"events"`
	// Bytes is what the session received: HTTP body bytes or wire chunk
	// bodies. A session recovered from an interrupted log counts the
	// bytes its log kept; one an older daemon logged as decoded events
	// reads 0.
	Bytes int64  `json:"bytes"`
	Error string `json:"error,omitempty"`
}

// handleSessions lists retained sessions, oldest first.
func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "sessions wants GET", http.StatusMethodNotAllowed)
		return
	}
	sessions := s.registry.List()
	out := make([]SessionInfo, 0, len(sessions))
	for _, sess := range sessions {
		sess.mu.Lock()
		info := SessionInfo{
			ID:        sess.ID,
			Group:     sess.Group,
			State:     sess.state.String(),
			Recovered: sess.recovered,
			Events:    sess.events.Load(),
			Bytes:     sess.bytes.Load(),
			Error:     sess.reason,
		}
		if s.store != nil {
			info.Tier = sess.tierLocked()
		}
		sess.mu.Unlock()
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleSnapshot serves a session's merged core.Snapshot
// (?session=ID), or the merged snapshot of every local session tagged
// with a group (?group=G). Group merging inherits MergeSnapshots'
// preconditions — identical profiling config and predictor, disjoint
// branch-PC sets — and answers 409 when members violate them
// (DESIGN.md §3g); the cluster router stitches the per-node results
// together with the same merge.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "snapshot wants GET", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	id, group := q.Get("session"), q.Get("group")
	switch {
	case id != "" && group != "":
		http.Error(w, "snapshot wants ?session or ?group, not both", http.StatusBadRequest)
	case id != "":
		sess := s.lookup(id)
		if sess == nil {
			http.Error(w, fmt.Sprintf("unknown session %q", id), http.StatusNotFound)
			return
		}
		snap, err := sess.Snapshot()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, http.StatusOK, snap)
	case group != "":
		var snaps []*core.Snapshot
		for _, sess := range s.registry.List() {
			if sess.Group != group {
				continue
			}
			snap, err := sess.Snapshot()
			if err != nil {
				http.Error(w, fmt.Sprintf("session %s: %v", sess.ID, err), http.StatusInternalServerError)
				return
			}
			snaps = append(snaps, snap)
		}
		if len(snaps) == 0 {
			http.Error(w, fmt.Sprintf("no sessions in group %q", group), http.StatusNotFound)
			return
		}
		merged, err := core.MergeSnapshots(snaps...)
		if err != nil {
			http.Error(w, fmt.Sprintf("group %q is not mergeable: %v", group, err), http.StatusConflict)
			return
		}
		writeJSON(w, http.StatusOK, merged)
	default:
		http.Error(w, "snapshot wants ?session=ID or ?group=NAME", http.StatusBadRequest)
	}
}

// handleLive reports liveness: the process is up and serving requests
// at all. Draining and overload do not affect it — kill-and-restart
// decisions key off liveness, routing decisions off readiness.
func (s *Server) handleLive(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReady reports readiness: 200 while the node should receive new
// sessions, 503 once draining or at the MaxActive cap. The router's
// heartbeat probes this endpoint and routes around not-ready nodes;
// /healthz stays an alias so pre-split monitoring keeps working.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if s.cfg.MaxActive > 0 && s.metrics.ActiveSessions.Load() >= int64(s.cfg.MaxActive) {
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleMetrics renders the counter registry in text exposition
// format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.metrics.Render(w)
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
