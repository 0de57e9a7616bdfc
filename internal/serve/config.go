// Package serve implements the online 2D-profiling service: a daemon
// that ingests branch-event streams (BTR1, chunked BTR2 or
// context-tagged BTR3, any of them optionally gzip-wrapped) over HTTP
// or the binary wire protocol (internal/wire), profiles each of them
// with one core.Profiler, and serves live reports while runs are still
// in flight.
//
// The serving pipeline preserves the offline algorithm exactly. Each
// active ingest session is one run of the shared profiling core
// (internal/engine), driven by the goroutine that reads the session's
// stream: it decodes the stream, consults the session's branch
// predictor, maintains the slice clock and updates the per-branch
// statistics, all in program order. The daemon's parallelism comes
// from its concurrent sessions. At the end of the stream the session
// keeps the engine's core.Snapshot as its checkpoint and releases the
// engine; the final report is that snapshot's Report — the assembly
// engine.Finish uses — and is bit-identical to twodprof.Profile over
// the same trace. With a data directory every session is backed by a
// write-ahead log of its events, rewritten to the checkpoint alone when
// the session finishes, so sessions survive restarts and an idle
// finished session holds its checkpoint only on disk (DESIGN.md §3f).
package serve

import (
	"fmt"
	"time"

	"twodprof/internal/bpred"
	"twodprof/internal/core"
	"twodprof/internal/wal"
)

// Config holds every knob of the profiling service.
type Config struct {
	// Addr is the HTTP listen address of the daemon (host:port).
	Addr string
	// WireAddr, when non-empty, additionally serves the compact binary
	// ingest protocol (internal/wire) on this TCP address: multiplexed
	// session streams with credit-based flow control, the transport the
	// cluster router uses. Empty disables the wire listener.
	WireAddr string
	// MaxActive caps concurrently streaming sessions across both ingest
	// fronts. At the cap new sessions are shed — HTTP ingest answers
	// 429 with a Retry-After, wire begins are refused with
	// CodeUnavailable — and readiness (/healthz/ready) reports
	// not-ready so the router routes around the node. <= 0 means
	// unlimited.
	MaxActive int
	// Predictor is the profiler branch predictor for accuracy-metric
	// sessions (ignored, and may be empty, when Profile.Metric is
	// MetricBias). Sessions may override it per request.
	Predictor string
	// Profile is the 2D-profiling configuration applied to sessions.
	Profile core.Config
	// ReadTimeout bounds each read from a client's request body: a
	// client that stalls longer than this mid-stream has its session
	// failed. Zero disables the bound.
	ReadTimeout time.Duration
	// DrainTimeout bounds graceful shutdown: in-flight sessions get
	// this long to drain before the listener is torn down hard.
	DrainTimeout time.Duration
	// MaxSessions caps the number of finished sessions retained for
	// /v1/report queries; the oldest finished sessions are evicted
	// first. Active sessions are never evicted and do not count against
	// the cap.
	MaxSessions int
	// DataDir, when non-empty, enables durable sessions: every session
	// appends to a write-ahead log under this directory, the daemon
	// recovers all logged sessions on start, and idle finished sessions
	// are evicted to disk (DESIGN.md §3f). Empty keeps the daemon fully
	// in-memory.
	DataDir string
	// Fsync is the WAL durability policy (always / interval / never).
	// Ignored without DataDir.
	Fsync wal.SyncPolicy
	// IdleAfter is how long a finished, durably-checkpointed session may
	// go unqueried before its resident checkpoint is dropped, leaving
	// the copy in its log (reloaded on demand). A background sweep runs
	// every quarter of it. <= 0 disables idle eviction. Ignored without
	// DataDir.
	IdleAfter time.Duration
}

// DefaultConfig returns the production defaults.
func DefaultConfig() Config {
	return Config{
		Addr:         ":8377",
		Predictor:    bpred.NameGshare4KB,
		Profile:      core.DefaultConfig(),
		ReadTimeout:  30 * time.Second,
		DrainTimeout: 10 * time.Second,
		MaxSessions:  64,
		Fsync:        wal.SyncPolicy{Mode: wal.SyncInterval, Interval: wal.DefaultSyncInterval},
		IdleAfter:    5 * time.Minute,
	}
}

// Validate reports a non-nil error when the configuration is unusable.
func (c Config) Validate() error {
	switch {
	case c.ReadTimeout < 0:
		return fmt.Errorf("serve: invalid config: ReadTimeout must be non-negative")
	case c.DrainTimeout < 0:
		return fmt.Errorf("serve: invalid config: DrainTimeout must be non-negative")
	case c.MaxSessions <= 0:
		return fmt.Errorf("serve: invalid config: MaxSessions must be positive (got %d)", c.MaxSessions)
	}
	if c.DataDir != "" {
		if err := c.Fsync.Validate(); err != nil {
			return fmt.Errorf("serve: invalid config: Fsync: %w", err)
		}
	}
	if c.Profile.Metric == core.MetricAccuracy {
		if _, err := bpred.New(c.Predictor); err != nil {
			return fmt.Errorf("serve: invalid config: Predictor: %w", err)
		}
	}
	if err := c.Profile.Validate(); err != nil {
		return fmt.Errorf("serve: invalid config: Profile: %w", err)
	}
	return nil
}
