package serve

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"twodprof/internal/wire"
)

// Metrics is the service's counter registry, exposed in plain-text
// exposition format on /metrics (one "name value" pair per line,
// Prometheus-style, with no client dependency).
type Metrics struct {
	Events         atomic.Int64 // branch events ingested
	Bytes          atomic.Int64 // raw bytes read from clients
	Slices         atomic.Int64 // global slice boundaries completed
	SessionsTotal  atomic.Int64 // sessions ever begun
	SessionsFailed atomic.Int64 // sessions that broke mid-stream
	ActiveSessions atomic.Int64 // sessions currently streaming
	Shed           atomic.Int64 // sessions refused at the MaxActive cap

	// Wire holds the binary-ingest listener's counters (all zero when
	// the daemon runs HTTP-only).
	Wire wire.Stats

	// Durability counters (all zero when the daemon runs without a data
	// directory).
	WALBytes          atomic.Int64 // bytes appended to session logs
	WALRepairs        atomic.Int64 // logs rewritten at startup without their torn tail
	SessionsRecovered atomic.Int64 // sessions rebuilt from the WAL at startup
	SessionsIdled     atomic.Int64 // finished sessions evicted to the idle tier
	// WALErrors counts persistence failures the daemon survives: logs
	// skipped at startup as unrecoverable, and checkpoints that could
	// not be taken or written.
	WALErrors atomic.Int64

	// rate state: events/sec over the window since the previous scrape.
	mu         sync.Mutex
	lastScrape time.Time
	lastEvents int64
}

// eventsPerSec returns the ingest rate since the previous scrape (or
// since startup for the first one).
func (m *Metrics) eventsPerSec(now time.Time) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	events := m.Events.Load()
	if m.lastScrape.IsZero() {
		m.lastScrape, m.lastEvents = now, events
		return 0
	}
	dt := now.Sub(m.lastScrape).Seconds()
	if dt <= 0 {
		return 0
	}
	rate := float64(events-m.lastEvents) / dt
	m.lastScrape, m.lastEvents = now, events
	return rate
}

// Render writes the exposition text.
func (m *Metrics) Render(w io.Writer) {
	fmt.Fprintf(w, "twodprof_events_ingested_total %d\n", m.Events.Load())
	fmt.Fprintf(w, "twodprof_events_per_second %.1f\n", m.eventsPerSec(time.Now()))
	fmt.Fprintf(w, "twodprof_bytes_ingested_total %d\n", m.Bytes.Load())
	fmt.Fprintf(w, "twodprof_slices_completed_total %d\n", m.Slices.Load())
	fmt.Fprintf(w, "twodprof_sessions_active %d\n", m.ActiveSessions.Load())
	fmt.Fprintf(w, "twodprof_sessions_total %d\n", m.SessionsTotal.Load())
	fmt.Fprintf(w, "twodprof_sessions_failed_total %d\n", m.SessionsFailed.Load())
	fmt.Fprintf(w, "twodprof_sessions_shed_total %d\n", m.Shed.Load())
	fmt.Fprintf(w, "twodprof_wire_conns %d\n", m.Wire.Conns.Load())
	fmt.Fprintf(w, "twodprof_wire_conns_total %d\n", m.Wire.ConnsTotal.Load())
	fmt.Fprintf(w, "twodprof_wire_streams %d\n", m.Wire.Streams.Load())
	fmt.Fprintf(w, "twodprof_wire_streams_total %d\n", m.Wire.StreamsTotal.Load())
	fmt.Fprintf(w, "twodprof_wire_bytes_total %d\n", m.Wire.Bytes.Load())
	fmt.Fprintf(w, "twodprof_wire_rejects_total %d\n", m.Wire.Rejects.Load())
	fmt.Fprintf(w, "twodprof_wire_conn_errors_total %d\n", m.Wire.ConnErrors.Load())
	fmt.Fprintf(w, "twodprof_wal_bytes_written_total %d\n", m.WALBytes.Load())
	fmt.Fprintf(w, "twodprof_wal_repairs_total %d\n", m.WALRepairs.Load())
	fmt.Fprintf(w, "twodprof_sessions_recovered_total %d\n", m.SessionsRecovered.Load())
	fmt.Fprintf(w, "twodprof_sessions_idled_total %d\n", m.SessionsIdled.Load())
	fmt.Fprintf(w, "twodprof_wal_errors_total %d\n", m.WALErrors.Load())
}
