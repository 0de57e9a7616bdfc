package serve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"twodprof/internal/asmcheck"
	"twodprof/internal/core"
	"twodprof/internal/engine"
	"twodprof/internal/progs"
	"twodprof/internal/trace"
	"twodprof/internal/wire"
)

// ingestFlushEvery bounds how stale the shared event counters may get:
// the decode loop folds its local counts into the atomics every this
// many events.
const ingestFlushEvery = 4096

// ingestBodyBuffer is the bufio window over the request body.
const ingestBodyBuffer = 128 << 10

// maxRequestShards caps the per-request shards parameter. Old clients
// and the router still send it; it is range-checked and otherwise
// ignored.
const maxRequestShards = 128

// maxSessionID caps client-chosen session ids — they become WAL file
// names (escaped), and filesystems cap name components at 255 bytes.
const maxSessionID = 64

// shedRetryAfter is the Retry-After clients are told when the daemon
// sheds their session at the MaxActive cap.
const shedRetryAfter = time.Second

// bodyReader meters a request body and re-arms the per-read deadline so
// a stalled client cannot pin a session forever.
type bodyReader struct {
	r       io.Reader
	rc      *http.ResponseController
	timeout time.Duration
	session *Session
	metrics *Metrics
}

func (b *bodyReader) Read(p []byte) (int, error) {
	if b.timeout > 0 {
		// Best-effort: not every ResponseWriter supports deadlines
		// (httptest's recorder does not); ingest still works, unbounded.
		_ = b.rc.SetReadDeadline(time.Now().Add(b.timeout))
	}
	n, err := b.r.Read(p)
	if n > 0 {
		b.session.bytes.Add(int64(n))
		b.metrics.Bytes.Add(int64(n))
	}
	return n, err
}

// paramsFromQuery parses the ingest overrides out of an HTTP query
// into the wire begin message's shape, so both ingest fronts hand
// beginSession the same parameters. beginSession checks their ranges;
// only an explicit zero is refused here, because zero is the wire's
// "server default" and an HTTP client omits the parameter for that.
func paramsFromQuery(q url.Values) (wire.BeginParams, error) {
	p := wire.BeginParams{
		ID:          q.Get("session"),
		Tenant:      q.Get("tenant"),
		Group:       q.Get("group"),
		Metric:      q.Get("metric"),
		Predictor:   q.Get("predictor"),
		Aggregation: q.Get("agg"),
		Kernel:      q.Get("kernel"),
	}
	if v := q.Get("slice"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n == 0 {
			return p, fmt.Errorf("bad slice %q (want a positive integer)", v)
		}
		p.SliceSize = n
	}
	if v := q.Get("shards"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n == 0 {
			return p, fmt.Errorf("bad shards %q (want 1..%d)", v, maxRequestShards)
		}
		p.Shards = n
	}
	return p, nil
}

// ingestError is a typed session-setup refusal, carrying enough for
// either front to speak its native tongue: the HTTP status (plus
// Retry-After for 429/503) maps one-to-one onto wire error codes.
type ingestError struct {
	status     int
	retryAfter time.Duration
	msg        string
}

func (e *ingestError) Error() string { return e.msg }

// write renders the refusal as an HTTP response.
func (e *ingestError) write(w http.ResponseWriter) {
	if e.retryAfter > 0 {
		secs := int(e.retryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	http.Error(w, e.msg, e.status)
}

// ingestRun is one admitted session's streaming state, owned by a
// single goroutine (the HTTP handler or the wire stream goroutine):
// the decoded-event path into the WAL and the engine, the counter
// folding, and the single-shot terminal transitions.
type ingestRun struct {
	s       *Server
	session *Session
	eng     *engine.Engine
	local   int64
	done    bool
}

// beginSession admits one session: the load-shedding gate, override
// resolution, engine construction, registry and (durable daemons) WAL
// setup. Both ingest fronts call it; a non-nil ingestError says why
// the session was refused. Draining is not checked here — the HTTP
// front inherits http.Shutdown's no-new-connections semantics, and the
// wire front (whose pooled connections outlive Shutdown) gates begins
// itself.
func (s *Server) beginSession(p wire.BeginParams) (*ingestRun, *ingestError) {
	if s.cfg.MaxActive > 0 && s.metrics.ActiveSessions.Load() >= int64(s.cfg.MaxActive) {
		s.metrics.Shed.Add(1)
		return nil, &ingestError{
			status: http.StatusTooManyRequests, retryAfter: shedRetryAfter,
			msg: fmt.Sprintf("at capacity (%d active sessions)", s.cfg.MaxActive),
		}
	}

	cfg := s.cfg.Profile
	predictor := s.cfg.Predictor
	switch p.Metric {
	case "":
	case "accuracy":
		cfg.Metric = core.MetricAccuracy
	case "bias":
		cfg.Metric = core.MetricBias
	default:
		return nil, &ingestError{status: http.StatusBadRequest,
			msg: fmt.Sprintf("unknown metric %q (want accuracy or bias)", p.Metric)}
	}
	if p.Predictor != "" {
		predictor = p.Predictor
	}
	switch {
	case p.SliceSize < 0:
		return nil, &ingestError{status: http.StatusBadRequest,
			msg: fmt.Sprintf("bad slice %d (want a positive integer)", p.SliceSize)}
	case p.SliceSize > 0:
		cfg.SliceSize = p.SliceSize
	}
	if p.Shards < 0 || p.Shards > maxRequestShards {
		return nil, &ingestError{status: http.StatusBadRequest,
			msg: fmt.Sprintf("bad shards %d (want 1..%d)", p.Shards, maxRequestShards)}
	}
	var agg engine.AggMode
	if p.Aggregation != "" {
		var err error
		if agg, err = engine.ParseAggMode(p.Aggregation); err != nil {
			return nil, &ingestError{status: http.StatusBadRequest, msg: err.Error()}
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, &ingestError{status: http.StatusBadRequest, msg: err.Error()}
	}

	// Kernel names the bundled program that produced the stream; its
	// asmcheck verdicts become the report's static prefilter column.
	// Without it the report is unannotated (a raw trace carries no
	// program identity).
	var static map[trace.PC]string
	if p.Kernel != "" {
		k, ok := progs.KernelByName(p.Kernel)
		if !ok {
			return nil, &ingestError{status: http.StatusBadRequest,
				msg: fmt.Sprintf("unknown kernel %q (known: %s)",
					p.Kernel, strings.Join(progs.KernelNames(), ", "))}
		}
		static = asmcheck.StaticClasses(k.Prog)
	}
	if len(p.ID) > maxSessionID {
		return nil, &ingestError{status: http.StatusBadRequest,
			msg: fmt.Sprintf("session id longer than %d bytes", maxSessionID)}
	}
	eng, err := engine.New(cfg, engine.Options{
		Predictor:   predictor,
		Aggregation: agg,
		Static:      static,
		OnSlice:     func() { s.metrics.Slices.Add(1) },
	})
	if err != nil {
		return nil, &ingestError{status: http.StatusBadRequest, msg: err.Error()}
	}

	session, err := s.registry.Begin(p.ID, p.Group, eng)
	if err != nil {
		eng.Abort()
		return nil, &ingestError{status: http.StatusConflict, msg: err.Error()}
	}
	// The session is already registered, but static, plog and store are
	// read only by this goroutine or after the terminal transition, which
	// this goroutine makes under the session lock.
	session.static = static
	if s.store != nil {
		// Durable mode: open the session's write-ahead log before any
		// event flows; decoded batches are teed into it ahead of the
		// in-memory engine.
		plog, perr := s.store.Create(sessionMeta{
			ID:          session.ID,
			Group:       p.Group,
			Profile:     cfg,
			Predictor:   predictor,
			Shards:      p.Shards,
			Aggregation: agg.String(),
			Kernel:      p.Kernel,
		})
		if perr != nil {
			s.registry.Remove(session.ID)
			eng.Abort()
			return nil, &ingestError{status: http.StatusInternalServerError,
				msg: fmt.Sprintf("opening session log: %v", perr)}
		}
		session.plog, session.store = plog, s.store
	}
	s.metrics.SessionsTotal.Add(1)
	s.metrics.ActiveSessions.Add(1)
	return &ingestRun{s: s, session: session, eng: eng}, nil
}

// events applies one decoded batch: WAL first, engine second, counters
// folded every ingestFlushEvery events.
func (ir *ingestRun) events(b *trace.SoABatch) error {
	if err := ir.session.logEvents(b); err != nil {
		return fmt.Errorf("writing session log: %w", err)
	}
	ir.eng.BranchBatchSoA(b)
	if ir.local += int64(b.Len()); ir.local >= ingestFlushEvery {
		ir.flushCounters()
	}
	return nil
}

// flushCounters folds the local event count into the shared atomics.
func (ir *ingestRun) flushCounters() {
	ir.session.events.Add(ir.local)
	ir.s.metrics.Events.Add(ir.local)
	ir.local = 0
}

// finish retires the run from the active-session gauge exactly once.
func (ir *ingestRun) finish() {
	if !ir.done {
		ir.done = true
		ir.s.metrics.ActiveSessions.Add(-1)
	}
}

// complete fixes the session's final report and returns the terminal
// summary, which is also the JSON response of a completed ingest.
func (ir *ingestRun) complete() (wire.Summary, error) {
	ir.flushCounters()
	defer ir.finish()
	rep, err := ir.session.complete()
	if err != nil {
		return ir.failSummary(err), err
	}
	return wire.Summary{
		Session:        ir.session.ID,
		State:          ir.session.State().String(),
		Events:         ir.session.Events(),
		Bytes:          ir.session.bytes.Load(),
		Slices:         rep.Slices,
		Branches:       len(rep.Branches),
		Overall:        rep.Overall,
		InputDependent: len(rep.InputDependent()),
	}, nil
}

// fail marks the session failed (single-shot; the partial profile stays
// queryable) and returns the terminal summary.
func (ir *ingestRun) fail(reason error) wire.Summary {
	ir.flushCounters()
	defer ir.finish()
	return ir.failSummary(reason)
}

func (ir *ingestRun) failSummary(reason error) wire.Summary {
	ir.session.fail(reason)
	ir.s.metrics.SessionsFailed.Add(1)
	return wire.Summary{
		Session: ir.session.ID,
		State:   ir.session.State().String(),
		Events:  ir.session.Events(),
		Bytes:   ir.session.bytes.Load(),
		Error:   reason.Error(),
	}
}

// handleIngest services POST /v1/ingest: it decodes a BTR1, BTR2 or
// BTR3 stream (any of them optionally gzip-wrapped) from the request
// body one SoA batch at a time — up to trace.ReadBatchEvents events of
// BTR1, one chunk of BTR2/BTR3 — profiles it on this goroutine through
// one internal/engine run, and on EOF fixes the session's final
// report. Backpressure is end to end: the handler reads the body only
// as fast as it profiles, and a slower read stalls the client through
// TCP flow control.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "ingest wants POST", http.StatusMethodNotAllowed)
		return
	}
	params, err := paramsFromQuery(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	run, ierr := s.beginSession(params)
	if ierr != nil {
		ierr.write(w)
		return
	}

	body := &bodyReader{
		r:       r.Body,
		rc:      http.NewResponseController(w),
		timeout: s.cfg.ReadTimeout,
		session: run.session,
		metrics: s.metrics,
	}
	// The wide buffer amortises the per-Read deadline re-arm and byte
	// accounting over ~32 bufio refills (OpenReader reuses an existing
	// bufio.Reader instead of stacking its own).
	tr, err := trace.OpenReader(bufio.NewReaderSize(body, ingestBodyBuffer))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, run.fail(fmt.Errorf("opening stream: %w", err)))
		return
	}

	var batch trace.SoABatch
	for {
		rerr := tr.ReadBatch(&batch)
		if werr := run.events(&batch); werr != nil {
			writeJSON(w, http.StatusBadRequest, run.fail(werr))
			return
		}
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				break
			}
			writeJSON(w, http.StatusBadRequest, run.fail(fmt.Errorf("decoding stream: %w", rerr)))
			return
		}
	}

	sum, err := run.complete()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, sum)
		return
	}
	writeJSON(w, http.StatusOK, sum)
}
