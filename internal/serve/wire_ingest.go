package serve

import (
	"fmt"
	"net/http"

	"twodprof/internal/trace"
	"twodprof/internal/wire"
)

// The daemon's second ingest front: the compact binary wire protocol
// (internal/wire, enabled by Config.WireAddr). Both fronts share
// beginSession/ingestRun, so a wire session is the same session — same
// registry entry, same WAL, same engine, same shedding and drain gates
// — reached over multiplexed TCP frames instead of an HTTP body. The
// router (internal/cluster) speaks this protocol to its nodes.

// wireHandler adapts the server to wire.Handler.
type wireHandler struct{ s *Server }

// Begin implements wire.Handler by admitting the session through the
// shared gate. Unlike the HTTP front — where http.Shutdown refusing new
// connections is the drain gate — wire connections are pooled and
// outlive Shutdown, so new begins on them must be refused explicitly.
func (h wireHandler) Begin(p wire.BeginParams) (wire.SessionSink, error) {
	if h.s.draining.Load() {
		return nil, &wire.Error{
			Code: wire.CodeUnavailable, RetryAfter: shedRetryAfter, Msg: "draining",
		}
	}
	run, ierr := h.s.beginSession(p)
	if ierr != nil {
		return nil, wireError(ierr)
	}
	return &wireSink{run: run}, nil
}

// wireError translates a session-setup refusal into its wire twin; the
// HTTP statuses map one-to-one onto protocol codes.
func wireError(e *ingestError) *wire.Error {
	code := wire.CodeInternal
	switch e.status {
	case http.StatusBadRequest:
		code = wire.CodeBadRequest
	case http.StatusConflict:
		code = wire.CodeConflict
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		code = wire.CodeUnavailable
	}
	return &wire.Error{Code: code, RetryAfter: e.retryAfter, Msg: e.msg}
}

// wireSink drives one admitted session from the wire server's stream
// goroutine.
type wireSink struct{ run *ingestRun }

// Events logs one chunk body as received, as a recChunk record on a
// durable daemon, and then applies its decoded events. The body's size
// stands in for the HTTP body bytes the other front meters.
func (ws *wireSink) Events(b *trace.SoABatch, body []byte) error {
	ws.run.session.bytes.Add(int64(len(body)))
	ws.run.s.metrics.Bytes.Add(int64(len(body)))
	if plog := ws.run.session.plog; plog != nil {
		if err := plog.append(recChunk, body); err != nil {
			err = fmt.Errorf("writing session log: %w", err)
			ws.run.fail(err)
			return err
		}
	}
	ws.run.events(b)
	return nil
}

// End completes the session and returns the terminal summary.
func (ws *wireSink) End() (wire.Summary, error) { return ws.run.complete() }

// Abort fails the session; its partial profile stays queryable.
func (ws *wireSink) Abort(reason error) { ws.run.fail(reason) }
