package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"twodprof/internal/trace"
	"twodprof/internal/wire"
)

// startWireServer boots a server with both fronts bound to loopback.
func startWireServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	cfg.WireAddr = "127.0.0.1:0"
	return startServer(t, cfg)
}

func dialWire(t testing.TB, srv *Server) *wire.Client {
	t.Helper()
	c, err := wire.Dial(srv.WireAddr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestWireIngestMatchesHTTP is the wire front's identity claim: the
// same event stream pushed over the binary protocol produces a
// /v1/report byte-identical to the HTTP ingest of the raw trace (and
// therefore, by TestEndToEndMatchesOffline, to the offline profiler).
func TestWireIngestMatchesHTTP(t *testing.T) {
	raw := kernelTrace(t, "fsm", "train", false)
	events := traceEvents(t, raw)
	srv := startWireServer(t, testConfig())

	if status, body := postTrace(t, srv, "/v1/ingest?session=http", raw); status != http.StatusOK {
		t.Fatalf("http ingest status %d: %s", status, body)
	}

	c := dialWire(t, srv)
	sess, err := c.Begin(wire.BeginParams{ID: "wire"})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Send(events); err != nil {
		t.Fatal(err)
	}
	sum, err := sess.End()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Session != "wire" || sum.State != "done" {
		t.Fatalf("wire summary: %+v", sum)
	}
	if sum.Events != int64(len(events)) {
		t.Fatalf("wire summary events = %d, want %d", sum.Events, len(events))
	}

	_, httpRep := get(t, srv, "/v1/report?session=http")
	_, wireRep := get(t, srv, "/v1/report?session=wire")
	if !bytes.Equal(httpRep, wireRep) {
		t.Fatalf("wire report differs from http report:\nhttp: %d bytes\nwire: %d bytes", len(httpRep), len(wireRep))
	}
}

// TestSliceMetricCountsEverySlice: once an HTTP session and a wire
// session complete, twodprof_slices_completed_total equals the sum of
// their summaries' slices. The slice size leaves a trailing partial
// slice that Finish completes, so the count must be folded again after
// the terminal transition.
func TestSliceMetricCountsEverySlice(t *testing.T) {
	raw := kernelTrace(t, "fsm", "train", false)
	events := traceEvents(t, raw)
	n := int64(len(events))
	slice := int64(1000)
	for rem := n % slice; rem == 0 || rem < slice/2; rem = n % slice {
		slice++
	}
	srv := startWireServer(t, testConfig())

	status, body := postTrace(t, srv, fmt.Sprintf("/v1/ingest?session=http&slice=%d", slice), raw)
	if status != http.StatusOK {
		t.Fatalf("http ingest status %d: %s", status, body)
	}
	var httpSum wire.Summary
	if err := json.Unmarshal(body, &httpSum); err != nil {
		t.Fatal(err)
	}
	sess, err := dialWire(t, srv).Begin(wire.BeginParams{ID: "wire", SliceSize: slice})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Send(events); err != nil {
		t.Fatal(err)
	}
	wireSum, err := sess.End()
	if err != nil {
		t.Fatal(err)
	}

	for _, sum := range []wire.Summary{httpSum, wireSum} {
		if want := n/slice + 1; sum.Slices != want {
			t.Fatalf("session %s: %d slices, want %d (the trailing partial slice completes)", sum.Session, sum.Slices, want)
		}
	}
	if got, want := metric(t, srv, "twodprof_slices_completed_total"), httpSum.Slices+wireSum.Slices; got != want {
		t.Errorf("twodprof_slices_completed_total = %d, want %d", got, want)
	}
}

// TestWireBeginValidation maps setup refusals onto wire error codes.
func TestWireBeginValidation(t *testing.T) {
	srv := startWireServer(t, testConfig())
	c := dialWire(t, srv)

	// The wire front refuses what the HTTP front answers 400 to.
	for _, p := range []wire.BeginParams{
		{ID: "x", Metric: "nope"},
		{ID: "neg-slice", SliceSize: -5},
	} {
		if _, err := c.Begin(p); err == nil {
			t.Fatalf("bad begin %+v accepted", p)
		} else {
			var werr *wire.Error
			if !errors.As(err, &werr) || werr.Code != wire.CodeBadRequest {
				t.Fatalf("bad begin %+v: %v", p, err)
			}
		}
	}

	// Duplicate ids conflict, exactly like HTTP's 409.
	s1, err := c.Begin(wire.BeginParams{ID: "dup"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Begin(wire.BeginParams{ID: "dup"}); err == nil {
		t.Fatal("duplicate session accepted")
	} else {
		var werr *wire.Error
		if !errors.As(err, &werr) || werr.Code != wire.CodeConflict {
			t.Fatalf("duplicate session error: %v", err)
		}
	}
	if _, err := s1.End(); err != nil {
		t.Fatal(err)
	}
}

// TestHealthzSplit checks the liveness/readiness split: liveness stays
// 200 through overload and drain, readiness flips to 503, and /healthz
// aliases readiness.
func TestHealthzSplit(t *testing.T) {
	cfg := testConfig()
	cfg.MaxActive = 1
	srv := startWireServer(t, cfg)

	if status, body := get(t, srv, "/healthz/live"); status != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("live = %d %q", status, body)
	}
	if status, _ := get(t, srv, "/healthz/ready"); status != http.StatusOK {
		t.Fatalf("ready = %d before load", status)
	}

	// Saturate the one admission slot with an active wire session.
	c := dialWire(t, srv)
	sess, err := c.Begin(wire.BeginParams{ID: "hog"})
	if err != nil {
		t.Fatal(err)
	}
	if status, body := get(t, srv, "/healthz/ready"); status != http.StatusServiceUnavailable ||
		strings.TrimSpace(string(body)) != "overloaded" {
		t.Fatalf("ready under load = %d %q", status, body)
	}
	if status, body := get(t, srv, "/healthz"); status != http.StatusServiceUnavailable ||
		strings.TrimSpace(string(body)) != "overloaded" {
		t.Fatalf("healthz alias under load = %d %q", status, body)
	}
	if status, _ := get(t, srv, "/healthz/live"); status != http.StatusOK {
		t.Fatalf("live under load = %d", status)
	}

	// Both fronts shed while saturated: HTTP answers 429 with a
	// Retry-After, wire refuses the begin as unavailable.
	resp, err := http.Post("http://"+srv.Addr()+"/v1/ingest?session=shed", "application/octet-stream", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed status = %d", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if _, err := c.Begin(wire.BeginParams{ID: "shed2"}); err == nil {
		t.Fatal("wire begin accepted at capacity")
	} else {
		var werr *wire.Error
		if !errors.As(err, &werr) || werr.Code != wire.CodeUnavailable || werr.RetryAfter <= 0 {
			t.Fatalf("wire shed error: %v", err)
		}
	}

	if status, body := get(t, srv, "/metrics"); status != http.StatusOK ||
		!strings.Contains(string(body), "twodprof_sessions_shed_total 2") {
		t.Fatalf("metrics after shed = %d:\n%s", status, body)
	}

	// Capacity frees when the hog finishes; readiness recovers.
	if _, err := sess.End(); err != nil {
		t.Fatal(err)
	}
	if status, _ := get(t, srv, "/healthz/ready"); status != http.StatusOK {
		t.Fatalf("ready after drain = %d", status)
	}
}

// TestWireDrainRefusesBegins checks the wire front's drain gate: pooled
// connections outlive Shutdown, so new begins on them must be refused
// explicitly.
func TestWireDrainRefusesBegins(t *testing.T) {
	srv := startWireServer(t, testConfig())
	c := dialWire(t, srv)

	srv.draining.Store(true)
	if _, err := c.Begin(wire.BeginParams{ID: "late"}); err == nil {
		t.Fatal("begin accepted while draining")
	} else {
		var werr *wire.Error
		if !errors.As(err, &werr) || werr.Code != wire.CodeUnavailable || werr.Msg != "draining" {
			t.Fatalf("draining error: %v", err)
		}
	}
	srv.draining.Store(false)
}

// TestSnapshotEndpoint exercises /v1/snapshot: per-session snapshots,
// and the group merge over a PC-disjoint collector group (the union
// DESIGN.md §3g's cluster aggregation rests on).
func TestSnapshotEndpoint(t *testing.T) {
	raw := kernelTrace(t, "fsm", "train", false)
	events := traceEvents(t, raw)
	srv := startWireServer(t, testConfig())
	c := dialWire(t, srv)

	// Partition the stream by PC parity into a two-collector group.
	var even, odd []trace.Event
	for _, ev := range events {
		if ev.PC%2 == 0 {
			even = append(even, ev)
		} else {
			odd = append(odd, ev)
		}
	}
	for name, part := range map[string][]trace.Event{"even": even, "odd": odd} {
		sess, err := c.Begin(wire.BeginParams{ID: name, Group: "g"})
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Send(part); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.End(); err != nil {
			t.Fatal(err)
		}
	}

	if status, _ := get(t, srv, "/v1/snapshot?session=even"); status != http.StatusOK {
		t.Fatalf("session snapshot status %d", status)
	}
	status, body := get(t, srv, "/v1/snapshot?group=g")
	if status != http.StatusOK {
		t.Fatalf("group snapshot status %d: %s", status, body)
	}
	var merged struct {
		Branches []struct {
			PC uint64 `json:"pc"`
		} `json:"branches"`
	}
	if err := json.Unmarshal(body, &merged); err != nil {
		t.Fatal(err)
	}
	seen := map[bool]bool{} // parity → present
	for _, b := range merged.Branches {
		seen[b.PC%2 == 0] = true
	}
	if !seen[true] || !seen[false] {
		t.Fatalf("merged group snapshot missing a member's branches (parities seen: %v)", seen)
	}

	// The group listing carries the tag.
	_, body = get(t, srv, "/v1/sessions")
	var infos []SessionInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatal(err)
	}
	tagged := 0
	for _, in := range infos {
		if in.Group == "g" {
			tagged++
		}
	}
	if tagged != 2 {
		t.Fatalf("sessions listing shows %d group members, want 2:\n%s", tagged, body)
	}

	// Error shapes.
	if status, _ := get(t, srv, "/v1/snapshot?session=ghost"); status != http.StatusNotFound {
		t.Fatalf("unknown session snapshot status %d", status)
	}
	if status, _ := get(t, srv, "/v1/snapshot?group=ghost"); status != http.StatusNotFound {
		t.Fatalf("unknown group snapshot status %d", status)
	}
	if status, _ := get(t, srv, "/v1/snapshot"); status != http.StatusBadRequest {
		t.Fatalf("bare snapshot status %d", status)
	}
}
