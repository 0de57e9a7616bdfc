package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"twodprof/internal/bpred"
	"twodprof/internal/core"
	"twodprof/internal/progs"
	"twodprof/internal/trace"
)

// kernelTrace encodes one VM kernel run as BTR1 bytes (optionally
// gzip-compressed), memoised per (kernel, input, compressed).
var kernelTraceCache sync.Map

func kernelTrace(t testing.TB, kernel, input string, compressed bool) []byte {
	t.Helper()
	key := fmt.Sprintf("%s/%s/%v", kernel, input, compressed)
	if b, ok := kernelTraceCache.Load(key); ok {
		return b.([]byte)
	}
	inst, err := progs.StandardInput(kernel, input)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	var w interface {
		trace.Sink
		Close() error
	}
	if compressed {
		w, err = trace.NewCompressedWriter(&buf)
	} else {
		w, err = trace.NewWriter(&buf)
	}
	if err != nil {
		t.Fatal(err)
	}
	inst.Run(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	kernelTraceCache.Store(key, buf.Bytes())
	return buf.Bytes()
}

// offlineReportJSON replays raw trace bytes through a single offline
// profiler — exactly the cmd/profile2d path — and renders the report
// the way the server does.
func offlineReportJSON(t testing.TB, raw []byte, cfg core.Config, predictor string) []byte {
	t.Helper()
	var pred bpred.Predictor
	if cfg.Metric == core.MetricAccuracy {
		pred = bpred.MustNew(predictor)
	}
	prof, err := core.NewProfiler(cfg, pred)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.OpenReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Replay(prof); err != nil {
		t.Fatal(err)
	}
	return marshalReport(t, prof.Finish())
}

// marshalReport renders a report exactly as the server's writeJSON
// does (two-space indent, trailing newline).
func marshalReport(t testing.TB, rep *core.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// testConfig is the shared profiling setup of the end-to-end tests:
// small slices so the kernel traces produce a few hundred of them.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Addr = "127.0.0.1:0"
	cfg.Profile.SliceSize = 5000
	cfg.Profile.ExecThreshold = 20
	cfg.DrainTimeout = 5 * time.Second
	return cfg
}

// startServer boots a server on a loopback listener and tears it down
// with the test.
func startServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv
}

func postTrace(t testing.TB, srv *Server, path string, raw []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post("http://"+srv.Addr()+path, "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func get(t testing.TB, srv *Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get("http://" + srv.Addr() + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestEndToEndMatchesOffline is the subsystem's central claim: for a
// fixed trace, the daemon's /v1/report is byte-identical to the
// offline profiler, plain or gzip transport. The shards=N cases send
// the deleted shards session parameter, as older clients still do; the
// daemon no longer reads it, so the report must not change.
func TestEndToEndMatchesOffline(t *testing.T) {
	raw := kernelTrace(t, "fsm", "train", false)
	want := offlineReportJSON(t, raw, testConfig().Profile, DefaultConfig().Predictor)

	for _, shards := range []int{0, 1, 4, 8} {
		for _, compressed := range []bool{false, true} {
			name := fmt.Sprintf("gzip=%v", compressed)
			query := "/v1/ingest?session=e2e"
			if shards > 0 {
				name = fmt.Sprintf("shards=%d/%s", shards, name)
				query += fmt.Sprintf("&shards=%d", shards)
			}
			t.Run(name, func(t *testing.T) {
				srv := startServer(t, testConfig())
				payload := raw
				if compressed {
					payload = kernelTrace(t, "fsm", "train", true)
				}
				status, body := postTrace(t, srv, query, payload)
				if status != http.StatusOK {
					t.Fatalf("ingest status %d: %s", status, body)
				}
				status, got := get(t, srv, "/v1/report?session=e2e")
				if status != http.StatusOK {
					t.Fatalf("report status %d: %s", status, got)
				}
				if !bytes.Equal(want, got) {
					t.Errorf("%s: /v1/report differs from offline profile (%d vs %d bytes)",
						name, len(got), len(want))
				}
			})
		}
	}
}

// TestIngestBTR2MatchesOffline checks the chunked BTR2 format ingests
// through the same endpoint (OpenReader autodetects by magic) and
// yields the identical report, including with per-chunk compression
// and chunk sizes not aligned to the slice size.
func TestIngestBTR2MatchesOffline(t *testing.T) {
	raw := kernelTrace(t, "fsm", "train", false)
	want := offlineReportJSON(t, raw, testConfig().Profile, DefaultConfig().Predictor)

	// Re-encode the same events as BTR2.
	rd, err := trace.OpenReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(0)
	if _, err := rd.Replay(rec); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []trace.BTR2Options{
		{},
		{ChunkEvents: 4093, Compress: true},
	} {
		name := fmt.Sprintf("chunk=%d/z=%v", opts.ChunkEvents, opts.Compress)
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			w, err := trace.NewBTR2Writer(&buf, opts)
			if err != nil {
				t.Fatal(err)
			}
			w.BranchBatch(rec.Events)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			srv := startServer(t, testConfig())
			status, body := postTrace(t, srv, "/v1/ingest?session=b2", buf.Bytes())
			if status != http.StatusOK {
				t.Fatalf("ingest status %d: %s", status, body)
			}
			status, got := get(t, srv, "/v1/report?session=b2")
			if status != http.StatusOK {
				t.Fatalf("report status %d: %s", status, got)
			}
			if !bytes.Equal(want, got) {
				t.Errorf("%s: BTR2 ingest report differs from offline BTR1 profile", name)
			}
		})
	}
}

// TestIngestHammer slams one server with concurrent sessions while
// polling reports and metrics — the -race workout for the whole
// pipeline. Every session must finish with the same report the offline
// profiler produces.
func TestIngestHammer(t *testing.T) {
	raw := kernelTrace(t, "typesum", "train", false)
	want := offlineReportJSON(t, raw, testConfig().Profile, DefaultConfig().Predictor)

	srv := startServer(t, testConfig())
	base := "http://" + srv.Addr()
	const sessions = 6
	var wg sync.WaitGroup
	errs := make(chan error, sessions*2)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			url := fmt.Sprintf("%s/v1/ingest?session=hammer-%d", base, i)
			resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(raw))
			if err != nil {
				errs <- fmt.Errorf("session %d: %w", i, err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("session %d: status %d: %s", i, resp.StatusCode, body)
			}
		}(i)
		// Live reports, metrics and session listings must stay servable
		// during the ingest storm (any consistent snapshot is fine; only
		// availability is asserted here).
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				for _, path := range []string{
					fmt.Sprintf("/v1/report?session=hammer-%d", i),
					"/metrics",
					"/v1/sessions",
				} {
					resp, err := http.Get(base + path)
					if err != nil {
						errs <- fmt.Errorf("polling %s: %w", path, err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				time.Sleep(time.Millisecond)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	for i := 0; i < sessions; i++ {
		status, got := get(t, srv, fmt.Sprintf("/v1/report?session=hammer-%d", i))
		if status != http.StatusOK {
			t.Fatalf("final report %d: status %d", i, status)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("session %d final report differs from offline profile", i)
		}
	}
}

func TestIngestErrors(t *testing.T) {
	srv := startServer(t, testConfig())

	t.Run("empty body", func(t *testing.T) {
		status, body := postTrace(t, srv, "/v1/ingest?session=empty", nil)
		if status != http.StatusBadRequest {
			t.Fatalf("status %d: %s", status, body)
		}
		if !strings.Contains(string(body), "empty input") {
			t.Errorf("body %q does not diagnose empty input", body)
		}
	})
	t.Run("garbage body", func(t *testing.T) {
		status, body := postTrace(t, srv, "/v1/ingest?session=garbage", []byte("this is not a trace"))
		if status != http.StatusBadRequest {
			t.Fatalf("status %d: %s", status, body)
		}
	})
	t.Run("duplicate session", func(t *testing.T) {
		raw := kernelTrace(t, "typesum", "train", false)
		if status, body := postTrace(t, srv, "/v1/ingest?session=dup", raw); status != http.StatusOK {
			t.Fatalf("first ingest: %d %s", status, body)
		}
		if status, _ := postTrace(t, srv, "/v1/ingest?session=dup", raw); status != http.StatusConflict {
			t.Fatalf("duplicate session status %d, want %d", status, http.StatusConflict)
		}
	})
	t.Run("bad overrides", func(t *testing.T) {
		for _, q := range []string{"metric=nope", "slice=-3", "predictor=typo"} {
			if status, _ := postTrace(t, srv, "/v1/ingest?"+q, nil); status != http.StatusBadRequest {
				t.Errorf("override %q: status %d, want 400", q, status)
			}
		}
	})
	t.Run("unknown report session", func(t *testing.T) {
		if status, _ := get(t, srv, "/v1/report?session=missing"); status != http.StatusNotFound {
			t.Errorf("unknown session status %d, want 404", status)
		}
	})
	t.Run("method mismatch", func(t *testing.T) {
		if status, _ := get(t, srv, "/v1/ingest"); status != http.StatusMethodNotAllowed {
			t.Errorf("GET ingest status %d, want 405", status)
		}
	})

	// Failed sessions are visible in /v1/sessions with their reason.
	status, body := get(t, srv, "/v1/sessions")
	if status != http.StatusOK {
		t.Fatalf("sessions status %d", status)
	}
	if !strings.Contains(string(body), "failed") {
		t.Errorf("sessions listing %s does not show the failed sessions", body)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	srv := startServer(t, testConfig())
	if status, body := get(t, srv, "/healthz"); status != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %q", status, body)
	}

	raw := kernelTrace(t, "typesum", "train", false)
	if status, body := postTrace(t, srv, "/v1/ingest", raw); status != http.StatusOK {
		t.Fatalf("ingest: %d %s", status, body)
	}
	_, metrics := get(t, srv, "/metrics")
	text := string(metrics)
	for _, key := range []string{
		"twodprof_events_ingested_total",
		"twodprof_events_per_second",
		"twodprof_bytes_ingested_total",
		"twodprof_slices_completed_total",
		"twodprof_sessions_active",
		"twodprof_sessions_total",
	} {
		if !strings.Contains(text, key) {
			t.Errorf("metrics output missing %s:\n%s", key, text)
		}
	}
	var events int64
	if _, err := fmt.Sscanf(text[strings.Index(text, "twodprof_events_ingested_total"):],
		"twodprof_events_ingested_total %d", &events); err != nil {
		t.Fatal(err)
	}
	if events != 528273 {
		t.Errorf("events ingested = %d, want 528273 (typesum train)", events)
	}

	// An anonymous ingest session gets a generated id and becomes the
	// default report target.
	if status, _ := get(t, srv, "/v1/report"); status != http.StatusOK {
		t.Errorf("default report status %d", status)
	}
}

// TestSessionGroupRace: a session's group is fixed before the session
// is published, so group snapshot merges and session listings that run
// beside group ingests read it without a data race (run under -race).
func TestSessionGroupRace(t *testing.T) {
	srv := startServer(t, testConfig())
	base := "http://" + srv.Addr()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, path := range []string{"/v1/snapshot?group=g", "/v1/sessions"} {
				resp, err := http.Get(base + path)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()
	const sessions = 30
	for i := 0; i < sessions; i++ {
		// Disjoint PCs per member, so the group stays mergeable.
		var buf bytes.Buffer
		w, err := trace.NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 2000; j++ {
			w.Branch(trace.PC(0x10000*(i+1)+4*(j%50)), j%3 == 0)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if status, body := postTrace(t, srv, fmt.Sprintf("/v1/ingest?session=g%d&group=g", i), buf.Bytes()); status != http.StatusOK {
			t.Fatalf("ingest %d: %d %s", i, status, body)
		}
	}
	close(stop)
	wg.Wait()
	status, body := get(t, srv, "/v1/snapshot?group=g")
	if status != http.StatusOK {
		t.Fatalf("group snapshot: %d %s", status, body)
	}
	var snap core.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.TotalExec != sessions*2000 {
		t.Errorf("group snapshot counts %d branches, want %d", snap.TotalExec, sessions*2000)
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	cfg := testConfig()
	srv := startServer(t, cfg)

	// Stream a session through a deliberately slow pipe while shutdown
	// runs: the session must complete, not be cut off.
	raw := kernelTrace(t, "typesum", "train", false)
	pr, pw := io.Pipe()
	type result struct {
		status int
		err    error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Post("http://"+srv.Addr()+"/v1/ingest?session=drain", "application/octet-stream", pr)
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		io.ReadAll(resp.Body)
		resc <- result{status: resp.StatusCode}
	}()
	// First half now; second half after shutdown begins.
	half := len(raw) / 2
	if _, err := pw.Write(raw[:half]); err != nil {
		t.Fatal(err)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	time.Sleep(50 * time.Millisecond) // let Shutdown flip to draining
	if _, err := pw.Write(raw[half:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()

	res := <-resc
	if res.err != nil {
		t.Fatalf("in-flight session broken by shutdown: %v", res.err)
	}
	if res.status != http.StatusOK {
		t.Fatalf("in-flight session status %d", res.status)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestConfigValidate: the defaults (in memory and durable) pass, and
// each invalid field is refused with an error that names it.
func TestConfigValidate(t *testing.T) {
	durable := func(c *Config) { c.DataDir = t.TempDir() }
	valid := []struct {
		name string
		set  func(*Config)
	}{
		{"defaults", func(*Config) {}},
		{"durable defaults", durable},
		{"zero timeouts", func(c *Config) { c.ReadTimeout, c.DrainTimeout = 0, 0 }},
		{"bias without predictor", func(c *Config) { c.Profile.Metric, c.Predictor = core.MetricBias, "" }},
	}
	for _, tc := range valid {
		t.Run("accepts "+tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.set(&cfg)
			if err := cfg.Validate(); err != nil {
				t.Fatalf("rejected: %v", err)
			}
		})
	}

	invalid := []struct {
		field, value string
		set          func(*Config)
	}{
		{"ReadTimeout", "-1s", func(c *Config) { c.ReadTimeout = -time.Second }},
		{"DrainTimeout", "-1s", func(c *Config) { c.DrainTimeout = -time.Second }},
		{"MaxSessions", "0", func(c *Config) { c.MaxSessions = 0 }},
		{"Fsync", "interval/0", func(c *Config) { durable(c); c.Fsync.Interval = 0 }},
		{"Predictor", "typo", func(c *Config) { c.Predictor = "gshare-4kb" }},
		{"Profile", "SliceSize=0", func(c *Config) { c.Profile.SliceSize = 0 }},
	}
	for _, tc := range invalid {
		t.Run("rejects "+tc.field+"="+tc.value, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.set(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("error %q does not name %s", err, tc.field)
			}
		})
	}
}
