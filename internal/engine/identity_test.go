package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"twodprof/internal/asmcheck"
	"twodprof/internal/bpred"
	"twodprof/internal/cluster"
	"twodprof/internal/core"
	"twodprof/internal/engine"
	"twodprof/internal/progs"
	"twodprof/internal/serve"
	"twodprof/internal/trace"
	"twodprof/internal/wire"
)

// matrixConfig is the shared profiling setup of the cross-path matrix:
// small slices so the kernel runs produce a few hundred of them.
func matrixConfig(metric core.Metric) core.Config {
	cfg := core.DefaultConfig()
	cfg.Metric = metric
	cfg.SliceSize = 5000
	cfg.ExecThreshold = 20
	return cfg
}

const matrixPredictor = "gshare-4KB"

// marshal renders a report the way the daemon's writeJSON does
// (two-space indent, trailing newline), so daemon bodies compare
// byte-for-byte against local reports.
func marshal(t testing.TB, rep *core.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// referenceReport is the ground truth every path must reproduce: a
// plain, unsharded core.Profiler driven one event at a time through
// Branch — the pre-engine code path, kept in the test on purpose so
// the engine is pinned to the primitive it replaced, sharing no batch
// code with the paths under test.
func referenceReport(t testing.TB, events []trace.Event, cfg core.Config) *core.Report {
	t.Helper()
	var pred bpred.Predictor
	if cfg.Metric == core.MetricAccuracy {
		pred = bpred.MustNew(matrixPredictor)
	}
	prof, err := core.NewProfiler(cfg, pred)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		prof.Branch(e.PC, e.Taken)
	}
	return prof.Finish()
}

// encodeBTR1 / encodeBTR2 re-encode a recorded event stream in each
// trace format.
func encodeBTR1(t testing.TB, events []trace.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.BranchBatch(events)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func encodeBTR2(t testing.TB, events []trace.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	// Chunk size deliberately unaligned to the slice size.
	w, err := trace.NewBTR2Writer(&buf, trace.BTR2Options{ChunkEvents: 4093})
	if err != nil {
		t.Fatal(err)
	}
	w.BranchBatch(events)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// encodeBTR3 re-encodes the stream in the context-tagged chunked
// format; a single-context stream is valid BTR3 and must profile to
// the same bytes as every other encoding.
func encodeBTR3(t testing.TB, events []trace.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewBTR3Writer(&buf, trace.BTR2Options{ChunkEvents: 4093})
	if err != nil {
		t.Fatal(err)
	}
	w.BranchBatch(events)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// daemonReport ingests a trace into a freshly started daemon, sending
// shards as the session's shards parameter, and returns the /v1/report
// body.
func daemonReport(t testing.TB, cfg core.Config, shards int, raw []byte, query string) []byte {
	t.Helper()
	scfg := serve.DefaultConfig()
	scfg.Addr = "127.0.0.1:0"
	scfg.Predictor = matrixPredictor
	scfg.Profile = cfg
	scfg.DrainTimeout = 5 * time.Second
	srv, err := serve.NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	url := fmt.Sprintf("http://%s/v1/ingest?session=matrix&shards=%d%s", srv.Addr(), shards, query)
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, body)
	}
	resp, err = http.Get("http://" + srv.Addr() + "/v1/report?session=matrix")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report status %d: %s", resp.StatusCode, body)
	}
	return body
}

// clusterReports ingests the same stream three ways through a
// three-node cluster behind a router — BTR1 over router HTTP, BTR2
// over router HTTP, and raw events over the router's binary wire
// front — and returns each routed /v1/report body. Each session id
// hashes to whatever node the ring picks; the router must still serve
// the same bytes a lone daemon would.
func clusterReports(t testing.TB, cfg core.Config, btr1, btr2, btr3 []byte, events []trace.Event, query string) map[string][]byte {
	t.Helper()
	members := make([]cluster.Node, 3)
	for i := range members {
		scfg := serve.DefaultConfig()
		scfg.Addr = "127.0.0.1:0"
		scfg.WireAddr = "127.0.0.1:0"
		scfg.Predictor = matrixPredictor
		scfg.Profile = cfg
		scfg.DrainTimeout = 5 * time.Second
		srv, err := serve.NewServer(scfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}()
		members[i] = cluster.Node{
			Name:     fmt.Sprintf("n%d", i+1),
			HTTPAddr: srv.Addr(),
			WireAddr: srv.WireAddr(),
		}
	}
	rt, err := cluster.NewRouter(cluster.Config{
		Addr:     "127.0.0.1:0",
		WireAddr: "127.0.0.1:0",
		Nodes:    members,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
	}()

	fetch := func(id string) []byte {
		resp, err := http.Get("http://" + rt.Addr() + "/v1/report?session=" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("routed report %s: status %d: %s", id, resp.StatusCode, body)
		}
		return body
	}
	out := make(map[string][]byte, 4)
	for name, raw := range map[string][]byte{"btr1": btr1, "btr2": btr2, "btr3": btr3} {
		id := "cm-" + name
		url := "http://" + rt.Addr() + "/v1/ingest?session=" + id + query
		resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("routed ingest %s: status %d: %s", id, resp.StatusCode, body)
		}
		out[name] = fetch(id)
	}

	c, err := wire.Dial(rt.WireAddr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	params := wire.BeginParams{ID: "cm-wire"}
	if cfg.Metric == core.MetricBias {
		params.Metric = "bias"
	}
	sess, err := c.Begin(params)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Send(events); err != nil {
		t.Fatal(err)
	}
	if sum, err := sess.End(); err != nil {
		t.Fatal(err)
	} else if sum.State != "done" {
		t.Fatalf("wire session ended %q: %s", sum.State, sum.Error)
	}
	out["wire"] = fetch("cm-wire")
	return out
}

// TestCrossPathIdentityMatrix is the PR's central claim: for every
// kernel × metric combination, every way events can reach a profiler —
// live VM run through the engine, sequential BTR1 replay, parallel
// BTR2 replay at several worker counts, daemon HTTP ingest, and
// routed ingest through a three-node cluster (HTTP and binary wire) —
// produces a byte-identical report, equal to a plain unsharded
// sequential profiler over the same events.
func TestCrossPathIdentityMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-path matrix is not short")
	}
	for _, kernel := range []string{"fsm", "typesum"} {
		inst, err := progs.StandardInput(kernel, "train")
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder(0)
		inst.Run(rec)
		events := rec.Events
		btr1 := encodeBTR1(t, events)
		btr2 := encodeBTR2(t, events)
		btr3 := encodeBTR3(t, events)

		for _, metric := range []core.Metric{core.MetricAccuracy, core.MetricBias} {
			cfg := matrixConfig(metric)
			want := marshal(t, referenceReport(t, events, cfg))
			prefix := fmt.Sprintf("%s/%s", kernel, metric)

			check := func(name string, got []byte) {
				if !bytes.Equal(want, got) {
					t.Errorf("%s/%s: report differs from the sequential reference (%d vs %d bytes)",
						prefix, name, len(got), len(want))
				}
			}

			// Live VM run through the engine, sequential and sharded.
			for _, workers := range []int{1, 4} {
				inst, err := progs.StandardInput(kernel, "train")
				if err != nil {
					t.Fatal(err)
				}
				rep, err := engine.Run(inst, cfg, engine.Options{Workers: workers, Predictor: matrixPredictor})
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("live/workers=%d", workers), marshal(t, rep))
			}

			// BTR1 replay (always a sequential decode).
			rep, err := engine.ProfileStream(bytes.NewReader(btr1), cfg, engine.Options{Workers: 1, Predictor: matrixPredictor})
			if err != nil {
				t.Fatal(err)
			}
			check("btr1", marshal(t, rep))

			// BTR2/BTR3 replay across worker counts (parallel chunk
			// decode; BTR3 adds the context-run table to every chunk).
			for _, workers := range []int{1, 4, 8} {
				rep, err := engine.ProfileStream(bytes.NewReader(btr2), cfg, engine.Options{Workers: workers, Predictor: matrixPredictor})
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("btr2/workers=%d", workers), marshal(t, rep))
				rep, err = engine.ProfileStream(bytes.NewReader(btr3), cfg, engine.Options{Workers: workers, Predictor: matrixPredictor})
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("btr3/workers=%d", workers), marshal(t, rep))
			}

			// Daemon ingest, BTR1, BTR2 and BTR3 bodies, sharded.
			query := ""
			if metric == core.MetricBias {
				query = "&metric=bias"
			}
			check("daemon/btr1", daemonReport(t, cfg, 4, btr1, query))
			check("daemon/btr2", daemonReport(t, cfg, 4, btr2, query))
			check("daemon/btr3", daemonReport(t, cfg, 4, btr3, query))

			// Cluster column: the same streams through a 3-node cluster
			// behind the router, over HTTP and the binary wire protocol.
			for name, got := range clusterReports(t, cfg, btr1, btr2, btr3, events, query) {
				check("cluster/"+name, got)
			}
		}
	}
}

// TestAnnotatedLiveMatchesAnnotatedReplay pins the static-prefilter
// satellite: a live engine run annotated through Options.Static is
// byte-identical to a replay of the same events with the same
// annotation, and to a daemon ingest with ?kernel=.
func TestAnnotatedLiveMatchesAnnotatedReplay(t *testing.T) {
	const kernel = "typesum"
	inst, err := progs.StandardInput(kernel, "train")
	if err != nil {
		t.Fatal(err)
	}
	classes := asmcheck.StaticClasses(inst.Kernel.Prog)
	rec := trace.NewRecorder(0)
	inst.Run(rec)
	btr1 := encodeBTR1(t, rec.Events)
	cfg := matrixConfig(core.MetricAccuracy)

	liveInst, err := progs.StandardInput(kernel, "train")
	if err != nil {
		t.Fatal(err)
	}
	live, err := engine.Run(liveInst, cfg, engine.Options{Workers: 1, Predictor: matrixPredictor, Static: classes})
	if err != nil {
		t.Fatal(err)
	}
	if len(live.StaticClass) == 0 {
		t.Fatal("live engine report carries no static annotation")
	}
	want := marshal(t, live)

	replayed, err := engine.ProfileStream(bytes.NewReader(btr1), cfg,
		engine.Options{Workers: 4, Predictor: matrixPredictor, Static: classes})
	if err != nil {
		t.Fatal(err)
	}
	if got := marshal(t, replayed); !bytes.Equal(want, got) {
		t.Errorf("annotated replay report differs from annotated live report")
	}

	if got := daemonReport(t, cfg, 4, btr1, "&kernel="+kernel); !bytes.Equal(want, got) {
		t.Errorf("annotated daemon report differs from annotated live report")
	}
}
