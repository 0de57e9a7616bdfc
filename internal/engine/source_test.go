package engine_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"twodprof/internal/core"
	"twodprof/internal/engine"
	"twodprof/internal/synth"
	"twodprof/internal/trace"
)

// Stream-source tests: engine.ProfileStream over every trace format,
// chunk geometry and worker count the offline replay path meets.

// streamEvents records one synthetic workload with a wide-ish static
// footprint, memoised across tests.
var (
	streamEventsOnce sync.Once
	streamEventsVal  []trace.Event
)

func streamEvents(t testing.TB) []trace.Event {
	t.Helper()
	streamEventsOnce.Do(func() {
		cfg := synth.DefaultPopulationConfig("replay-test", 0xabcd)
		cfg.NumSites = 800
		cfg.DynTarget = 300_000
		rec := trace.NewRecorder(int(cfg.DynTarget))
		synth.NewPopulation(cfg).Workload("train").Run(rec)
		streamEventsVal = rec.Events
	})
	return streamEventsVal
}

// streamConfig uses a slice size small enough for a few dozen slices
// per run, and deliberately not a power of two so "unaligned" chunk
// sizes exist.
func streamConfig(metric core.Metric) core.Config {
	cfg := core.DefaultConfig()
	cfg.SliceSize = 5000
	cfg.ExecThreshold = 10
	cfg.Metric = metric
	return cfg
}

func streamOpts(workers int) engine.Options {
	return engine.Options{Workers: workers, Predictor: matrixPredictor}
}

func encodeBTR2With(t testing.TB, events []trace.Event, opts trace.BTR2Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewBTR2Writer(&buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	w.BranchBatch(events)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func profileStream(t testing.TB, raw []byte, cfg core.Config, opts engine.Options) []byte {
	t.Helper()
	rep, err := engine.ProfileStream(bytes.NewReader(raw), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return marshal(t, rep)
}

// TestParallelMatchesSequential is the offline pipeline's determinism
// claim: BTR2 replay is byte-identical to the sequential BTR1 replay of
// the same events, for both metrics, at several worker counts, with
// chunk sizes both aligned and not aligned to the slice size and with
// per-chunk compression.
func TestParallelMatchesSequential(t *testing.T) {
	events := streamEvents(t)
	btr1 := encodeBTR1(t, events)

	for _, metric := range []core.Metric{core.MetricBias, core.MetricAccuracy} {
		cfg := streamConfig(metric)
		want := profileStream(t, btr1, cfg, streamOpts(1))

		// 5000 divides 10000 (chunk boundary = slice boundary); 4093 is
		// prime, so every slice boundary lands mid-chunk somewhere.
		for _, chunk := range []int{10000, 4093} {
			for _, compress := range []bool{false, true} {
				if compress && chunk == 10000 {
					continue // one compressed column is enough
				}
				btr2 := encodeBTR2With(t, events, trace.BTR2Options{ChunkEvents: chunk, Compress: compress})
				for _, workers := range []int{1, 4, 8} {
					if got := profileStream(t, btr2, cfg, streamOpts(workers)); !bytes.Equal(got, want) {
						t.Errorf("%s/chunk=%d/z=%v/workers=%d: report differs from sequential BTR1 replay",
							metric, chunk, compress, workers)
					}
				}
			}
		}
	}
}

// TestBTR1SequentialFallback checks a BTR1 stream profiles correctly
// even when parallelism was requested (no chunk framing to exploit).
func TestBTR1SequentialFallback(t *testing.T) {
	btr1 := encodeBTR1(t, streamEvents(t))
	cfg := streamConfig(core.MetricAccuracy)
	if !bytes.Equal(profileStream(t, btr1, cfg, streamOpts(1)), profileStream(t, btr1, cfg, streamOpts(8))) {
		t.Fatal("BTR1 report depends on the Workers option")
	}
}

// TestPredictorValidated mirrors the profile2d contract: a bad
// predictor name fails loudly in both metric modes when a trace is
// replayed, not only when an engine is built directly.
func TestPredictorValidated(t *testing.T) {
	btr2 := encodeBTR2With(t, streamEvents(t)[:1000], trace.BTR2Options{})
	for _, metric := range []core.Metric{core.MetricBias, core.MetricAccuracy} {
		opts := engine.Options{Predictor: "no-such-predictor"}
		if _, err := engine.ProfileStream(bytes.NewReader(btr2), streamConfig(metric), opts); err == nil {
			t.Errorf("metric %s accepted a bad predictor name", metric)
		}
	}
	// Bias with an empty name is edge profiling: fine.
	if _, err := engine.ProfileStream(bytes.NewReader(btr2), streamConfig(core.MetricBias), engine.Options{}); err != nil {
		t.Errorf("bias with empty predictor: %v", err)
	}
}

// TestTruncatedStreamFails checks a stream cut mid-chunk surfaces an
// error rather than a silently short report.
func TestTruncatedStreamFails(t *testing.T) {
	btr2 := encodeBTR2With(t, streamEvents(t)[:50000], trace.BTR2Options{ChunkEvents: 4096})
	cut := btr2[:len(btr2)/2]
	if _, err := engine.ProfileStream(bytes.NewReader(cut), streamConfig(core.MetricBias), engine.Options{Workers: 4}); err == nil {
		t.Fatal("mid-chunk truncation produced a report with no error")
	}
}

// TestParallelReplayHammer drives the full pipeline concurrently; it is
// the -race workout for the decode pool, the reorder stage and the
// shard fan-out.
func TestParallelReplayHammer(t *testing.T) {
	events := streamEvents(t)
	if testing.Short() {
		events = events[:60_000]
	}
	btr2 := encodeBTR2With(t, events, trace.BTR2Options{ChunkEvents: 4093})
	metrics := []core.Metric{core.MetricBias, core.MetricAccuracy}
	var wants [2][]byte
	for i, metric := range metrics {
		wants[i] = profileStream(t, btr2, streamConfig(metric), streamOpts(1))
	}
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for g := 0; g < 4; g++ {
		for i, metric := range metrics {
			wg.Add(1)
			go func(g, i int, metric core.Metric) {
				defer wg.Done()
				workers := 2 + g%3*3 // 2, 5, 8, 2
				rep, err := engine.ProfileStream(bytes.NewReader(btr2), streamConfig(metric), streamOpts(workers))
				if err != nil {
					errc <- fmt.Errorf("hammer %s workers=%d: %w", metric, workers, err)
					return
				}
				if !bytes.Equal(marshal(t, rep), wants[i]) {
					errc <- fmt.Errorf("hammer %s workers=%d: report differs", metric, workers)
				}
			}(g, i, metric)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestProfileStaticAnnotation: Options.Static attaches the prefilter
// column on every replay path (sequential BTR1, parallel BTR2 in both
// metrics), restricted to observed branches, and its presence changes
// nothing else about the report.
func TestProfileStaticAnnotation(t *testing.T) {
	events := streamEvents(t)
	static := map[trace.PC]string{
		events[0].PC: "input-dependent",
		1 << 40:      "const-taken", // never observed: must be dropped
	}
	btr2 := encodeBTR2With(t, events, trace.BTR2Options{ChunkEvents: 4096})
	cases := []struct {
		name    string
		raw     []byte
		metric  core.Metric
		workers int
	}{
		{"btr1-seq", encodeBTR1(t, events), core.MetricAccuracy, 1},
		{"btr2-acc-par", btr2, core.MetricAccuracy, 4},
		{"btr2-bias-par", btr2, core.MetricBias, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := streamConfig(tc.metric)
			plain, err := engine.ProfileStream(bytes.NewReader(tc.raw), cfg, streamOpts(tc.workers))
			if err != nil {
				t.Fatal(err)
			}
			if plain.StaticClass != nil {
				t.Fatalf("unannotated replay has StaticClass %v", plain.StaticClass)
			}
			opts := streamOpts(tc.workers)
			opts.Static = static
			ann, err := engine.ProfileStream(bytes.NewReader(tc.raw), cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := ann.StaticClass[events[0].PC]; got != "input-dependent" {
				t.Errorf("StaticClass[%d] = %q", events[0].PC, got)
			}
			if _, ok := ann.StaticClass[1<<40]; ok {
				t.Error("unobserved PC kept in annotation")
			}
			// The annotation must not perturb the profile itself.
			ann.StaticClass = nil
			if !bytes.Equal(marshal(t, plain), marshal(t, ann)) {
				t.Error("annotation changed the underlying report")
			}
		})
	}
}
