package engine

import (
	"encoding/json"
	"runtime"
	"sync"
	"testing"
	"weak"

	"twodprof/internal/core"
	"twodprof/internal/trace"
)

// testConfig keeps slices small enough that a few thousand synthetic
// events produce several of them.
func testConfig(metric core.Metric) core.Config {
	cfg := core.DefaultConfig()
	cfg.Metric = metric
	cfg.SliceSize = 1000
	cfg.ExecThreshold = 5
	return cfg
}

// feedSynthetic drives n deterministic pseudo-random events through the
// sink (an LCG over a small PC space).
func feedSynthetic(sink trace.Sink, n int) {
	state := uint64(0x2545f4914f6cdd1d)
	for i := 0; i < n; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		pc := trace.PC(state >> 56 & 0x1f)
		sink.Branch(pc, state>>40&1 == 1)
	}
}

func TestNewValidatesOptions(t *testing.T) {
	cases := []struct {
		name string
		cfg  core.Config
		opts Options
		ok   bool
	}{
		{"accuracy+predictor", testConfig(core.MetricAccuracy), Options{Predictor: "gshare-4KB"}, true},
		{"accuracy missing predictor", testConfig(core.MetricAccuracy), Options{}, false},
		{"accuracy bad predictor", testConfig(core.MetricAccuracy), Options{Predictor: "nope"}, false},
		{"bias empty predictor", testConfig(core.MetricBias), Options{}, true},
		{"bias bad predictor still validated", testConfig(core.MetricBias), Options{Predictor: "nope"}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := New(tc.cfg, tc.opts)
			if tc.ok && err != nil {
				t.Fatalf("New: %v", err)
			}
			if !tc.ok {
				if err == nil {
					eng.Abort()
					t.Fatal("New accepted invalid options")
				}
				return
			}
			eng.Abort()
		})
	}

	bad := testConfig(core.MetricAccuracy)
	bad.SliceSize = 0
	if _, err := New(bad, Options{Predictor: "gshare-4KB"}); err == nil {
		t.Fatal("New accepted an invalid profiling config")
	}
}

func TestWorkerResolution(t *testing.T) {
	eng, err := New(testConfig(core.MetricBias), Options{Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Abort()
	if got, want := eng.Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Workers() = %d, want GOMAXPROCS %d", got, want)
	}
}

func TestSlicesCountsGlobalSlices(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := testConfig(core.MetricAccuracy)
		eng, err := New(cfg, Options{Workers: workers, Predictor: "gshare-4KB"})
		if err != nil {
			t.Fatal(err)
		}
		// 3 full slices plus a partial one big enough for the
		// FlushPartialSlice rule (>= SliceSize/2) to fire at Finish.
		feedSynthetic(eng, int(3*cfg.SliceSize+cfg.SliceSize/2))
		if _, err := eng.Finish(); err != nil {
			t.Fatal(err)
		}
		if n := eng.Slices(); n != 4 {
			t.Errorf("workers=%d: Slices() = %d, want 4 (3 full + 1 flushed partial)", workers, n)
		}
	}

	// Under private aggregation every context keeps its own slice clock
	// and Slices sums them: here each of 3 interleaved contexts runs 3
	// full slices plus a flushed partial.
	const nctx = 3
	for _, workers := range []int{1, 4} {
		cfg := testConfig(core.MetricAccuracy)
		eng, err := New(cfg, Options{
			Workers:     workers,
			Predictor:   "gshare-4KB",
			Aggregation: AggPrivate,
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder(0)
		feedSynthetic(rec, nctx*int(3*cfg.SliceSize+cfg.SliceSize/2))
		for i, ev := range rec.Events {
			eng.BranchCtx(trace.Context(i%nctx), ev.PC, ev.Taken)
		}
		if _, err := eng.FinishContexts(); err != nil {
			t.Fatal(err)
		}
		if n := eng.Slices(); n != 4*nctx {
			t.Errorf("private workers=%d: Slices() = %d, want %d (4 per context)", workers, n, 4*nctx)
		}
	}
}

func TestShortPartialSliceNotFlushed(t *testing.T) {
	cfg := testConfig(core.MetricAccuracy)
	eng, err := New(cfg, Options{Workers: 1, Predictor: "gshare-4KB"})
	if err != nil {
		t.Fatal(err)
	}
	// A trailing partial slice under SliceSize/2 is dropped.
	feedSynthetic(eng, int(2*cfg.SliceSize+cfg.SliceSize/4))
	if _, err := eng.Finish(); err != nil {
		t.Fatal(err)
	}
	if n := eng.Slices(); n != 2 {
		t.Errorf("Slices() = %d, want 2 (short partial dropped)", n)
	}
}

func TestFinishIdempotent(t *testing.T) {
	eng, err := New(testConfig(core.MetricAccuracy), Options{Workers: 4, Predictor: "gshare-4KB"})
	if err != nil {
		t.Fatal(err)
	}
	feedSynthetic(eng, 5000)
	first, err := eng.Finish()
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("repeated Finish returned a different report")
	}
	// Report after Finish returns the fixed final report too.
	live, err := eng.Report()
	if err != nil {
		t.Fatal(err)
	}
	if live != first {
		t.Error("Report after Finish returned a different report")
	}
}

func TestAbortSkipsPartialFlush(t *testing.T) {
	cfg := testConfig(core.MetricAccuracy)
	eng, err := New(cfg, Options{Workers: 4, Predictor: "gshare-4KB"})
	if err != nil {
		t.Fatal(err)
	}
	// Two full slices plus a partial large enough that Finish WOULD
	// flush it; Abort must not.
	feedSynthetic(eng, int(2*cfg.SliceSize+cfg.SliceSize/2))
	eng.Abort()
	rep, err := eng.Report()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Slices != 2 {
		t.Errorf("after Abort report has %d slices, want 2 (no partial flush)", rep.Slices)
	}
	// The partial slice's events still reached the profiler.
	if rep.TotalExec != 2*cfg.SliceSize+cfg.SliceSize/2 {
		t.Errorf("after Abort report counts %d branches, want %d",
			rep.TotalExec, 2*cfg.SliceSize+cfg.SliceSize/2)
	}
}

func TestQueueDepthsShape(t *testing.T) {
	// The engine profiles inline: no queues at any worker count.
	for _, workers := range []int{1, 3} {
		eng, err := New(testConfig(core.MetricBias), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		feedSynthetic(eng, 2000)
		if d := eng.QueueDepths(); d != nil {
			t.Errorf("workers=%d: QueueDepths() = %v, want nil", workers, d)
		}
		eng.Abort()
	}
}

// TestReleasedEngineCollectable: an engine holds nothing the runtime
// keeps alive on its own (no sync.Pool, no goroutine), so a finished
// engine that nothing references is gone after one GC cycle. It is fed
// through both ingress paths, since the per-event path is the one
// that used to recycle buffers.
func TestReleasedEngineCollectable(t *testing.T) {
	rec := trace.NewRecorder(0)
	feedSynthetic(rec, 5000)
	var soa trace.SoABatch
	soa.FromEvents(rec.Events)
	ref := func() weak.Pointer[Engine] {
		eng, err := New(testConfig(core.MetricAccuracy), Options{Workers: 2, Predictor: "gshare-4KB"})
		if err != nil {
			t.Fatal(err)
		}
		feedSynthetic(eng, 5000)
		eng.BranchBatchSoA(&soa)
		feedSynthetic(eng, 700)
		if _, err := eng.Finish(); err != nil {
			t.Fatal(err)
		}
		return weak.Make(eng)
	}()
	runtime.GC()
	if ref.Value() != nil {
		t.Fatal("finished engine still reachable after one GC cycle")
	}
}

// TestBatchMatchesPerEvent pins the BranchBatchSoA fast path to the
// per-event front-end: identical events, byte-identical report.
func TestBatchMatchesPerEvent(t *testing.T) {
	rec := trace.NewRecorder(0)
	feedSynthetic(rec, 20000)
	for _, metric := range []core.Metric{core.MetricAccuracy, core.MetricBias} {
		cfg := testConfig(metric)
		one, err := New(cfg, Options{Workers: 4, Predictor: "gshare-4KB"})
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range rec.Events {
			one.Branch(ev.PC, ev.Taken)
		}
		batched, err := New(cfg, Options{Workers: 4, Predictor: "gshare-4KB"})
		if err != nil {
			t.Fatal(err)
		}
		// Deliberately awkward batch boundaries: neither word- nor
		// slice-aligned.
		var soa trace.SoABatch
		for i := 0; i < len(rec.Events); i += 777 {
			soa.FromEvents(rec.Events[i:min(i+777, len(rec.Events))])
			batched.BranchBatchSoA(&soa)
		}
		a, err := one.Finish()
		if err != nil {
			t.Fatal(err)
		}
		b, err := batched.Finish()
		if err != nil {
			t.Fatal(err)
		}
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if string(ja) != string(jb) {
			t.Errorf("metric %v: BranchBatchSoA report differs from per-event report", metric)
		}
	}
}

// TestLiveReportHammer exercises the live-snapshot path under -race:
// one goroutine feeds while others pull merged reports, slice counts
// and queue depths mid-stream.
func TestLiveReportHammer(t *testing.T) {
	cfg := testConfig(core.MetricAccuracy)
	eng, err := New(cfg, Options{Workers: 4, Predictor: "gshare-4KB"})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rep, err := eng.Report()
				if err != nil {
					t.Error(err)
					return
				}
				if rep.TotalExec < 0 {
					t.Error("negative branch count in live report")
					return
				}
				if eng.Slices() < 0 {
					t.Error("negative slice count mid-stream")
					return
				}
				eng.QueueDepths()
			}
		}()
	}
	feedSynthetic(eng, 50000)
	final, err := eng.Finish()
	if err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if final.TotalExec != 50000 {
		t.Errorf("final report counts %d branches, want 50000", final.TotalExec)
	}
}
