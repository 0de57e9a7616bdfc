package engine_test

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"twodprof/internal/core"
	"twodprof/internal/engine"
	"twodprof/internal/rng"
	"twodprof/internal/trace"
)

// ctxStream builds an interleaved multi-context branch stream: nctx
// round-robin-ish streams with random burst lengths (1..17 events), so
// context runs cross batch boundaries, bitmap words and slice
// boundaries at arbitrary offsets. Each context walks its own PC range
// so the per-context profiles are distinguishable.
func ctxStream(n, nctx int) []trace.Event {
	r := rng.New(97)
	ev := make([]trace.Event, 0, n)
	ctx := 0
	for len(ev) < n {
		burst := 1 + r.Intn(17)
		for i := 0; i < burst && len(ev) < n; i++ {
			pc := trace.PC(0x400000 + 0x1000*ctx + 4*r.Intn(61))
			ev = append(ev, trace.Event{
				PC:    pc,
				Ctx:   trace.Context(ctx),
				Taken: r.Bool(0.2 + 0.15*float64(ctx)),
			})
		}
		ctx = (ctx + 1) % nctx
	}
	return ev
}

// subStream extracts one context's events, re-tagged to context 0 —
// the single-thread oracle's input.
func subStream(events []trace.Event, ctx trace.Context) []trace.Event {
	var out []trace.Event
	for _, e := range events {
		if e.Ctx == ctx {
			out = append(out, trace.Event{PC: e.PC, Taken: e.Taken})
		}
	}
	return out
}

func ctxConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Metric = core.MetricAccuracy
	cfg.SliceSize = 500
	cfg.ExecThreshold = 5
	return cfg
}

// feedSoA / feedPerEvent drive the same event stream into the engine
// through its two ingress surfaces. The SoA path converts in odd-sized
// batches (size n, neither word- nor slice-aligned) so context runs
// straddle batch edges and bitmap words — exercising the word-aligned
// span repacking.
func feedSoA(n int) func(*engine.Engine, []trace.Event) {
	return func(eng *engine.Engine, events []trace.Event) {
		var b trace.SoABatch
		for i := 0; i < len(events); i += n {
			b.FromEvents(events[i:min(i+n, len(events))])
			eng.BranchBatchSoA(&b)
		}
	}
}

func feedPerEvent(eng *engine.Engine, events []trace.Event) {
	for _, e := range events {
		eng.BranchCtx(e.Ctx, e.PC, e.Taken)
	}
}

// TestPrivateContextsMatchIndependent is the semantic anchor of
// private aggregation: each context's report from one interleaved run
// must be byte-identical to profiling that context's sub-stream alone
// (the single-thread oracle), at any worker count, through every
// ingress path.
func TestPrivateContextsMatchIndependent(t *testing.T) {
	const nctx = 3
	events := ctxStream(30000, nctx)
	cfg := ctxConfig()

	oracle := make(map[trace.Context][]byte, nctx)
	for c := trace.Context(0); c < nctx; c++ {
		oracle[c] = marshal(t, referenceReport(t, subStream(events, c), cfg))
	}

	feeds := map[string]func(*engine.Engine, []trace.Event){
		"soa": feedSoA(777), "soa-1009": feedSoA(1009), "per-event": feedPerEvent,
	}
	for name, feed := range feeds {
		for _, workers := range []int{1, 4} {
			t.Run(name+"/workers="+string(rune('0'+workers)), func(t *testing.T) {
				eng, err := engine.New(cfg, engine.Options{
					Workers:     workers,
					Predictor:   matrixPredictor,
					Aggregation: engine.AggPrivate,
				})
				if err != nil {
					t.Fatal(err)
				}
				feed(eng, events)
				reps, err := eng.FinishContexts()
				if err != nil {
					t.Fatal(err)
				}
				if len(reps) != nctx {
					t.Fatalf("FinishContexts returned %d contexts, want %d", len(reps), nctx)
				}
				for c := trace.Context(0); c < nctx; c++ {
					if !bytes.Equal(marshal(t, reps[c]), oracle[c]) {
						t.Errorf("context %d diverged from its single-thread oracle", c)
					}
				}
			})
		}
	}
}

// TestSharedModeIgnoresContexts pins the default: shared aggregation
// is bit-for-bit the historical context-blind engine, context tags and
// all.
func TestSharedModeIgnoresContexts(t *testing.T) {
	events := ctxStream(20000, 4)
	cfg := ctxConfig()
	want := marshal(t, referenceReport(t, events, cfg))
	for _, workers := range []int{1, 4} {
		eng, err := engine.New(cfg, engine.Options{Workers: workers, Predictor: matrixPredictor})
		if err != nil {
			t.Fatal(err)
		}
		feedSoA(777)(eng, events)
		rep, err := eng.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshal(t, rep), want) {
			t.Errorf("workers=%d: shared-mode report diverged from the context-blind reference", workers)
		}
	}
}

// TestPrivateSingleContextMatchesShared: with only context 0 in the
// stream the two aggregation modes are indistinguishable — Finish
// works and the report matches the classic path.
func TestPrivateSingleContextMatchesShared(t *testing.T) {
	events := ctxStream(10000, 1) // every event context 0
	cfg := ctxConfig()
	want := marshal(t, referenceReport(t, events, cfg))
	eng, err := engine.New(cfg, engine.Options{
		Workers: 1, Predictor: matrixPredictor, Aggregation: engine.AggPrivate,
	})
	if err != nil {
		t.Fatal(err)
	}
	feedSoA(1009)(eng, events)
	rep, err := eng.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshal(t, rep), want) {
		t.Error("private single-context report diverged from the shared path")
	}
}

// TestMultiContextMergedAccessorsRefuse: once a private run has seen a
// second context, the single-report accessors must refuse with
// ErrMultiContext rather than hand back a context-0-only report.
func TestMultiContextMergedAccessorsRefuse(t *testing.T) {
	events := ctxStream(5000, 3)
	eng, err := engine.New(ctxConfig(), engine.Options{
		Workers: 1, Predictor: matrixPredictor, Aggregation: engine.AggPrivate,
	})
	if err != nil {
		t.Fatal(err)
	}
	feedSoA(1009)(eng, events)
	if _, err := eng.Report(); !errors.Is(err, engine.ErrMultiContext) {
		t.Errorf("Report() = %v, want ErrMultiContext", err)
	}
	if _, err := eng.Snapshot(); !errors.Is(err, engine.ErrMultiContext) {
		t.Errorf("Snapshot() = %v, want ErrMultiContext", err)
	}
	if _, err := eng.Finish(); !errors.Is(err, engine.ErrMultiContext) {
		t.Errorf("Finish() = %v, want ErrMultiContext", err)
	}
	got := eng.Contexts()
	want := []trace.Context{0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("Contexts() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Contexts() = %v, want %v", got, want)
		}
	}
	if _, err := eng.FinishContexts(); err != nil {
		t.Errorf("FinishContexts() after refusals = %v", err)
	}
}

// TestPrivateLiveReportsRace reads live reports from another goroutine
// while a private multi-context stream is fed and then finished. Under
// -race it pins the synchronisation of the per-context engine
// registry, which the feeder grows on first sight of each context, and
// of the final per-context reports.
func TestPrivateLiveReportsRace(t *testing.T) {
	const nctx = 3
	events := ctxStream(20000, nctx)
	for _, workers := range []int{1, 4} {
		eng, err := engine.New(ctxConfig(), engine.Options{
			Workers: workers, Predictor: matrixPredictor, Aggregation: engine.AggPrivate,
		})
		if err != nil {
			t.Fatal(err)
		}
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := eng.Report(); err != nil && !errors.Is(err, engine.ErrMultiContext) {
					t.Errorf("workers=%d: live Report: %v", workers, err)
					return
				}
				if _, err := eng.Snapshot(); err != nil && !errors.Is(err, engine.ErrMultiContext) {
					t.Errorf("workers=%d: live Snapshot: %v", workers, err)
					return
				}
				reps, err := eng.ContextReports()
				if err != nil {
					t.Errorf("workers=%d: live ContextReports: %v", workers, err)
					return
				}
				if reps[0] == nil || len(eng.Contexts()) < 1 {
					t.Errorf("workers=%d: live view lacks context 0", workers)
					return
				}
			}
		}()
		feedPerEvent(eng, events)
		reps, err := eng.FinishContexts()
		close(stop)
		<-done
		if err != nil {
			t.Fatal(err)
		}
		if len(reps) != nctx {
			t.Fatalf("workers=%d: FinishContexts returned %d contexts, want %d", workers, len(reps), nctx)
		}
	}
}

// TestPrivateWorkersStopped: a private multi-context engine runs one
// worker set per context, and both Abort and FinishContexts must stop
// every one of them.
func TestPrivateWorkersStopped(t *testing.T) {
	const nctx, workers = 3, 4
	events := ctxStream(5000, nctx)
	ends := map[string]func(*engine.Engine) error{
		"Abort": func(eng *engine.Engine) error { eng.Abort(); return nil },
		"FinishContexts": func(eng *engine.Engine) error {
			_, err := eng.FinishContexts()
			return err
		},
	}
	for name, end := range ends {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			eng, err := engine.New(ctxConfig(), engine.Options{
				Workers: workers, Predictor: matrixPredictor, Aggregation: engine.AggPrivate,
			})
			if err != nil {
				t.Fatal(err)
			}
			feedPerEvent(eng, events)
			if n := runtime.NumGoroutine(); n < before+nctx*workers {
				t.Fatalf("%d goroutines while feeding, want at least %d (%d workers per context)", n, before+nctx*workers, workers)
			}
			if err := end(eng); err != nil {
				t.Fatal(err)
			}
			// A worker closes its done channel just before it returns.
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after %s, want the %d from before New", runtime.NumGoroutine(), name, before)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
