package twodprof

// The benchmark harness: one Benchmark per table and figure of the
// paper (regenerating it through the experiment drivers), ablation
// benches for the design choices called out in DESIGN.md §5, and
// micro-benchmarks of the hot paths.
//
// Experiment benches share one memoising context, so the first
// iteration pays the simulation cost and later iterations measure the
// (cached) analysis; ns/op is therefore a regeneration cost, not a
// simulation cost. Ablation benches report the quality metrics
// (COV-dep etc.) via b.ReportMetric, so `go test -bench Ablation`
// doubles as a sensitivity study.

import (
	"bytes"
	"fmt"
	"testing"

	"twodprof/internal/bpred"
	"twodprof/internal/cfg"
	"twodprof/internal/core"
	"twodprof/internal/exp"
	"twodprof/internal/ifconv"
	"twodprof/internal/metrics"
	"twodprof/internal/oracle"
	"twodprof/internal/phase"
	"twodprof/internal/pipeline"
	"twodprof/internal/progs"
	"twodprof/internal/spec"
	"twodprof/internal/trace"
	"twodprof/internal/vm"
)

var benchCtx = exp.NewContext()

func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := exp.Run(benchCtx, id)
		if err != nil {
			b.Fatal(err)
		}
		if res.String() == "" {
			b.Fatal("empty result")
		}
	}
}

// One bench per paper artifact (DESIGN.md §4).

func BenchmarkFig2(b *testing.B)   { runExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)   { runExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)   { runExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)   { runExperiment(b, "fig5") }
func BenchmarkTable1(b *testing.B) { runExperiment(b, "tab1") }
func BenchmarkTable2(b *testing.B) { runExperiment(b, "tab2") }
func BenchmarkFig8(b *testing.B)   { runExperiment(b, "fig8") }
func BenchmarkFig10(b *testing.B)  { runExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { runExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { runExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { runExperiment(b, "fig13") }
func BenchmarkTable4(b *testing.B) { runExperiment(b, "tab4") }
func BenchmarkFig14(b *testing.B)  { runExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)  { runExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)  { runExperiment(b, "fig16") }

// Ablation benches: evaluate 2D-profiling quality on the two smallest
// benchmarks under configuration variants, reporting the paper metrics.

var ablationRunner = oracle.NewRunner()

func ablate(b *testing.B, mutate func(*core.Config)) {
	b.Helper()
	cfg := core.DefaultConfig()
	mutate(&cfg)
	var ev metrics.Eval
	for i := 0; i < b.N; i++ {
		var evs []metrics.Eval
		for _, bench := range []string{"bzip2", "gzip"} {
			e, err := ablationRunner.Evaluate2D(bench, cfg,
				bpred.NameGshare4KB, bpred.NameGshare4KB, []string{"ref"})
			if err != nil {
				b.Fatal(err)
			}
			evs = append(evs, e)
		}
		ev = metrics.MeanEval(evs)
	}
	b.ReportMetric(ev.CovDep, "cov-dep")
	b.ReportMetric(ev.AccDep, "acc-dep")
	b.ReportMetric(ev.CovIndep, "cov-indep")
	b.ReportMetric(ev.AccIndep, "acc-indep")
}

func BenchmarkAblationBaseline(b *testing.B) {
	ablate(b, func(c *core.Config) {})
}

func BenchmarkAblationFIR(b *testing.B) {
	b.Run("on", func(b *testing.B) { ablate(b, func(c *core.Config) { c.UseFIR = true }) })
	b.Run("off", func(b *testing.B) { ablate(b, func(c *core.Config) { c.UseFIR = false }) })
}

func BenchmarkAblationPAM(b *testing.B) {
	b.Run("on", func(b *testing.B) { ablate(b, func(c *core.Config) {}) })
	b.Run("off", func(b *testing.B) { ablate(b, func(c *core.Config) { c.DisablePAM = true }) })
}

func BenchmarkAblationSliceSize(b *testing.B) {
	for _, size := range []int64{10000, 25000, 50000, 100000, 200000} {
		size := size
		b.Run(fmt.Sprintf("%d", size), func(b *testing.B) {
			ablate(b, func(c *core.Config) { c.SliceSize = size })
		})
	}
}

func BenchmarkAblationExecThreshold(b *testing.B) {
	for _, th := range []int64{0, 10, 30, 100, 300} {
		th := th
		b.Run(fmt.Sprintf("%d", th), func(b *testing.B) {
			ablate(b, func(c *core.Config) { c.ExecThreshold = th })
		})
	}
}

func BenchmarkAblationThresholds(b *testing.B) {
	for _, std := range []float64{2, 4, 8} {
		std := std
		b.Run(fmt.Sprintf("std%.0f", std), func(b *testing.B) {
			ablate(b, func(c *core.Config) { c.StdTh = std })
		})
	}
	for _, pam := range []float64{0.05, 0.15, 0.30} {
		pam := pam
		b.Run(fmt.Sprintf("pam%.2f", pam), func(b *testing.B) {
			ablate(b, func(c *core.Config) { c.PAMTh = pam })
		})
	}
}

func BenchmarkAblationSliceStride(b *testing.B) {
	for _, stride := range []int{1, 2, 4, 8} {
		stride := stride
		b.Run(fmt.Sprintf("%d", stride), func(b *testing.B) {
			ablate(b, func(c *core.Config) { c.SliceStride = stride })
		})
	}
}

func BenchmarkAblationProfilerPredictor(b *testing.B) {
	for _, pred := range []string{bpred.NameGshare4KB, bpred.NameBimodal, bpred.NameGshareSmall, bpred.NamePerceptron16KB} {
		pred := pred
		b.Run(pred, func(b *testing.B) {
			cfg := core.DefaultConfig()
			var ev metrics.Eval
			for i := 0; i < b.N; i++ {
				e, err := ablationRunner.Evaluate2D("gzip", cfg, pred,
					bpred.NameGshare4KB, []string{"ref"})
				if err != nil {
					b.Fatal(err)
				}
				ev = e
			}
			b.ReportMetric(ev.CovDep, "cov-dep")
			b.ReportMetric(ev.AccDep, "acc-dep")
		})
	}
}

// Micro-benchmarks of the hot paths.

func benchPredictor(b *testing.B, p bpred.Predictor) {
	b.Helper()
	w := spec.MustGet("gzip").MustWorkload("train")
	var rec trace.Recorder
	w.Run(&rec)
	events := rec.Events
	b.ResetTimer()
	b.ReportAllocs()
	i := 0
	for n := 0; n < b.N; n++ {
		e := events[i]
		pred := p.Predict(e.PC)
		p.Update(e.PC, e.Taken)
		_ = pred
		i++
		if i == len(events) {
			i = 0
		}
	}
}

func BenchmarkGsharePredictUpdate(b *testing.B)     { benchPredictor(b, bpred.NewGshare4KB()) }
func BenchmarkPerceptronPredictUpdate(b *testing.B) { benchPredictor(b, bpred.NewPerceptron16KB()) }
func BenchmarkBimodalPredictUpdate(b *testing.B)    { benchPredictor(b, bpred.NewBimodal(14)) }

func BenchmarkProfilerBranch(b *testing.B) {
	cfg := core.DefaultConfig()
	prof := core.MustNewProfiler(cfg, bpred.NewGshare4KB())
	w := spec.MustGet("gzip").MustWorkload("train")
	var rec trace.Recorder
	w.Run(&rec)
	events := rec.Events
	b.ResetTimer()
	b.ReportAllocs()
	i := 0
	for n := 0; n < b.N; n++ {
		e := events[i]
		prof.Branch(e.PC, e.Taken)
		i++
		if i == len(events) {
			i = 0
		}
	}
}

// BenchmarkSliceBoundarySparse measures slice-boundary cost when the static
// branch population is large but only a few branches execute per slice —
// the sparse case the active-set optimisation targets: endSlice walks
// the branches touched in the slice, not every record ever seen.
func BenchmarkSliceBoundarySparse(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.SliceSize = 1000
	cfg.ExecThreshold = 10
	prof := core.MustNewProfiler(cfg, bpred.NewGshare4KB())
	// Populate 50 000 static branch records (one cold execution each).
	for pc := trace.PC(1000); pc < 51000; pc++ {
		prof.Branch(pc, true)
	}
	// Complete the current slice so the warm-up executions are folded.
	for i := int64(0); i < cfg.SliceSize; i++ {
		prof.Branch(0xA, i%3 != 0)
	}
	b.ResetTimer()
	b.ReportAllocs()
	// Each iteration retires one full slice in which only 10 of the
	// 50 000 static branches execute.
	for n := 0; n < b.N; n++ {
		for i := int64(0); i < cfg.SliceSize; i++ {
			prof.Branch(trace.PC(i%10), i%3 != 0)
		}
	}
}

// BenchmarkProfilerReset measures profiler reuse across runs (allocation
// recycling for experiment loops).
func BenchmarkProfilerReset(b *testing.B) {
	w := spec.MustGet("gzip").MustWorkload("train")
	var rec trace.Recorder
	w.Run(&rec)
	prof := core.MustNewProfiler(core.DefaultConfig(), bpred.NewGshare4KB())
	b.ResetTimer()
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		prof.Reset()
		for _, e := range rec.Events {
			prof.Branch(e.PC, e.Taken)
		}
		if prof.Finish().TotalExec == 0 {
			b.Fatal("empty report")
		}
	}
}

// Engine benchmarks: the same deterministic driver subset under the
// serial and the parallel engine, with a fresh context (cold caches)
// per iteration so the measured quantity is real end-to-end work. The
// speedup is bounded by the machine's core count; compare the two with
// go test -run '^$' -bench 'RunAll(Serial|Parallel)$' -benchtime 2x .

var engineBenchIDs = []string{"fig3", "fig4", "fig5", "tab1", "tab2", "fig10"}

func benchRunMany(b *testing.B, parallelism int) {
	b.Helper()
	for n := 0; n < b.N; n++ {
		ctx := exp.NewContext()
		ctx.Parallelism = parallelism
		err := exp.RunMany(ctx, engineBenchIDs, func(res exp.Result) {
			if res.String() == "" {
				b.Fatal("empty result")
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunAllSerial(b *testing.B)   { benchRunMany(b, 1) }
func BenchmarkRunAllParallel(b *testing.B) { benchRunMany(b, 0) } // 0 = GOMAXPROCS

func BenchmarkWorkloadRun(b *testing.B) {
	w := spec.MustGet("gzip").MustWorkload("train")
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		var c trace.Counter
		w.Run(&c)
	}
}

func BenchmarkVMInterpreter(b *testing.B) {
	inst, err := Kernel("bsearch", "train")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		if _, err := inst.RunHooks(vm.Hooks{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceWriteRead(b *testing.B) {
	w := spec.MustGet("gzip").MustWorkload("train")
	var rec trace.Recorder
	w.Run(&rec)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		var buf bytes.Buffer
		tw, err := trace.NewWriter(&buf)
		if err != nil {
			b.Fatal(err)
		}
		rec.Replay(tw)
		if err := tw.Close(); err != nil {
			b.Fatal(err)
		}
		tr, err := trace.NewReader(&buf)
		if err != nil {
			b.Fatal(err)
		}
		var cnt trace.Counter
		if _, err := tr.Replay(&cnt); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}

// Benchmarks for the extension substrates.

func BenchmarkIfconvFindAndConvert(b *testing.B) {
	k, _ := progs.KernelByName("bsearch")
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		cands := ifconv.FindCandidates(k.Prog)
		if _, _, err := ifconv.Convert(k.Prog, cands); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCFGEdgeProfile(b *testing.B) {
	k, _ := progs.KernelByName("fsm")
	g := cfg.Build(k.Prog)
	inst, err := progs.StandardInput("fsm", "train")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		ep := cfg.NewEdgeProfile(g)
		if _, err := inst.RunHooks(ep.Hooks()); err != nil {
			b.Fatal(err)
		}
		if len(ep.HotPath(12, 0.25)) == 0 {
			b.Fatal("no hot path")
		}
	}
}

func BenchmarkPhaseCluster(b *testing.B) {
	k, _ := progs.KernelByName("fsm")
	g := cfg.Build(k.Prog)
	col, err := phase.NewCollector(g, 8000)
	if err != nil {
		b.Fatal(err)
	}
	inst, _ := progs.StandardInput("fsm", "ref")
	if _, err := inst.RunHooks(col.Hooks()); err != nil {
		b.Fatal(err)
	}
	vectors := col.Vectors()
	b.ResetTimer()
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		if _, err := phase.Cluster(vectors, 4, 7); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTagePredictUpdate(b *testing.B) { benchPredictor(b, bpred.NewTageDefault()) }

func BenchmarkPipelineRun(b *testing.B) {
	inst, _ := progs.StandardInput("fsm", "train")
	cfg := pipeline.DefaultConfig()
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		if _, err := pipeline.Run(inst.Kernel.Prog, inst.Mem, bpred.NewGshare4KB(), cfg, vm.Limits{}); err != nil {
			b.Fatal(err)
		}
	}
}
