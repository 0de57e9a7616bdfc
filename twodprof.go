// Package twodprof is a Go implementation of 2D-profiling (Kim,
// Suleman, Mutlu, Patt — "2D-Profiling: Detecting Input-Dependent
// Branches with a Single Input Data Set", CGO 2006).
//
// 2D-profiling predicts, from a single profiling run, whether each
// static conditional branch's profile (prediction accuracy or bias) is
// likely to change across input data sets. It records the branch's
// metric per fixed-size slice of the run and applies three statistical
// tests — MEAN, STD and PAM — to the slice series.
//
// The package is a facade over the internal subsystems:
//
//   - the 2D-profiling engine (internal/core)
//   - software branch predictors (internal/bpred): gshare, perceptron, ...
//   - branch-event streams and trace files (internal/trace)
//   - synthetic SPEC CPU2000 INT workload models (internal/spec)
//   - VM benchmark kernels over real data (internal/vm, internal/progs)
//   - input-dependence ground truth and metrics (internal/metrics)
//   - the paper's predication cost model (internal/predication)
//   - experiment drivers for every table/figure (internal/exp)
//
// Quickstart:
//
//	w := twodprof.MustBenchmark("gap", "train")
//	rep, err := twodprof.Profile(w, twodprof.DefaultConfig(), "gshare-4KB")
//	if err != nil { ... }
//	for _, pc := range rep.InputDependent() {
//		fmt.Println(rep.FormatBranch(pc))
//	}
package twodprof

import (
	"fmt"
	"hash/fnv"

	"twodprof/internal/bpred"
	"twodprof/internal/core"
	"twodprof/internal/metrics"
	"twodprof/internal/predication"
	"twodprof/internal/progs"
	"twodprof/internal/spec"
	"twodprof/internal/synth"
	"twodprof/internal/trace"
)

// Core profiling types.
type (
	// Config holds every 2D-profiling parameter (slice size, test
	// thresholds, metric choice).
	Config = core.Config
	// Profiler is the 2D-profiling engine; it consumes a branch stream
	// and produces a Report.
	Profiler = core.Profiler
	// Report is the outcome of one profiling run.
	Report = core.Report
	// BranchResult is the per-branch verdict and statistics.
	BranchResult = core.BranchResult
	// SlicePoint is one sample of a watched branch's slice series.
	SlicePoint = core.SlicePoint
	// Metric selects accuracy or bias (edge) profiling.
	Metric = core.Metric
)

// Metric values.
const (
	MetricAccuracy = core.MetricAccuracy
	MetricBias     = core.MetricBias
)

// Branch-stream types.
type (
	// PC identifies a static branch site.
	PC = trace.PC
	// Sink consumes branch events.
	Sink = trace.Sink
	// Source produces branch events.
	Source = trace.Source
	// Recorder stores a stream in memory for replay.
	Recorder = trace.Recorder
)

// Predictor is a dynamic branch direction predictor.
type Predictor = bpred.Predictor

// Ground-truth and evaluation types.
type (
	// Truth labels branches as input-dependent or not.
	Truth = metrics.Truth
	// Eval holds the paper's COV/ACC metrics.
	Eval = metrics.Eval
)

// Predication types (the paper's motivating optimisation, §2.1).
type (
	// CostModel is the paper's predication cost model (equations 1-3).
	CostModel = predication.CostModel
	// PredicationPolicy decides per-branch code generation from a
	// profile and the input-dependence verdict.
	PredicationPolicy = predication.Policy
	// BranchProfile is the per-branch profile a policy consults.
	BranchProfile = predication.Profile
	// Decision is a per-branch code-generation choice.
	Decision = predication.Decision
)

// Decision values.
const (
	KeepBranch = predication.KeepBranch
	Predicate  = predication.Predicate
	WishBranch = predication.WishBranch
)

// Workload is a synthetic benchmark model resolved against an input
// set; it implements Source.
type Workload = synth.Workload

// DefaultConfig returns the paper's (scaled) 2D-profiling parameters.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewPredictor constructs a branch predictor by configuration name
// ("gshare-4KB", "perceptron-16KB", "bimodal", ...). PredictorNames
// lists the accepted names.
func NewPredictor(name string) (Predictor, error) { return bpred.New(name) }

// PredictorNames lists the accepted predictor configuration names.
func PredictorNames() []string { return bpred.Names() }

// NewProfiler creates a 2D-profiler with an explicit predictor
// instance. The predictor may be nil for MetricBias.
func NewProfiler(cfg Config, pred Predictor) (*Profiler, error) {
	return core.NewProfiler(cfg, pred)
}

// NewHardwareProfiler creates a 2D-profiler whose prediction outcomes
// are supplied externally through BranchOutcome(pc, taken, correct) —
// the paper's §3.2.2 hardware-support mode, where the target machine's
// real predictor reports hit/miss via performance counters and the
// profiler only maintains the per-branch statistics.
func NewHardwareProfiler(cfg Config) (*Profiler, error) {
	return core.NewHardwareProfiler(cfg)
}

// Snapshot types. A Snapshot is a consistent copy-on-read view of a
// live profiler's counters; snapshots whose branch sets are disjoint by
// PC merge by union, as the daemon's collector groups do (see DESIGN.md
// §3b).
type (
	// Snapshot is a consistent copy of a profiler's per-branch counters.
	Snapshot = core.Snapshot
	// BranchCounters is one branch's raw counters within a Snapshot.
	BranchCounters = core.BranchCounters
)

// MergeSnapshots unions snapshots with disjoint branch sets into one;
// configurations and predictor names must match. Each member profiled
// with its own slice clock, so the union is not the report of one
// interleaved stream.
func MergeSnapshots(snaps ...*Snapshot) (*Snapshot, error) {
	return core.MergeSnapshots(snaps...)
}

// Profile runs a complete 2D-profiling pass: it streams src through a
// fresh profiler using the named predictor and returns the finished
// report. The predictor name is validated in both metric modes, so a
// typo fails loudly instead of silently profiling bias; MetricBias
// additionally accepts an empty name (edge profiling needs no
// predictor).
func Profile(src Source, cfg Config, predictor string) (*Report, error) {
	var p Predictor
	if cfg.Metric == MetricAccuracy || predictor != "" {
		var err error
		p, err = bpred.New(predictor)
		if err != nil {
			return nil, err
		}
	}
	if cfg.Metric == MetricBias {
		p = nil // bias profiling never consults a predictor
	}
	prof, err := core.NewProfiler(cfg, p)
	if err != nil {
		return nil, err
	}
	src.Run(prof)
	return prof.Finish(), nil
}

// Benchmarks lists the modelled SPEC CPU2000 INT benchmarks.
func Benchmarks() []string { return spec.Names() }

// BenchmarkInputs lists the input sets available for a benchmark.
func BenchmarkInputs(name string) ([]string, error) {
	b, err := spec.Get(name)
	if err != nil {
		return nil, err
	}
	return append([]string(nil), b.Inputs...), nil
}

// Benchmark resolves a modelled benchmark against an input set.
func Benchmark(name, input string) (*Workload, error) {
	b, err := spec.Get(name)
	if err != nil {
		return nil, err
	}
	return b.Workload(input)
}

// MustBenchmark is Benchmark panicking on error.
func MustBenchmark(name, input string) *Workload {
	w, err := Benchmark(name, input)
	if err != nil {
		panic(err)
	}
	return w
}

// MeasureAccuracy runs src under the named predictor and returns
// (overall accuracy in percent, per-branch accuracies in percent).
func MeasureAccuracy(src Source, predictor string) (float64, map[PC]float64, error) {
	p, err := bpred.New(predictor)
	if err != nil {
		return 0, nil, err
	}
	acct := bpred.Measure(src, p)
	per := make(map[PC]float64, len(acct.Sites))
	for pc, s := range acct.Sites {
		per[pc] = s.Accuracy()
	}
	return acct.Total.Accuracy(), per, nil
}

// DefineTruth measures two runs of the same program (two input sets)
// under the named target predictor and labels each branch
// input-dependent when its accuracy changes by more than deltaTh
// percentage points (paper: 5). Branches must execute at least minExec
// times in both runs to be labelled.
func DefineTruth(a, b Source, predictor string, deltaTh float64, minExec int64) (*Truth, error) {
	p1, err := bpred.New(predictor)
	if err != nil {
		return nil, err
	}
	p2, err := bpred.New(predictor)
	if err != nil {
		return nil, err
	}
	return metrics.Define(bpred.Measure(a, p1), bpred.Measure(b, p2), deltaTh, minExec), nil
}

// EvaluateReport scores a 2D-profiling report against ground truth,
// returning the paper's COV/ACC metrics.
func EvaluateReport(rep *Report, truth *Truth) Eval {
	return metrics.Evaluate(rep, truth)
}

// PaperCostModel returns the predication cost model parameters of the
// paper's Figure 2.
func PaperCostModel() CostModel { return predication.PaperExample() }

// KernelInstance is a VM benchmark kernel bound to a concrete input
// data set; it implements Source and exposes named branch sites.
type KernelInstance = progs.Instance

// Kernels lists the VM benchmark kernels (programs executed by the
// repository's instrumented virtual machine over generated input data).
func Kernels() []string { return progs.KernelNames() }

// Kernel binds a VM kernel to one of its named inputs ("train", "ref",
// and for lzchain "level1".."level9").
func Kernel(kernel, input string) (*KernelInstance, error) {
	return progs.StandardInput(kernel, input)
}

// SyntheticConfig configures a user-defined synthetic benchmark: a
// population of branch sites whose behaviour depends on named input
// sets, exactly like the bundled SPEC models but with custom
// parameters. Zero fields take the library defaults.
type SyntheticConfig struct {
	// Name identifies the benchmark (required).
	Name string
	// Sites is the number of static branch sites (default 300).
	Sites int
	// DynamicBranches is the approximate dynamic branch count per run
	// (default 2 000 000).
	DynamicBranches int64
	// DepFraction is the fraction of sites that are input-sensitive
	// (default 0.2).
	DepFraction float64
	// HotBias in [0,1] concentrates sensitive sites among hot sites
	// (default 0.5).
	HotBias float64
	// Seed makes the benchmark reproducible (default: derived from
	// Name).
	Seed uint64
}

// SyntheticBenchmark is a user-defined synthetic benchmark; resolve it
// against any input-set name to get a runnable Workload.
type SyntheticBenchmark struct {
	pop *synth.Population
}

// NewSynthetic generates a custom synthetic benchmark. The same config
// always generates the identical benchmark.
func NewSynthetic(cfg SyntheticConfig) (*SyntheticBenchmark, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("twodprof: synthetic benchmark needs a name")
	}
	seed := cfg.Seed
	if seed == 0 {
		h := fnv.New64a()
		h.Write([]byte("synthetic/"))
		h.Write([]byte(cfg.Name))
		seed = h.Sum64()
	}
	pc := synth.DefaultPopulationConfig(cfg.Name, seed)
	if cfg.Sites > 0 {
		pc.NumSites = cfg.Sites
	}
	if cfg.DynamicBranches > 0 {
		pc.DynTarget = cfg.DynamicBranches
	}
	if cfg.DepFraction > 0 {
		pc.DepFrac = cfg.DepFraction
	}
	if cfg.HotBias > 0 {
		pc.HotBias = cfg.HotBias
	}
	return &SyntheticBenchmark{pop: synth.NewPopulation(pc)}, nil
}

// Workload resolves the benchmark against an input-set name. Any name
// is valid; distinct names behave like distinct input data sets.
func (s *SyntheticBenchmark) Workload(input string) *Workload {
	return s.pop.Workload(input)
}
