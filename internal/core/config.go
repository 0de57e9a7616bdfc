// Package core implements the paper's primary contribution: the
// 2D-profiling algorithm of Figure 9. A profiler observes one program
// run (one input set), records each static branch's prediction accuracy
// per fixed-size slice of retired branches, and at the end of the run
// applies three statistical tests — MEAN, STD and PAM — to predict
// whether the branch's profile is input-dependent.
//
// The package also provides the edge-profiling variant (bias over time,
// §3.1 of the paper) and the aggregate-average baseline that the paper
// argues is insufficient.
package core

import "math"

// Metric selects what per-slice quantity the profiler records for each
// branch.
type Metric int

const (
	// MetricAccuracy records prediction accuracy per slice (the paper's
	// main instantiation; requires a profiler branch predictor).
	MetricAccuracy Metric = iota
	// MetricBias records the branch's "biasedness" per slice:
	// max(taken-rate, 100-taken-rate). The edge-profiling variant.
	MetricBias
)

// String returns the metric name.
func (m Metric) String() string {
	switch m {
	case MetricAccuracy:
		return "accuracy"
	case MetricBias:
		return "bias"
	default:
		return "unknown"
	}
}

// Config holds every 2D-profiling parameter. Paper defaults (§4.1,
// scaled to our run lengths — see DESIGN.md §6) come from DefaultConfig.
type Config struct {
	// SliceSize is the number of retired branches per slice (the paper
	// uses 15 M on multi-billion-branch runs; we default to 40 000 on
	// multi-million-branch runs, preserving a few hundred slices per
	// run).
	SliceSize int64
	// ExecThreshold is the minimum number of executions of a branch
	// within a slice for that slice to contribute a sample for the
	// branch (paper: 1000; scaled default: 40).
	ExecThreshold int64
	// MeanTh is the MEAN-test threshold in percent. When negative (the
	// default), the paper's rule applies: use the program's overall
	// prediction accuracy, computed at the end of the profiling run.
	MeanTh float64
	// StdTh is the STD-test threshold in percentage points (paper: 4).
	StdTh float64
	// PAMTh bounds the PAM-test acceptance window: the fraction of
	// points above the running mean must lie in (PAMTh, 1-PAMTh).
	PAMTh float64
	// UseFIR enables the 2-tap FIR low-pass filter on slice samples
	// (paper: on). Exposed for the ablation study.
	UseFIR bool
	// DisableMean, DisableStd and DisablePAM switch off individual
	// tests for ablations. Disabling a candidate test (MEAN/STD) makes
	// it never pass; disabling PAM makes PAM always pass.
	DisableMean bool
	DisableStd  bool
	DisablePAM  bool
	// Metric selects prediction-accuracy or edge (bias) profiling.
	Metric Metric
	// FlushPartialSlice processes the final, partial slice when it has
	// retired at least SliceSize/2 branches (on by default). The paper
	// leaves trailing-slice handling unspecified.
	FlushPartialSlice bool
	// SliceStride is an overhead-reduction extension: fold statistics
	// for only one of every SliceStride slices (0 or 1 = every slice,
	// the paper's behaviour). The per-branch slice counters still
	// reset every slice, so sampled slices remain single-slice
	// measurements; detection quality degrades gracefully as the
	// stride grows (see BenchmarkAblationSliceStride).
	SliceStride int
}

// DefaultConfig returns the scaled paper parameters.
func DefaultConfig() Config {
	return Config{
		SliceSize:         50000,
		ExecThreshold:     30,
		MeanTh:            -1, // overall program accuracy
		StdTh:             4.0,
		PAMTh:             0.15,
		UseFIR:            true,
		Metric:            MetricAccuracy,
		FlushPartialSlice: true,
	}
}

// Validate reports a non-nil error, naming the offending field, when
// the configuration is unusable. The thresholds must be finite: a NaN
// or infinite one would only surface once the report is rendered.
func (c Config) Validate() error {
	switch {
	case c.SliceSize <= 0:
		return errConfig("SliceSize must be positive")
	case c.ExecThreshold < 0:
		return errConfig("ExecThreshold must be non-negative")
	case math.IsNaN(c.MeanTh) || math.IsInf(c.MeanTh, 0):
		return errConfig("MeanTh must be finite")
	case !(c.StdTh >= 0) || math.IsInf(c.StdTh, 1):
		return errConfig("StdTh must be finite and non-negative")
	case !(c.PAMTh >= 0 && c.PAMTh < 0.5):
		return errConfig("PAMTh must be in [0, 0.5)")
	case c.SliceStride < 0:
		return errConfig("SliceStride must be non-negative")
	default:
		return nil
	}
}

type errConfig string

func (e errConfig) Error() string { return "core: invalid config: " + string(e) }
