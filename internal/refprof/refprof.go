// Package refprof is a deliberately naive reference implementation of
// 2D-profiling (PAPER.md §1), for differential tests only. It keeps one
// map entry per branch PC and updates it one event at a time: no
// batching, no record windows, no snapshots, no merging. Every
// optimised path (core, engine, serve) must produce the report it
// produces, byte for byte.
//
// The rules it implements:
//
//   - A slice is SliceSize retired branches. For each branch the
//     profiler counts its executions and hits (correct predictions for
//     the accuracy metric, taken outcomes for the bias metric) within
//     the slice.
//   - At a slice end, a branch that executed at least ExecThreshold
//     times (and at least once) contributes one sample: its slice
//     metric in percent, where bias is max(taken rate, 100 - taken
//     rate). With the FIR filter on, the sample is the average of the
//     slice metric and the branch's previous sample (LPA); a branch's
//     first-ever sample is taken unfiltered. The sample updates
//     N, SPA, SSPA and LPA, and NPAM counts samples above the running
//     mean SPA/N.
//   - With SliceStride > 1 only every SliceStride-th slice samples.
//   - At the end of the run a trailing partial slice of at least
//     SliceSize/2 branches is closed like a full one
//     (FlushPartialSlice).
//   - MEAN: mean sample below the threshold (MeanTh, or the program's
//     overall metric when MeanTh is negative). STD: standard deviation
//     above StdTh. PAM: the fraction NPAM/N inside (PAMTh, 1-PAMTh). A
//     branch is input-dependent iff (MEAN or STD) and PAM.
package refprof

import (
	"math"

	"twodprof/internal/bpred"
	"twodprof/internal/core"
	"twodprof/internal/trace"
)

// branch is one static branch's seven counters plus its lifetime
// totals.
type branch struct {
	n         int64   // N: samples taken
	spa, sspa float64 // SPA, SSPA: sum and sum of squares of samples
	npam      int64   // NPAM: samples above the running mean
	lpa       float64 // LPA: the previous sample
	hasLPA    bool
	exec, hit int64 // executions and hits in the current slice
	totExec   int64
	totHit    int64
}

// Profiler profiles one branch stream.
type Profiler struct {
	cfg       core.Config
	pred      bpred.Predictor // nil for the bias metric
	branches  map[trace.PC]*branch
	sliceExec int64
	slices    int64
	totExec   int64
	totHit    int64
}

// New returns a profiler. predictor names the bpred predictor of the
// accuracy metric; the bias metric ignores it.
func New(cfg core.Config, predictor string) (*Profiler, error) {
	p := &Profiler{cfg: cfg, branches: make(map[trace.PC]*branch)}
	if cfg.Metric == core.MetricAccuracy {
		pred, err := bpred.New(predictor)
		if err != nil {
			return nil, err
		}
		p.pred = pred
	}
	return p, nil
}

// percent converts hits out of executions to the configured metric.
func (p *Profiler) percent(hit, exec int64) float64 {
	v := 100 * float64(hit) / float64(exec)
	if p.cfg.Metric == core.MetricBias && v < 50 {
		v = 100 - v
	}
	return v
}

// Branch records one dynamic branch.
func (p *Profiler) Branch(pc trace.PC, taken bool) {
	hit := taken
	if p.pred != nil {
		hit = p.pred.Predict(pc) == taken
		p.pred.Update(pc, taken)
	}
	b := p.branches[pc]
	if b == nil {
		b = &branch{}
		p.branches[pc] = b
	}
	b.exec++
	b.totExec++
	p.totExec++
	if hit {
		b.hit++
		b.totHit++
		p.totHit++
	}
	p.sliceExec++
	if p.sliceExec == p.cfg.SliceSize {
		p.endSlice()
	}
}

// endSlice closes the current slice.
func (p *Profiler) endSlice() {
	sampled := p.cfg.SliceStride <= 1 || p.slices%int64(p.cfg.SliceStride) == 0
	for _, b := range p.branches {
		if sampled && b.exec > 0 && b.exec >= p.cfg.ExecThreshold {
			v := p.percent(b.hit, b.exec)
			if p.cfg.UseFIR && b.hasLPA {
				v = (v + b.lpa) / 2
			}
			b.n++
			b.spa += v
			b.sspa += v * v
			if v > b.spa/float64(b.n) {
				b.npam++
			}
			b.lpa, b.hasLPA = v, true
		}
		b.exec, b.hit = 0, 0
	}
	p.slices++
	p.sliceExec = 0
}

// Finish closes a long enough trailing slice and runs the three tests.
// Call it once.
func (p *Profiler) Finish() *core.Report {
	if p.cfg.FlushPartialSlice && p.sliceExec > 0 && p.sliceExec >= p.cfg.SliceSize/2 {
		p.endSlice()
	}
	rep := &core.Report{
		Config:    p.cfg,
		Slices:    p.slices,
		TotalExec: p.totExec,
		Branches:  make(map[trace.PC]core.BranchResult, len(p.branches)),
	}
	if p.pred != nil {
		rep.Predictor = p.pred.Name()
	}
	if p.totExec > 0 {
		rep.Overall = p.percent(p.totHit, p.totExec)
	}
	rep.MeanThApplied = p.cfg.MeanTh
	if rep.MeanThApplied < 0 {
		rep.MeanThApplied = rep.Overall
	}
	for pc, b := range p.branches {
		r := core.BranchResult{Exec: b.totExec, SliceN: b.n}
		if b.totExec > 0 {
			r.Lifetime = p.percent(b.totHit, b.totExec)
		}
		if b.n > 0 {
			r.Mean = b.spa / float64(b.n)
			r.Std = math.Sqrt(math.Max(0, b.sspa/float64(b.n)-r.Mean*r.Mean))
			r.PAMFrac = float64(b.npam) / float64(b.n)
			r.PassMean = !p.cfg.DisableMean && r.Mean < rep.MeanThApplied
			r.PassStd = !p.cfg.DisableStd && r.Std > p.cfg.StdTh
			r.PassPAM = p.cfg.DisablePAM || (r.PAMFrac > p.cfg.PAMTh && r.PAMFrac < 1-p.cfg.PAMTh)
			r.InputDependent = (r.PassMean || r.PassStd) && r.PassPAM
		}
		rep.Branches[pc] = r
	}
	return rep
}
