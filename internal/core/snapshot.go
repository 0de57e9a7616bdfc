package core

import (
	"fmt"
	"math"

	"twodprof/internal/trace"
)

// Snapshots and their merge.
//
// A Snapshot is a consistent, copy-on-read view of a profiler's
// per-branch Figure 9 counters. (*Snapshot).Report runs the Figure 9c
// tests over it, and Finish is Snapshot().Report(), so a snapshot
// checkpointed from a finished profiler reproduces its report bit for
// bit. Because the seven per-branch variables are keyed by PC and never
// reference another branch's state, snapshots whose branch sets are
// disjoint by PC merge by plain union: MergeSnapshots recombines the
// members of a collector group, each profiled with its own slice
// clock, and the merged report resolves the MEAN threshold against the
// union's totals.

// BranchCounters holds one branch's accumulated statistics: the
// Figure 9a variables that survive slice boundaries, plus the lifetime
// totals used for reporting. In-flight counters of a not-yet-completed
// slice (exec/hit within the current slice) are intentionally absent —
// they have not contributed a sample yet — but TotalExec/TotalHit do
// include those events.
type BranchCounters struct {
	SliceN    int64   // N:    slices that contributed a sample
	SPA       float64 // SPA:  sum of (filtered) slice metrics
	SSPA      float64 // SSPA: sum of squares of slice metrics
	NPAM      int64   // NPAM: samples that exceeded the running mean
	LPA       float64 // LPA:  previous slice's filtered metric
	HasLPA    bool    // whether LPA holds a real previous sample
	TotalExec int64   // lifetime dynamic executions
	TotalHit  int64   // lifetime metric numerator
}

// Snapshot is a self-contained copy of a profiler's statistical state
// at one instant. It can be taken mid-run, serialised, merged with
// PC-disjoint snapshots, and turned into a Report.
type Snapshot struct {
	Config    Config
	Predictor string // profiler predictor name ("" for edge profiling)
	Slices    int64  // completed slices
	TotalExec int64  // dynamic branches observed (including current slice)
	TotalHit  int64  // whole-program metric numerator
	Branches  map[trace.PC]BranchCounters
}

// Snapshot returns a consistent copy of the profiler's per-branch
// counters. The profiler is not finished, flushed or otherwise
// disturbed: events fed after the call do not alter the snapshot, and
// the trailing partial slice (if any) is reflected only in the lifetime
// totals, exactly as an unflushed Finish would see it.
//
// The profiler itself is not safe for concurrent use; callers that
// snapshot a live profiler must serialise Snapshot against the feeding
// goroutine (internal/engine holds one mutex for both).
func (p *Profiler) Snapshot() *Snapshot {
	s := &Snapshot{
		Config:    p.cfg,
		Slices:    p.slices,
		TotalExec: p.totalExec,
		TotalHit:  p.totalHit,
		Branches:  make(map[trace.PC]BranchCounters, len(p.recs)),
	}
	if p.pred != nil {
		s.Predictor = p.pred.Name()
	}
	for i := range p.recs {
		r := &p.recs[i]
		s.Branches[r.pc] = BranchCounters{
			SliceN:    r.n,
			SPA:       r.spa,
			SSPA:      r.sspa,
			NPAM:      r.npam,
			LPA:       r.lpa,
			HasLPA:    r.hasLPA,
			TotalExec: r.totExec,
			TotalHit:  r.totHit,
		}
	}
	return s
}

// MergeSnapshots unions snapshots whose branch sets are disjoint by PC:
// the members of a collector group. Lifetime totals sum; each member
// kept its own slice clock, so the slice count is the largest member's.
// The union is not the report of one interleaved stream and is not
// claimed to equal it. It is an error to merge snapshots with differing
// configurations or predictors, or with overlapping branches — the
// collector-group contract.
func MergeSnapshots(snaps ...*Snapshot) (*Snapshot, error) {
	if len(snaps) == 0 {
		return nil, fmt.Errorf("core: merging zero snapshots")
	}
	out := &Snapshot{
		Config:    snaps[0].Config,
		Predictor: snaps[0].Predictor,
		Branches:  make(map[trace.PC]BranchCounters),
	}
	for i, s := range snaps {
		if s.Config != out.Config {
			return nil, fmt.Errorf("core: merging snapshots with differing configs (snapshot %d)", i)
		}
		if s.Predictor != out.Predictor {
			return nil, fmt.Errorf("core: merging snapshots with differing predictors (%q vs %q)",
				s.Predictor, out.Predictor)
		}
		out.TotalExec += s.TotalExec
		out.TotalHit += s.TotalHit
		if s.Slices > out.Slices {
			out.Slices = s.Slices
		}
		for pc, bc := range s.Branches {
			if _, dup := out.Branches[pc]; dup {
				return nil, fmt.Errorf("core: branch %#x present in more than one snapshot", uint64(pc))
			}
			out.Branches[pc] = bc
		}
	}
	return out, nil
}

// OverallMetric returns the snapshot's whole-program metric in percent.
func (s *Snapshot) OverallMetric() float64 {
	if s.TotalExec == 0 {
		return 0
	}
	return metricValue(s.Config.Metric, s.TotalHit, s.TotalExec)
}

// Report runs the three input-dependence tests (Figure 9c) over the
// snapshot and returns the report. Unlike Finish it never flushes a
// trailing partial slice — a snapshot has no in-slice state to flush.
func (s *Snapshot) Report() *Report {
	meanTh := s.Config.MeanTh
	if meanTh < 0 {
		meanTh = s.OverallMetric()
	}

	rep := &Report{
		Config:        s.Config,
		Predictor:     s.Predictor,
		MeanThApplied: meanTh,
		Slices:        s.Slices,
		Overall:       s.OverallMetric(),
		TotalExec:     s.TotalExec,
		Branches:      make(map[trace.PC]BranchResult, len(s.Branches)),
	}

	for pc, bc := range s.Branches {
		res := BranchResult{
			Exec:   bc.TotalExec,
			SliceN: bc.SliceN,
		}
		if bc.TotalExec > 0 {
			res.Lifetime = metricValue(s.Config.Metric, bc.TotalHit, bc.TotalExec)
		}
		if bc.SliceN > 0 {
			mean := bc.SPA / float64(bc.SliceN)
			variance := bc.SSPA/float64(bc.SliceN) - mean*mean
			if variance < 0 {
				variance = 0
			}
			res.Mean = mean
			res.Std = math.Sqrt(variance)
			res.PAMFrac = float64(bc.NPAM) / float64(bc.SliceN)

			res.PassMean = !s.Config.DisableMean && mean < meanTh
			res.PassStd = !s.Config.DisableStd && res.Std > s.Config.StdTh
			if s.Config.DisablePAM {
				res.PassPAM = true
			} else {
				res.PassPAM = res.PAMFrac > s.Config.PAMTh && res.PAMFrac < 1-s.Config.PAMTh
			}
			res.InputDependent = (res.PassMean || res.PassStd) && res.PassPAM
		}
		rep.Branches[pc] = res
	}
	return rep
}
