package core

import (
	"reflect"
	"testing"

	"twodprof/internal/bpred"
	"twodprof/internal/synth"
	"twodprof/internal/trace"
)

func snapshotWorkload(name string) trace.Source {
	pc := synth.DefaultPopulationConfig(name, 0x5eed)
	pc.NumSites = 120
	pc.DynTarget = 300_000
	return synth.NewPopulation(pc).Workload("train")
}

// TestMergeSnapshotsUnion merges the snapshots of PC-disjoint
// profilers, each with its own predictor and slice clock, the way a
// collector group is merged. The merge is a union: every member's
// branch counters survive unchanged, the totals sum, the slice count is
// the largest member's, the member order does not matter, and the
// merged report's per-branch results are each member's own, with only
// the MEAN test resolved against the union's overall metric.
func TestMergeSnapshotsUnion(t *testing.T) {
	for _, metric := range []Metric{MetricAccuracy, MetricBias} {
		cfg := DefaultConfig()
		cfg.SliceSize = 4000
		cfg.ExecThreshold = 10
		cfg.Metric = metric
		const members = 3
		profs := make([]*Profiler, members)
		for i := range profs {
			var pred bpred.Predictor
			if metric == MetricAccuracy {
				pred = bpred.MustNew(bpred.NameGshare4KB)
			}
			profs[i] = MustNewProfiler(cfg, pred)
		}
		snapshotWorkload("snapmatch").Run(trace.SinkFunc(func(pc trace.PC, taken bool) {
			profs[uint64(pc)%members].Branch(pc, taken)
		}))
		snaps := make([]*Snapshot, members)
		reps := make([]*Report, members)
		for i, p := range profs {
			reps[i] = p.Finish()
			snaps[i] = p.Snapshot()
		}
		merged, err := MergeSnapshots(snaps...)
		if err != nil {
			t.Fatal(err)
		}
		reversed, err := MergeSnapshots(snaps[2], snaps[1], snaps[0])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(merged, reversed) {
			t.Errorf("metric %v: the merge depends on member order", metric)
		}

		var exec, hit, slices int64
		branches := 0
		for _, s := range snaps {
			exec += s.TotalExec
			hit += s.TotalHit
			slices = max(slices, s.Slices)
			branches += len(s.Branches)
			for pc, bc := range s.Branches {
				if merged.Branches[pc] != bc {
					t.Errorf("metric %v: branch %#x counters changed in the merge", metric, uint64(pc))
				}
			}
		}
		if merged.TotalExec != exec || merged.TotalHit != hit || merged.Slices != slices || len(merged.Branches) != branches {
			t.Errorf("metric %v: merged totals exec %d hit %d slices %d branches %d, want %d %d %d %d",
				metric, merged.TotalExec, merged.TotalHit, merged.Slices, len(merged.Branches), exec, hit, slices, branches)
		}

		rep := merged.Report()
		if rep.MeanThApplied != merged.OverallMetric() {
			t.Errorf("metric %v: MEAN threshold %v, want the union's overall metric %v", metric, rep.MeanThApplied, merged.OverallMetric())
		}
		for _, member := range reps {
			for pc, want := range member.Branches {
				got := rep.Branches[pc]
				want.PassMean = want.SliceN > 0 && want.Mean < rep.MeanThApplied
				want.InputDependent = want.SliceN > 0 && (want.PassMean || want.PassStd) && want.PassPAM
				if got != want {
					t.Errorf("metric %v: branch %#x merged result %+v, want %+v", metric, uint64(pc), got, want)
				}
			}
		}
	}
}

func TestSnapshotIsCopyOnRead(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SliceSize = 100
	p := MustNewProfiler(cfg, bpred.MustNew(bpred.NameGshare4KB))
	for i := 0; i < 550; i++ {
		p.Branch(trace.PC(i%7), i%3 == 0)
	}
	snap := p.Snapshot()
	before := snap.Report()

	// Feeding more events must not alter the snapshot already taken.
	for i := 0; i < 1000; i++ {
		p.Branch(trace.PC(i%7), i%2 == 0)
	}
	after := snap.Report()
	if !reflect.DeepEqual(before, after) {
		t.Error("snapshot changed after profiler kept receiving events")
	}
	if snap.TotalExec != 550 {
		t.Errorf("snapshot TotalExec = %d, want 550", snap.TotalExec)
	}
}

func TestMergeSnapshotsRejectsOverlapAndMismatch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Metric = MetricBias
	a := MustNewProfiler(cfg, nil)
	b := MustNewProfiler(cfg, nil)
	a.Branch(1, true)
	b.Branch(1, false)
	if _, err := MergeSnapshots(a.Snapshot(), b.Snapshot()); err == nil {
		t.Error("merging overlapping snapshots should fail")
	}

	cfg2 := cfg
	cfg2.SliceSize++
	c := MustNewProfiler(cfg2, nil)
	if _, err := MergeSnapshots(a.Snapshot(), c.Snapshot()); err == nil {
		t.Error("merging differing configs should fail")
	}
	if _, err := MergeSnapshots(); err == nil {
		t.Error("merging zero snapshots should fail")
	}
}
