package main

import (
	"bytes"
	"fmt"
	"io"
	"slices"

	"twodprof/internal/bpred"
	"twodprof/internal/core"
	"twodprof/internal/rng"
	"twodprof/internal/synth"
	"twodprof/internal/trace"
)

// The layout pair profiles one synthetic stream twice, with the same
// sites at two sets of PCs: compact, 4 bytes apart in the order the
// sites first run, so that the first PC seen is the lowest and any
// structure indexed by PC offset serves every site from one small
// window; and spread, at distinct, random, instruction-aligned PCs over
// 4 MiB of text, as in a real binary. Its rows time the profile layer
// alone, so their ratio shows whether the profiler's cost depends on
// where the branches sit.
const (
	layoutSites  = 2000
	layoutEvents = 4_000_000
	layoutBase   = 0x400000
	layoutSpan   = 4 << 20
	layoutSeed   = 0x1a70
)

// layout is one layout's stream, decoded once into SoA batches, with
// each batch's hit bitmap from the bench predictor run over the whole
// stream in order.
type layout struct {
	*workload
	batches []trace.SoABatch
	hits    [][]uint64
}

// layoutPair records the stream in both layouts.
func layoutPair() (compact, spread *layout) {
	pop := synth.DefaultPopulationConfig("bench-layout", layoutSeed)
	pop.NumSites, pop.DynTarget = layoutSites, layoutEvents
	w := synth.NewPopulation(pop).Workload("train")
	first := firstRun{}
	w.Run(first)
	r := rng.New(layoutSeed)
	used := make(map[trace.PC]bool, len(w.Sites))
	name := fmt.Sprintf("synthetic-layout/%d-sites", layoutSites)
	compact = newLayout(name+" compact", relaid(w, func(pc trace.PC) trace.PC {
		first.Branch(pc, false) // a site that never runs goes last
		return trace.PC(layoutBase + 4*first[pc])
	}))
	spread = newLayout(name+" spread-4MiB", relaid(w, func(trace.PC) trace.PC {
		for {
			pc := trace.PC(layoutBase + 4*r.Uint64n(layoutSpan/4))
			if !used[pc] {
				used[pc] = true
				return pc
			}
		}
	}))
	return compact, spread
}

// firstRun numbers a stream's branch PCs in the order they first run.
type firstRun map[trace.PC]int

// Branch implements trace.Sink.
func (f firstRun) Branch(pc trace.PC, _ bool) {
	if _, ok := f[pc]; !ok {
		f[pc] = len(f)
	}
}

// relaid returns a copy of w with each site moved from its PC to
// to(PC); the stream is otherwise the same.
func relaid(w *synth.Workload, to func(trace.PC) trace.PC) *synth.Workload {
	c := *w
	c.Sites = slices.Clone(w.Sites)
	for i := range c.Sites {
		c.Sites[i].PC = to(c.Sites[i].PC)
	}
	return &c
}

// newLayout records src and decodes its BTR2 encoding into batches.
func newLayout(name string, src trace.Source) *layout {
	l := &layout{workload: record(name, src, false)}
	rd, err := trace.NewBTR2Reader(bytes.NewReader(l.btr2))
	must(err)
	pred := bpred.MustNew(predictor)
	for {
		c, err := rd.NextChunk()
		if err == io.EOF {
			return l
		}
		must(err)
		var b trace.SoABatch
		must(c.DecodeSoA(&b))
		hits := make([]uint64, len(b.Taken))
		bpred.ApplyBatchSoA(pred, b.PCs, b.Taken, hits)
		l.batches = append(l.batches, b)
		l.hits = append(l.hits, hits)
	}
}

// profileRow feeds the batches and hit bitmaps to a new profiler's
// OutcomeBatchSoA: a hardware-mode profiler for the accuracy metric,
// an edge profiler for bias. Its report must equal the layout's plain
// profiler's.
func (l *layout) profileRow(m core.Metric) *row {
	return l.metricRow("profile-outcomes", m, func(cfg core.Config) (*core.Report, error) {
		var prof *core.Profiler
		var err error
		if m == core.MetricAccuracy {
			prof, err = core.NewHardwareProfiler(cfg)
		} else {
			prof, err = core.NewProfiler(cfg, nil)
		}
		if err != nil {
			return nil, err
		}
		for i := range l.batches {
			b := &l.batches[i]
			prof.OutcomeBatchSoA(b.PCs, b.Taken, l.hits[i], 0)
		}
		rep := prof.Finish()
		if m == core.MetricAccuracy {
			// A hardware-mode profiler is not told which predictor
			// produced its outcomes.
			rep.Predictor = predictor
		}
		return rep, nil
	})
}
