package core_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"twodprof/internal/bpred"
	"twodprof/internal/core"
	"twodprof/internal/refprof"
	"twodprof/internal/rng"
	"twodprof/internal/trace"
)

// layoutSiteCounts step across the record index's growth points and,
// at 70,000, past any bound on the static branch count.
var layoutSiteCounts = []int{1, 63, 64, 65, 2000, 70000}

// layouts place n distinct branch sites in the address space.
var layouts = []struct {
	name string
	pcs  func(r *rng.Source, n int) []trace.PC
}{
	{"compact", func(_ *rng.Source, n int) []trace.PC {
		return stridePCs(n, 4)
	}},
	{"random-4MiB", func(r *rng.Source, n int) []trace.PC {
		return distinctPCs(n, func() trace.PC { return 0x400000 + 4*trace.PC(r.Uint64n(4<<20/4)) })
	}},
	{"stride-1MiB", func(_ *rng.Source, n int) []trace.PC {
		return stridePCs(n, 1<<20)
	}},
	{"random-64bit", func(r *rng.Source, n int) []trace.PC {
		pcs := distinctPCs(n, func() trace.PC { return trace.PC(r.Uint64()) }, 0, math.MaxUint64)
		return pcs[:n]
	}},
}

func stridePCs(n int, stride trace.PC) []trace.PC {
	pcs := make([]trace.PC, n)
	for i := range pcs {
		pcs[i] = 0x400000 + trace.PC(i)*stride
	}
	return pcs
}

// distinctPCs returns the fixed PCs followed by draws, skipping
// repeats, until it holds at least n PCs.
func distinctPCs(n int, draw func() trace.PC, fixed ...trace.PC) []trace.PC {
	seen := make(map[trace.PC]bool, n)
	pcs := make([]trace.PC, 0, max(n, len(fixed)))
	for _, pc := range fixed {
		seen[pc] = true
		pcs = append(pcs, pc)
	}
	for len(pcs) < n {
		if pc := draw(); !seen[pc] {
			seen[pc] = true
			pcs = append(pcs, pc)
		}
	}
	return pcs
}

// layoutStream visits every site once in random order, so no layout
// interns its sites in address order, then draws events skewed towards
// a few hot sites. Each site's taken probability flips at a planted
// event, so slice metrics move and some branches test input-dependent.
func layoutStream(r *rng.Source, pcs []trace.PC) []trace.Event {
	probs := []float64{0.02, 0.3, 0.5, 0.7, 0.98}
	p1, p2, flip := make([]float64, len(pcs)), make([]float64, len(pcs)), make([]int, len(pcs))
	n := len(pcs) + 20000
	for i := range pcs {
		p1[i], p2[i], flip[i] = probs[r.Intn(len(probs))], probs[r.Intn(len(probs))], r.Intn(n)
	}
	events := make([]trace.Event, 0, n)
	for _, s := range r.Perm(len(pcs)) {
		events = append(events, trace.Event{PC: pcs[s], Taken: r.Bool(p1[s])})
	}
	for i := len(events); i < n; i++ {
		s := r.Intn(1 + r.Intn(min(len(pcs), 64)))
		p := p1[s]
		if i >= flip[s] {
			p = p2[s]
		}
		events = append(events, trace.Event{PC: pcs[s], Taken: r.Bool(p)})
	}
	return events
}

// TestRecordLayoutsMatchReference profiles the same kinds of stream
// with their sites laid out compactly, spread at random over 4 MiB, at
// a 1 MiB stride and over the whole 64-bit range (0 and 2^64-1
// included), at site counts across the index's growth points. Every
// report must equal the naive reference's, whether the events arrive
// one by one at a fresh profiler or as SoA batches split at random
// offsets into one profiler reused through Reset across every case.
func TestRecordLayoutsMatchReference(t *testing.T) {
	for _, m := range []core.Metric{core.MetricAccuracy, core.MetricBias} {
		cfg := core.DefaultConfig()
		cfg.Metric, cfg.SliceSize, cfg.ExecThreshold = m, 997, 3
		pred := ""
		if m == core.MetricAccuracy {
			pred = bpred.NameGshare4KB
		}
		newProf := func() *core.Profiler {
			var bp bpred.Predictor
			if pred != "" {
				bp = bpred.MustNew(pred)
			}
			return core.MustNewProfiler(cfg, bp)
		}
		reused := newProf()
		r := rng.New(uint64(7 + m))
		for _, l := range layouts {
			for _, n := range layoutSiteCounts {
				t.Run(fmt.Sprintf("%s/%s/%d-sites", m, l.name, n), func(t *testing.T) {
					if n > 2000 && testing.Short() {
						t.Skip("70,000-site layouts in -short mode")
					}
					events := layoutStream(r, l.pcs(r, n))
					ref, err := refprof.New(cfg, pred)
					if err != nil {
						t.Fatal(err)
					}
					for _, e := range events {
						ref.Branch(e.PC, e.Taken)
					}
					rep := ref.Finish()
					if got := len(rep.Branches); got != n {
						t.Fatalf("reference saw %d sites, want %d", got, n)
					}
					want := layoutJSON(t, rep)

					fresh := newProf()
					for _, e := range events {
						fresh.Branch(e.PC, e.Taken)
					}
					layoutMatch(t, "fresh, per event", fresh.Finish(), want)

					reused.Reset()
					var all, span trace.SoABatch
					all.FromEvents(events)
					for i := 0; i < len(events); {
						j := min(len(events), i+1+r.Intn(3000))
						all.Span(&span, i, j)
						reused.BranchBatchSoA(&span)
						i = j
					}
					layoutMatch(t, "reused, SoA batches", reused.Finish(), want)
				})
			}
		}
	}
}

func layoutJSON(t *testing.T, rep *core.Report) []byte {
	t.Helper()
	js, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return js
}

func layoutMatch(t *testing.T, what string, rep *core.Report, want []byte) {
	t.Helper()
	if got := layoutJSON(t, rep); !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s: report differs from the reference at byte %d (%d vs %d bytes)\ngot  …%s\nwant …%s",
			what, i, len(got), len(want), got[max(0, i-80):min(len(got), i+80)], want[max(0, i-80):min(len(want), i+80)])
	}
}
