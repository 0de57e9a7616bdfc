package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"twodprof/internal/engine"
	"twodprof/internal/spec"
	"twodprof/internal/synth"
	"twodprof/internal/trace"
)

func init() {
	register("ext-mt",
		"extension: multithreaded interleaving — shared vs private predictor tables, per-class COV/ACC against the single-thread oracle",
		runExtMT)
}

// extMTBench is the benchmark whose inputs play the threads: each
// context runs the same code (same site PCs) on a different input set,
// which is the multithreaded-server scenario — and the worst case for a
// context-blind profiler, because the shared tables and the per-PC
// accuracy series both merge streams that genuinely differ.
const extMTBench = "gzip"

// extMTCtxs is the swept thread-count axis.
var extMTCtxs = []int{2, 4}

// ExtMTRow aggregates verdict agreement for one predictability class
// under one (context count, aggregation mode) cell. The unit of
// counting is one (context, branch) observation; the oracle is the
// solo single-thread profile of that context's stream.
type ExtMTRow struct {
	Class string
	// Branches counts tested observations, OracleDep the ones the solo
	// profile flags, ModeDep the ones the interleaved profile flags,
	// Both their intersection.
	Branches  int
	OracleDep int
	ModeDep   int
	Both      int
}

// COV is the coverage of the interleaved verdict over the oracle: of
// the observations the solo profiles flag input-dependent, the
// fraction the interleaved profile also flags (1 when none).
func (r ExtMTRow) COV() float64 {
	if r.OracleDep == 0 {
		return 1
	}
	return float64(r.Both) / float64(r.OracleDep)
}

// ACC is the accuracy of the interleaved verdict: of the observations
// it flags, the fraction the oracle confirms (1 when it flags none).
func (r ExtMTRow) ACC() float64 {
	if r.ModeDep == 0 {
		return 1
	}
	return float64(r.Both) / float64(r.ModeDep)
}

// ExtMTSweep is one (context count, aggregation mode) cell of the
// sweep: the per-class agreement rows plus their aggregate.
type ExtMTSweep struct {
	Ctxs    int
	Mode    string
	Rows    []ExtMTRow
	Overall ExtMTRow
}

// ExtMT is the multithreaded-interleaving experiment: context count
// crossed with aggregation mode, bursty schedule, judged per
// predictability class against the single-thread oracle.
type ExtMT struct {
	Bench  string
	Sched  string
	Inputs []string // stream i = input i (context i of the merge)
	Sweeps []ExtMTSweep
	// PrivateIdentical reports whether every private-mode per-context
	// report was byte-identical to its stream's solo profile — the
	// tentpole's correctness invariant.
	PrivateIdentical bool
}

func runExtMT(ctx *Context) (Result, error) {
	b, err := spec.Get(extMTBench)
	if err != nil {
		return nil, err
	}
	maxCtxs := extMTCtxs[len(extMTCtxs)-1]
	inputs := append([]string{"train", "ref"}, b.ExtInputs()...)
	if len(inputs) < maxCtxs {
		return nil, fmt.Errorf("ext-mt: %s has %d inputs, need %d", extMTBench, len(inputs), maxCtxs)
	}
	inputs = inputs[:maxCtxs]

	cfg := ctx.Config
	cfg.SliceSize = 8000

	// Solo oracles: each stream profiled alone (the single-thread
	// reference), plus its raw outcome stats for the class buckets.
	type solo struct {
		rep   []byte // canonical JSON of the solo report
		deps  map[trace.PC]bool
		pcs   []trace.PC
		stats *outcomeStats
	}
	solos := make([]solo, maxCtxs)
	if err := parEach(ctx, maxCtxs, func(i int) error {
		w, err := b.Workload(inputs[i])
		if err != nil {
			return err
		}
		stats := newOutcomeStats()
		w.Run(stats)
		rep, err := profileLive(w, cfg, ctx.ProfPred, nil)
		if err != nil {
			return err
		}
		js, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		deps := map[trace.PC]bool{}
		for _, pc := range rep.Tested() {
			deps[pc] = rep.Branches[pc].InputDependent
		}
		solos[i] = solo{rep: js, deps: deps, pcs: rep.Tested(), stats: stats}
		return nil
	}); err != nil {
		return nil, err
	}

	f := &ExtMT{
		Bench:            extMTBench,
		Sched:            synth.SchedBursty,
		Inputs:           inputs,
		PrivateIdentical: true,
	}

	// The sweep: context count x aggregation mode, bursty schedule.
	type cell struct {
		nctx int
		mode engine.AggMode
	}
	var cells []cell
	for _, n := range extMTCtxs {
		for _, mode := range []engine.AggMode{engine.AggShared, engine.AggPrivate} {
			cells = append(cells, cell{n, mode})
		}
	}
	sweeps := make([]ExtMTSweep, len(cells))
	identical := make([]bool, len(cells))
	if err := parEach(ctx, len(cells), func(ci int) error {
		c := cells[ci]
		identical[ci] = true
		streams := make([]trace.Source, c.nctx)
		for i := 0; i < c.nctx; i++ {
			w, err := b.Workload(inputs[i])
			if err != nil {
				return err
			}
			streams[i] = w
		}
		iv, err := synth.NewInterleaved(streams, synth.SchedBursty, 64, 2026)
		if err != nil {
			return err
		}
		eng, err := engine.New(cfg, engine.Options{
			Workers:     1,
			Predictor:   ctx.ProfPred,
			Aggregation: c.mode,
		})
		if err != nil {
			return err
		}
		iv.Run(eng)

		// verdict(i, pc) is the interleaved profile's call for stream
		// i's branch pc: the per-context report under private tables,
		// the single merged report under shared ones.
		var verdict func(i int, pc trace.PC) bool
		if c.mode == engine.AggPrivate {
			reps, err := eng.FinishContexts()
			if err != nil {
				return err
			}
			for i := 0; i < c.nctx; i++ {
				rep, ok := reps[trace.Context(i)]
				if !ok {
					return fmt.Errorf("ext-mt: no report for context %d", i)
				}
				js, err := json.Marshal(rep)
				if err != nil {
					return err
				}
				if !bytes.Equal(js, solos[i].rep) {
					identical[ci] = false
				}
			}
			verdict = func(i int, pc trace.PC) bool {
				return reps[trace.Context(i)].IsInputDependent(pc)
			}
		} else {
			rep, err := eng.Finish()
			if err != nil {
				return err
			}
			verdict = func(_ int, pc trace.PC) bool { return rep.IsInputDependent(pc) }
		}

		sweep := ExtMTSweep{Ctxs: c.nctx, Mode: c.mode.String()}
		byClass := map[string]*ExtMTRow{}
		for i := 0; i < c.nctx; i++ {
			for _, pc := range solos[i].pcs {
				class := solos[i].stats.class(pc)
				row := byClass[class]
				if row == nil {
					row = &ExtMTRow{Class: class}
					byClass[class] = row
				}
				oracle := solos[i].deps[pc]
				mode := verdict(i, pc)
				row.Branches++
				if oracle {
					row.OracleDep++
				}
				if mode {
					row.ModeDep++
				}
				if oracle && mode {
					row.Both++
				}
			}
		}
		names := make([]string, 0, len(byClass))
		for name := range byClass {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			r := *byClass[name]
			sweep.Rows = append(sweep.Rows, r)
			sweep.Overall.Branches += r.Branches
			sweep.Overall.OracleDep += r.OracleDep
			sweep.Overall.ModeDep += r.ModeDep
			sweep.Overall.Both += r.Both
		}
		sweep.Overall.Class = "overall"
		sweeps[ci] = sweep
		return nil
	}); err != nil {
		return nil, err
	}
	for _, ok := range identical {
		if !ok {
			f.PrivateIdentical = false
		}
	}
	f.Sweeps = sweeps
	return f, nil
}

// Sweep returns the cell for one (context count, mode) pair (nil if
// the sweep does not contain it).
func (f *ExtMT) Sweep(nctx int, mode string) *ExtMTSweep {
	for i := range f.Sweeps {
		if f.Sweeps[i].Ctxs == nctx && f.Sweeps[i].Mode == mode {
			return &f.Sweeps[i]
		}
	}
	return nil
}

// ID implements Result.
func (f *ExtMT) ID() string { return "ext-mt" }

// String renders the sweep as one per-class table per cell.
func (f *ExtMT) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ext-mt: interleaved multithreaded profiling vs the single-thread oracle\n")
	fmt.Fprintf(&b, "benchmark %s, %s schedule; thread i runs input %s\n",
		f.Bench, f.Sched, strings.Join(f.Inputs, ", "))
	for _, s := range f.Sweeps {
		fmt.Fprintf(&b, "\n%d contexts, %s tables\n", s.Ctxs, s.Mode)
		fmt.Fprintf(&b, "%-28s %8s %10s %8s %6s %6s %6s\n",
			"predictability class", "branches", "oracle-dep", "mode-dep", "both", "COV", "ACC")
		rows := append(append([]ExtMTRow{}, s.Rows...), s.Overall)
		for _, r := range rows {
			fmt.Fprintf(&b, "%-28s %8d %10d %8d %6d %6.2f %6.2f\n",
				r.Class, r.Branches, r.OracleDep, r.ModeDep, r.Both, r.COV(), r.ACC())
		}
	}
	status := "PRIVATE-IDENTICAL: every private per-context report matches its solo profile byte for byte"
	if !f.PrivateIdentical {
		status = "MISMATCH: a private per-context report diverged from its solo profile"
	}
	fmt.Fprintf(&b, "\n%s\n", status)
	return b.String()
}
