// Command profile2d runs the 2D-profiling algorithm over one benchmark
// input (or a recorded trace file) and reports the branches it predicts
// to be input-dependent.
//
// Usage:
//
//	profile2d -bench gap -input train
//	profile2d -bench gzip -input train -predictor gshare-4KB -top 20
//	profile2d -trace run.btr -slice 20000
//	profile2d -trace run.btr2 -workers 8                      (BTR2 parallel chunk decode)
//	profile2d -trace - < run.btr                              (trace on stdin)
//	profile2d -bench gcc -input train -metric bias            (edge profiling)
//	profile2d -trace run.btr -kernel fsm                      (annotate with asmcheck static verdicts)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"twodprof/internal/asmcheck"
	"twodprof/internal/bpred"
	"twodprof/internal/core"
	"twodprof/internal/engine"
	"twodprof/internal/metrics"
	"twodprof/internal/progs"
	"twodprof/internal/spec"
	"twodprof/internal/trace"
)

func main() {
	var (
		benchName = flag.String("bench", "", "benchmark name (see spec: bzip2, gzip, ...)")
		kernel    = flag.String("kernel", "", "VM kernel name (typesum, lzchain, bsearch, inssort, fsm)")
		input     = flag.String("input", "train", "input set name")
		traceFile = flag.String("trace", "", `trace file (BTR1, BTR2 or BTR3, optionally gzipped) to profile instead of a benchmark ("-" reads the trace from stdin, so traces can be piped without temp files)`)
		workers   = engine.AddWorkersFlag(flag.CommandLine, 1,
			"chunk-decode workers for a BTR2/BTR3 -trace (0 = all CPUs); profiling itself is sequential, and other sources ignore it")
		predName = flag.String("predictor", bpred.NameGshare4KB, "profiler branch predictor")
		metric   = flag.String("metric", "accuracy", "profiled metric: accuracy or bias")
		slice    = flag.Int64("slice", 0, "slice size in branches (0 = default)")
		execTh   = flag.Int64("execth", -1, "per-slice execution threshold (-1 = default)")
		meanTh   = flag.Float64("meanth", -1, "MEAN-test threshold in percent (-1 = overall accuracy)")
		stdTh    = flag.Float64("stdth", -1, "STD-test threshold (-1 = default)")
		pamTh    = flag.Float64("pamth", -1, "PAM-test threshold (-1 = default)")
		noFIR    = flag.Bool("nofir", false, "disable the 2-tap FIR filter")
		top      = flag.Int("top", 0, "print at most N flagged branches (0 = all)")
		verbose  = flag.Bool("v", false, "print every tested branch, not only flagged ones")
		jsonOut  = flag.Bool("json", false, "emit the full report as JSON instead of text")
		compare  = flag.String("compare", "", "second input set: measure ground truth against it and score the verdicts")
		target   = flag.String("target", "", "target predictor for -compare ground truth (default: same as -predictor)")
		minExec  = flag.Int64("minexec", 2500, "eligibility floor for -compare ground truth")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProf  = flag.String("memprofile", "", "write a heap profile at exit to this file (go tool pprof)")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(err)
			}
		}()
	}

	cfg := core.DefaultConfig()
	if *slice > 0 {
		cfg.SliceSize = *slice
	}
	if *execTh >= 0 {
		cfg.ExecThreshold = *execTh
	}
	// A negative threshold keeps the default; anything else, NaN
	// included, reaches the config and its validation.
	cfg.MeanTh = *meanTh
	if !(*stdTh < 0) {
		cfg.StdTh = *stdTh
	}
	if !(*pamTh < 0) {
		cfg.PAMTh = *pamTh
	}
	cfg.UseFIR = !*noFIR
	switch *metric {
	case "accuracy":
		cfg.Metric = core.MetricAccuracy
	case "bias":
		cfg.Metric = core.MetricBias
	default:
		fail(fmt.Errorf("unknown metric %q (want accuracy or bias)", *metric))
	}

	var rep *core.Report
	switch {
	case *traceFile != "":
		f := os.Stdin
		if *traceFile != "-" {
			var err error
			if f, err = os.Open(*traceFile); err != nil {
				fail(err)
			}
			defer f.Close()
		}
		// engine.ProfileStream validates the predictor name itself and,
		// on BTR2/BTR3 traces, decodes chunks across -workers; the
		// report is byte-identical to a sequential pass either way. A
		// trace carries no program identity, so the static prefilter
		// column needs -kernel to name the program that produced it.
		opts := engine.Options{Workers: *workers, Predictor: *predName}
		if *kernel != "" {
			k, ok := progs.KernelByName(*kernel)
			if !ok {
				fail(fmt.Errorf("unknown kernel %q (known: %s)",
					*kernel, strings.Join(progs.KernelNames(), ", ")))
			}
			opts.Static = asmcheck.StaticClasses(k.Prog)
		}
		r, err := engine.ProfileStream(f, cfg, opts)
		if err != nil {
			fail(err)
		}
		rep = r
	case *benchName != "":
		b, err := spec.Get(*benchName)
		if err != nil {
			fail(err)
		}
		w, err := b.Workload(*input)
		if err != nil {
			fail(err)
		}
		r, err := engine.Run(w, cfg, engine.Options{Workers: *workers, Predictor: *predName})
		if err != nil {
			fail(err)
		}
		rep = r
	case *kernel != "":
		inst, err := progs.StandardInput(*kernel, *input)
		if err != nil {
			fail(err)
		}
		// Kernel runs know their program, so the report gets the static
		// prefilter column (asmcheck verdict per branch).
		r, err := engine.Run(inst, cfg, engine.Options{
			Workers:   *workers,
			Predictor: *predName,
			Static:    asmcheck.StaticClasses(inst.Kernel.Prog),
		})
		if err != nil {
			fail(err)
		}
		rep = r
	default:
		fmt.Fprintln(os.Stderr, "profile2d: need -bench, -kernel or -trace")
		flag.Usage()
		os.Exit(2)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fail(err)
		}
		return
	}
	fmt.Print(rep.Summary())
	fmt.Println()

	pcs := rep.Tested()
	if !*verbose {
		pcs = rep.InputDependent()
	}
	// Most variable branches first; they are the interesting ones.
	sort.Slice(pcs, func(i, j int) bool {
		return rep.Branches[pcs[i]].Std > rep.Branches[pcs[j]].Std
	})
	if *top > 0 && len(pcs) > *top {
		pcs = pcs[:*top]
	}
	for _, pc := range pcs {
		fmt.Println(rep.FormatBranch(pc))
	}

	if *compare != "" {
		if err := runCompare(rep, *benchName, *kernel, *input, *compare, *predName, *target, *minExec); err != nil {
			fail(err)
		}
	}
}

// runCompare measures ground truth between the profiled input and the
// comparison input under the target predictor and scores the report.
func runCompare(rep *core.Report, benchName, kernel, input, compareInput, profPred, targetPred string, minExec int64) error {
	if targetPred == "" {
		targetPred = profPred
	}
	load := func(in string) (trace.Source, error) {
		if benchName != "" {
			b, err := spec.Get(benchName)
			if err != nil {
				return nil, err
			}
			return b.Workload(in)
		}
		if kernel != "" {
			return progs.StandardInput(kernel, in)
		}
		return nil, fmt.Errorf("-compare requires -bench or -kernel")
	}
	srcA, err := load(input)
	if err != nil {
		return err
	}
	srcB, err := load(compareInput)
	if err != nil {
		return err
	}
	pa, err := bpred.New(targetPred)
	if err != nil {
		return err
	}
	pb, err := bpred.New(targetPred)
	if err != nil {
		return err
	}
	truth := metrics.Define(bpred.Measure(srcA, pa), bpred.Measure(srcB, pb), metrics.DefaultDeltaTh, minExec)
	ev := metrics.Evaluate(rep, truth)
	fmt.Printf("\nground truth vs %q under %s: %d of %d branches input-dependent\n",
		compareInput, targetPred, truth.NumDependent(), truth.Eligible())
	fmt.Println(ev)

	var missed, spurious []trace.PC
	for pc, dep := range truth.Labels {
		flagged := rep.IsInputDependent(pc)
		if dep && !flagged {
			missed = append(missed, pc)
		}
		if !dep && flagged {
			spurious = append(spurious, pc)
		}
	}
	sort.Slice(missed, func(i, j int) bool { return missed[i] < missed[j] })
	sort.Slice(spurious, func(i, j int) bool { return spurious[i] < spurious[j] })
	if len(missed) > 0 {
		fmt.Printf("missed input-dependent branches (%d):\n", len(missed))
		for _, pc := range missed {
			fmt.Printf("  %s (delta %.2f)\n", rep.FormatBranch(pc), truth.Delta[pc])
		}
	}
	if len(spurious) > 0 {
		fmt.Printf("flagged but stable vs this input (%d) — possibly dependent on other inputs:\n", len(spurious))
		for _, pc := range spurious {
			fmt.Printf("  %s (delta %.2f)\n", rep.FormatBranch(pc), truth.Delta[pc])
		}
	}
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "profile2d:", err)
	os.Exit(1)
}
