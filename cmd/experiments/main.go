// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run fig3
//	experiments -run all
//	experiments -run fig10 -profiler gshare-4KB -target perceptron-16KB
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"twodprof/internal/bpred"
	"twodprof/internal/engine"
	"twodprof/internal/exp"
	"twodprof/internal/spec"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list available experiments")
		run      = flag.String("run", "", "experiment id(s, comma-separated), or \"all\"")
		profiler = flag.String("profiler", "gshare-4KB", "2D-profiler predictor configuration")
		target   = flag.String("target", "gshare-4KB", "target-machine predictor (defines ground truth)")
		workers  = engine.AddWorkersFlag(flag.CommandLine, 0,
			"worker-pool size for the experiment engine and cache pre-warming (0 = all CPUs, 1 = serial; output is identical at any setting)")
		verify = flag.Bool("verify", false, "re-check the repository's reproduction claims (artifact evaluation)")
		outDir = flag.String("o", "", "also write each artifact to <dir>/<id>.txt")
	)
	flag.Parse()

	if *list {
		for _, id := range exp.IDs() {
			desc, _ := exp.Describe(id)
			fmt.Printf("%-6s  %s\n", id, desc)
		}
		return
	}
	if *run == "" && !*verify {
		fmt.Fprintln(os.Stderr, "experiments: nothing to do; use -list, -run <id|all> or -verify")
		flag.Usage()
		os.Exit(2)
	}

	ctx := exp.NewContext()
	ctx.ProfPred = *profiler
	ctx.TargetPred = *target
	ctx.Parallelism = engine.ResolveWorkers(*workers)

	if *verify {
		prewarm(ctx, ctx.Parallelism)
		claims, err := exp.VerifyClaims(ctx)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Print(exp.FormatClaims(claims))
		for _, c := range claims {
			if !c.OK {
				os.Exit(1)
			}
		}
		return
	}

	emit := func(res exp.Result) {
		text := res.String()
		fmt.Printf("==================== %s ====================\n", res.ID())
		fmt.Println(text)
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			path := filepath.Join(*outDir, res.ID()+".txt")
			if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
		}
	}

	if *run == "all" {
		prewarm(ctx, ctx.Parallelism)
		if err := exp.RunAll(ctx, emit); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}
	var ids []string
	for _, id := range strings.Split(*run, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}
	if err := exp.RunMany(ctx, ids, emit); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// prewarm runs the measurement matrix concurrently so the (sequential)
// experiment drivers hit a warm cache. Errors are deferred to the
// drivers themselves, which report them with full context.
func prewarm(ctx *exp.Context, workers int) {
	var combos [][3]string
	for _, b := range spec.Names() {
		bench, err := spec.Get(b)
		if err != nil {
			return
		}
		for _, in := range bench.Inputs {
			combos = append(combos, [3]string{b, in, ctx.TargetPred})
		}
	}
	for _, b := range spec.DeepNames() {
		bench, _ := spec.Get(b)
		for _, in := range bench.Inputs {
			combos = append(combos, [3]string{b, in, bpred.NamePerceptron16KB})
		}
	}
	_ = ctx.Runner.Prefetch(combos, workers)
}
