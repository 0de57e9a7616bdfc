// Command bench guards the per-event cost of the profiling pass. Every
// path a branch stream can take to a report (the plain profiler, engine
// replay, daemon HTTP and wire ingest, in memory and durable, and the
// decode, predict and profile kernels beneath them) is a row of one
// table, timed once per pass, and so is a durable daemon's start over
// finished sessions. A second table holds the guards: each is
// the throughput ratio of one row to a baseline row measured in the
// same process, held to a floor. Same-process ratios stay meaningful on
// a loaded runner where absolute rates do not; the floors catch gross
// regressions, such as a kernel falling back to its scalar path, not
// micro-variance. Every report a row yields must equal the plain
// profiler's byte for byte (for transport rows, the first HTTP BTR1
// report; for private-aggregation BTR3 rows, each context's solo
// report). A missed floor or a mismatch exits non-zero.
//
// Usage:
//
//	go run ./tools/bench [-o results/BENCH.json] [-history results/BENCH_history.jsonl]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"twodprof/internal/bpred"
	"twodprof/internal/core"
	"twodprof/internal/progs"
	"twodprof/internal/synth"
)

const (
	timedPasses = 5
	predictor   = bpred.NameGshare4KB

	// Floors, as a fraction of the baseline row's throughput.
	floorReplay  = 0.8 // engine replay over BTR2 vs the plain profiler over BTR2
	floorDaemon  = 0.6 // daemon ingest vs the plain profiler over BTR1; pays HTTP too
	floorDecode  = 0.9 // 8-wide DecodeSoA vs the scalar Decode
	floorPredict = 1.2 // SoA predictor kernel vs per-event Predict/Update
	floorE2E     = 1.0 // SoA replay at one worker vs per-event Engine.Branch
	floorWire    = 0.9 // wire session vs HTTP BTR1+gzip
	floorLayout  = 0.7 // profile layer over spread PCs vs the same stream's compact PCs

	// The wide synthetic population has far more static sites than any
	// VM kernel, so per-event statistics work dominates its rows.
	wideSites  = 20000
	wideEvents = 6_000_000
	// startSessions is how many finished wide sessions the daemon-start
	// row's data directory holds.
	startSessions = 4
)

var metrics = []core.Metric{core.MetricAccuracy, core.MetricBias}

func main() {
	out := flag.String("o", "results/BENCH.json", "result file")
	history := flag.String("history", "results/BENCH_history.jsonl", "append-only log that gets one line per run (empty disables)")
	flag.Parse()

	rows, guards, cleanup := tables()
	err := measure(rows, timedPasses)
	cleanup()
	must(err)
	res := evaluate(rows, guards, timedPasses)
	res.print()
	must(res.write(*out, *history))
	fmt.Printf("wrote %s\n", *out)
	if !res.Pass {
		must(fmt.Errorf("throughput floor or report identity violated (see %s)", *out))
	}
}

// tables records the workloads and builds the row and guard tables.
// The guarded rows run the fsm/train kernel, except the layout pair,
// which profiles one synthetic stream in two PC layouts; fsm/train's
// durable rows, which add the WAL to the daemon row and to the wire
// transport row, are record-only. The record-only sweeps run
// bsearch/train, a dense hot loop, and the wide synthetic population,
// at the decode worker counts a multi-core host would use, and the
// record-only BTR3 rows run ext-mt's multi-context streams, and the
// record-only daemon-start row recovers finished wide sessions. The
// transport rows share two daemons, which cleanup stops; it also
// removes the data directories.
func tables() (rows []*row, guards []*guard, cleanup func()) {
	fsm := kernel("fsm", "train", true)
	bsearch := kernel("bsearch", "train", false)
	pop := synth.DefaultPopulationConfig("bench-wide", 0x5eed)
	pop.NumSites, pop.DynTarget = wideSites, wideEvents
	wide := record(fmt.Sprintf("synthetic-wide/%d-sites", wideSites), synth.NewPopulation(pop).Workload("train"), false)

	add := func(r *row) *row {
		rows = append(rows, r)
		return r
	}
	hold := func(r, base *row, floor float64) {
		guards = append(guards, &guard{row: r, base: base, Floor: floor})
	}

	workers := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workers = append(workers, n)
	}
	for _, m := range metrics {
		plain2 := add(fsm.metricRow("plain-btr2", m, fsm.btr2.plain))
		plain1 := add(fsm.metricRow("plain-btr1", m, fsm.btr1.plain))
		perEvent := add(fsm.metricRow("branch-per-event", m, fsm.btr2.branchPerEvent))
		for _, n := range workers {
			r := add(fsm.replayRow("btr2", m, n))
			hold(r, plain2, floorReplay)
			if n == 1 {
				hold(r, perEvent, floorE2E)
			}
		}
		hold(add(fsm.daemonRow(m, false)), plain1, floorDaemon)
		add(fsm.daemonRow(m, true))
	}

	scalar, soa := decodeRows(fsm)
	hold(add(soa), add(scalar), floorDecode)
	perEvent, batch := predictRows(fsm)
	hold(add(batch), add(perEvent), floorPredict)
	compact, spread := layoutPair()
	for _, m := range metrics {
		base := add(compact.profileRow(m))
		hold(add(spread.profileRow(m)), base, floorLayout)
	}

	tr := newTransport(fsm)
	add(tr.httpRow("http-btr1", false))
	gzipRow := add(tr.httpRow("http-btr1-gzip", true))
	hold(add(tr.wireRow("wire", tr.srv, nil)), gzipRow, floorWire)
	hold(add(tr.wireRow("wire-shared-conn", tr.srv, tr.shared)), gzipRow, floorWire)
	add(tr.wireRow("wire durable", tr.durable, nil))

	for _, w := range []*workload{bsearch, wide} {
		for _, m := range metrics {
			add(w.replayRow("btr1", m, 1))
			for _, n := range []int{1, 2, 4, 8} {
				add(w.replayRow("btr2", m, n))
			}
			add(w.daemonRow(m, false))
		}
	}
	start, startDir := wide.daemonStartRow(core.MetricAccuracy, startSessions)
	add(start)
	rows = append(rows, contextRows(workers)...)
	return rows, guards, func() {
		tr.close()
		os.RemoveAll(startDir)
	}
}

// kernel records one VM kernel run on one of its standard inputs.
func kernel(name, input string, keep bool) *workload {
	inst, err := progs.StandardInput(name, input)
	must(err)
	return record(name+"/"+input, inst, keep)
}

// must exits with err, if there is one.
func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
