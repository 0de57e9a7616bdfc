// Command benchreplay measures trace-replay throughput — sequential
// BTR1 against parallel BTR2 at several worker counts — and records the
// numbers as JSON, so the repository keeps a machine-readable artifact
// for the replay pipeline next to the engine and serving benchmarks.
//
// Two workloads are replayed, each under both metrics:
//
//   - a VM kernel trace (few static sites, dense hot loop) — the
//     regime the paper's benchmarks live in;
//   - a wide synthetic population (tens of thousands of static sites)
//     where the per-event statistics stage does real work.
//
// The bias metric parallelises end to end (parallel chunk decode into
// PC-sharded profilers), so it is where the ≥2x multi-core target
// lives; the accuracy metric keeps a sequential batched predictor
// front-end (global history needs the full interleaved stream), so
// only its decode overlaps and the speedup is Amdahl-bounded.
//
// Usage:
//
//	go run ./tools/benchreplay -o results/BENCH_replay.json [-iters 3]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"twodprof/internal/core"
	"twodprof/internal/engine"
	"twodprof/internal/progs"
	"twodprof/internal/synth"
	"twodprof/internal/trace"
)

// Run is the measured outcome of one (format, workers) cell.
type Run struct {
	Format       string  `json:"format"`
	Workers      int     `json:"workers"`
	ChunkEvents  int     `json:"chunk_events,omitempty"`
	Iters        int     `json:"iters"`
	BestSeconds  float64 `json:"best_seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
	SpeedupVsSeq float64 `json:"speedup_vs_sequential_btr1"`
}

// WorkloadResult groups the sweep for one (workload, metric) pair.
type WorkloadResult struct {
	Workload  string `json:"workload"`
	Metric    string `json:"metric"`
	Events    int64  `json:"events"`
	BTR1Bytes int    `json:"btr1_bytes"`
	BTR2Bytes int    `json:"btr2_bytes"`
	Runs      []Run  `json:"runs"`
}

// File is the BENCH_replay.json schema.
type File struct {
	Date       string           `json:"date"`
	GoVersion  string           `json:"go_version"`
	GOOS       string           `json:"goos"`
	GOARCH     string           `json:"goarch"`
	NumCPU     int              `json:"num_cpu"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Note       string           `json:"note"`
	Workloads  []WorkloadResult `json:"workloads"`
}

// syntheticSites/syntheticEvents size the wide-footprint workload the
// same way benchserve does, so the artifacts are comparable.
const (
	syntheticSites  = 20000
	syntheticEvents = 6_000_000
)

func main() {
	out := flag.String("o", "results/BENCH_replay.json", "output file")
	kernel := flag.String("kernel", "bsearch", "VM kernel whose trace is replayed")
	input := flag.String("input", "train", "kernel input set")
	chunk := flag.Int("chunk", 0, "BTR2 events per chunk (0 = default)")
	iters := flag.Int("iters", 3, "replay repetitions per cell (best is kept)")
	flag.Parse()

	chunkEvents := *chunk
	if chunkEvents <= 0 {
		chunkEvents = trace.DefaultChunkEvents
	}

	kernelEvents, kernelB1, kernelB2 := kernelTraces(*kernel, *input, chunkEvents)
	kernelName := *kernel + "/" + *input
	fmt.Printf("trace %s: %d events, btr1 %d bytes, btr2 %d bytes\n",
		kernelName, kernelEvents, len(kernelB1), len(kernelB2))
	wideEvents, wideB1, wideB2 := wideTraces(chunkEvents)
	wideName := fmt.Sprintf("synthetic-wide (%d sites)", syntheticSites)
	fmt.Printf("trace %s: %d events, btr1 %d bytes, btr2 %d bytes\n",
		wideName, wideEvents, len(wideB1), len(wideB2))

	f := File{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Note: "Offline replay throughput: sequential BTR1 baseline vs parallel BTR2 " +
			"(bounded decode pool; for the bias metric also PC-sharded profilers, for " +
			"the accuracy metric a sequential batched gshare front-end, since global " +
			"history needs the full interleaved stream). All parallel cells produce " +
			"reports byte-identical to the sequential baseline. Speedup is bounded by " +
			"num_cpu: the >=2x bias target applies when GOMAXPROCS >= 4; on a " +
			"single-core runner the sweep measures pipeline overhead (~1x), not " +
			"parallel scaling.",
	}
	if runtime.GOMAXPROCS(0) < 4 {
		fmt.Printf("note: GOMAXPROCS=%d < 4; the >=2x bias speedup target does not apply on this host\n",
			runtime.GOMAXPROCS(0))
	}

	type cell struct {
		name   string
		metric core.Metric
		b1, b2 []byte
		events int64
	}
	cells := []cell{
		{kernelName, core.MetricAccuracy, kernelB1, kernelB2, kernelEvents},
		{kernelName, core.MetricBias, kernelB1, kernelB2, kernelEvents},
		{wideName, core.MetricAccuracy, wideB1, wideB2, wideEvents},
		{wideName, core.MetricBias, wideB1, wideB2, wideEvents},
	}
	for _, c := range cells {
		wr := WorkloadResult{
			Workload:  c.name,
			Metric:    c.metric.String(),
			Events:    c.events,
			BTR1Bytes: len(c.b1),
			BTR2Bytes: len(c.b2),
		}
		type variant struct {
			format  string
			raw     []byte
			workers int
		}
		variants := []variant{
			{"btr1", c.b1, 1},
			{"btr2", c.b2, 1},
			{"btr2", c.b2, 2},
			{"btr2", c.b2, 4},
			{"btr2", c.b2, 8},
		}
		for _, v := range variants {
			best := time.Duration(1<<63 - 1)
			for i := 0; i < *iters; i++ {
				d, err := replayOnce(v.raw, c.metric, v.workers)
				if err != nil {
					fail(err)
				}
				if d < best {
					best = d
				}
			}
			r := Run{
				Format:       v.format,
				Workers:      v.workers,
				Iters:        *iters,
				BestSeconds:  best.Seconds(),
				EventsPerSec: float64(c.events) / best.Seconds(),
			}
			if v.format == "btr2" {
				r.ChunkEvents = chunkEvents
			}
			if len(wr.Runs) > 0 {
				r.SpeedupVsSeq = wr.Runs[0].BestSeconds / r.BestSeconds
			} else {
				r.SpeedupVsSeq = 1
			}
			wr.Runs = append(wr.Runs, r)
			fmt.Printf("%s metric=%s %s workers=%d: best %.3fs, %.1fM events/s (%.2fx vs sequential btr1)\n",
				c.name, c.metric, v.format, v.workers, r.BestSeconds, r.EventsPerSec/1e6, r.SpeedupVsSeq)
		}
		f.Workloads = append(f.Workloads, wr)
	}

	enc, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

// replayOnce profiles one in-memory trace and returns the wall-clock
// time.
func replayOnce(raw []byte, metric core.Metric, workers int) (time.Duration, error) {
	cfg := core.DefaultConfig()
	cfg.Metric = metric
	t0 := time.Now()
	if _, err := engine.ProfileStream(bytes.NewReader(raw), cfg, engine.Options{Workers: workers, Predictor: "gshare-4KB"}); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// encodeBoth records one source into parallel BTR1 and BTR2 streams.
func encodeBoth(src trace.Source, chunkEvents int) (int64, []byte, []byte) {
	rec := trace.NewRecorder(0)
	events := src.Run(rec)

	var b1 bytes.Buffer
	w1, err := trace.NewWriter(&b1)
	if err != nil {
		fail(err)
	}
	w1.BranchBatch(rec.Events)
	if err := w1.Close(); err != nil {
		fail(err)
	}

	var b2 bytes.Buffer
	w2, err := trace.NewBTR2Writer(&b2, trace.BTR2Options{ChunkEvents: chunkEvents})
	if err != nil {
		fail(err)
	}
	w2.BranchBatch(rec.Events)
	if err := w2.Close(); err != nil {
		fail(err)
	}
	return events, b1.Bytes(), b2.Bytes()
}

// kernelTraces encodes one VM kernel run in both formats.
func kernelTraces(kernel, input string, chunkEvents int) (int64, []byte, []byte) {
	inst, err := progs.StandardInput(kernel, input)
	if err != nil {
		fail(err)
	}
	return encodeBoth(inst, chunkEvents)
}

// wideTraces encodes a synthetic branch stream with a wide static
// footprint in both formats.
func wideTraces(chunkEvents int) (int64, []byte, []byte) {
	cfg := synth.DefaultPopulationConfig("bench-wide", 0x5eed)
	cfg.NumSites = syntheticSites
	cfg.DynTarget = syntheticEvents
	return encodeBoth(synth.NewPopulation(cfg).Workload("train"), chunkEvents)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchreplay:", err)
	os.Exit(1)
}
