// Command benchhotpath guards the hot-path overhaul per layer: it
// measures the three stages of the ingest pipeline in isolation —
// BTR2 chunk decode (8-wide batch varint kernel), predictor batch
// update (struct-of-arrays tables), and end-to-end replay ingest —
// and records the numbers as JSON.
//
// Where benchengine compares whole adapter paths against the
// pre-engine primitive, this tool pins each layer against its own
// scalar/per-event fallback on the same machine, so a regression in
// one kernel is visible even when another layer's win masks it in the
// end-to-end number. Floors are same-process ratios (SoA vs fallback),
// which stay meaningful on loaded CI runners where absolute wall-clock
// does not.
//
// Every cell runs a discarded warm-up pass (buffer growth and record
// creation are session setup, not steady state) and then keeps the
// best of -iters timed repetitions.
//
// Usage:
//
//	go run ./tools/benchhotpath -o results/BENCH_hotpath.json [-iters 5]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"twodprof/internal/bpred"
	"twodprof/internal/core"
	"twodprof/internal/engine"
	"twodprof/internal/progs"
	"twodprof/internal/trace"
)

// Run is one measured cell.
type Run struct {
	Layer         string  `json:"layer"` // decode | predict | e2e
	Path          string  `json:"path"`
	Iters         int     `json:"iters"`
	BestSeconds   float64 `json:"best_seconds"`
	EventsPerSec  float64 `json:"events_per_sec"`
	RatioVsBase   float64 `json:"ratio_vs_baseline,omitempty"`
	FloorApplied  float64 `json:"floor_applied,omitempty"`
	FloorOK       bool    `json:"floor_ok"`
	FloorExempt   bool    `json:"floor_exempt,omitempty"`
	ReportMatches *bool   `json:"report_matches_baseline,omitempty"`
}

// File is the BENCH_hotpath.json schema.
type File struct {
	Date       string `json:"date"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workload   string `json:"workload"`
	Events     int64  `json:"events"`
	Note       string `json:"note"`
	Runs       []Run  `json:"runs"`
}

var (
	iters  = flag.Int("iters", 5, "timed repetitions per cell (best is kept)")
	warmup = flag.Int("warmup", 1, "discarded warm-up passes per cell")
)

func main() {
	out := flag.String("o", "results/BENCH_hotpath.json", "output file")
	kernel := flag.String("kernel", "fsm", "VM kernel whose trace drives the sweep")
	input := flag.String("input", "train", "kernel input set")
	minDecode := flag.Float64("min-decode", 0.9, "floor for the 8-wide SoA decode, as a fraction of the AoS decode over the same chunks")
	minPredict := flag.Float64("min-predict", 1.2, "floor for the SoA predictor batch kernel vs the per-event interface loop")
	minE2E := flag.Float64("min-e2e", 1.0, "floor for SoA end-to-end replay vs the per-event Branch path")
	flag.Parse()

	inst, err := progs.StandardInput(*kernel, *input)
	if err != nil {
		fail(err)
	}
	rec := trace.NewRecorder(0)
	events := inst.Run(rec)

	var b2 bytes.Buffer
	w2, err := trace.NewBTR2Writer(&b2, trace.BTR2Options{})
	if err != nil {
		fail(err)
	}
	w2.BranchBatch(rec.Events)
	if err := w2.Close(); err != nil {
		fail(err)
	}

	f := File{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workload:   *kernel + "/" + *input,
		Events:     events,
		Note: "per-layer hot-path guard: BTR2 8-wide batch varint decode, SoA " +
			"predictor batch kernels, and end-to-end SoA replay, each against its " +
			"own per-event fallback in the same process. Ratios are same-machine " +
			"and survive CI noise; the floors catch a kernel silently falling back " +
			"to the scalar path.",
	}

	ok := true
	record := func(r Run) {
		if !r.FloorOK || (r.ReportMatches != nil && !*r.ReportMatches) {
			ok = false
		}
		f.Runs = append(f.Runs, r)
		status := "ok"
		if r.FloorExempt {
			status = "baseline"
		} else if !r.FloorOK {
			status = fmt.Sprintf("REGRESSION (floor %.2f)", r.FloorApplied)
		}
		if r.ReportMatches != nil && !*r.ReportMatches {
			status += " REPORT-MISMATCH"
		}
		ratio := ""
		if r.RatioVsBase != 0 {
			ratio = fmt.Sprintf(" (%.2fx vs baseline)", r.RatioVsBase)
		}
		fmt.Printf("%-7s %-22s best %.3fs, %6.1fM events/s%s %s\n",
			r.Layer, r.Path, r.BestSeconds, r.EventsPerSec/1e6, ratio, status)
	}

	benchDecode(b2.Bytes(), events, *minDecode, record)
	benchPredict(rec.Events, *minPredict, record)
	benchE2E(b2.Bytes(), events, *minE2E, record)

	enc, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s\n", *out)
	if !ok {
		fail(fmt.Errorf("hot-path floor or report-identity violated (see %s)", *out))
	}
}

// bestOf runs fn warmup+iters times and returns the best timed pass.
func bestOf(fn func()) time.Duration {
	for i := 0; i < *warmup; i++ {
		fn()
	}
	best := time.Duration(1<<63 - 1)
	for i := 0; i < *iters; i++ {
		t0 := time.Now()
		fn()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

// benchDecode measures chunk-body decode alone: the same pre-read BTR2
// chunks through the per-event AoS decoder (baseline) and the 8-wide
// SoA kernel.
func benchDecode(raw []byte, events int64, floor float64, record func(Run)) {
	r, err := trace.NewBTR2Reader(bytes.NewReader(raw))
	if err != nil {
		fail(err)
	}
	var chunks []*trace.Chunk
	for {
		c, err := r.NextChunk()
		if err == io.EOF {
			break
		}
		if err != nil {
			fail(err)
		}
		chunks = append(chunks, c)
	}

	var evs []trace.Event
	var sinkN int
	aos := bestOf(func() {
		for _, c := range chunks {
			evs, err = c.Decode(evs[:0])
			if err != nil {
				fail(err)
			}
			sinkN += len(evs)
		}
	})
	record(Run{
		Layer: "decode", Path: "aos-per-event", Iters: *iters,
		BestSeconds:  aos.Seconds(),
		EventsPerSec: float64(events) / aos.Seconds(),
		FloorOK:      true, FloorExempt: true,
	})

	var soa trace.SoABatch
	soaBest := bestOf(func() {
		for _, c := range chunks {
			if err := c.DecodeSoA(&soa); err != nil {
				fail(err)
			}
			sinkN += soa.Len()
		}
	})
	ratio := aos.Seconds() / soaBest.Seconds()
	record(Run{
		Layer: "decode", Path: "soa-8wide", Iters: *iters,
		BestSeconds:  soaBest.Seconds(),
		EventsPerSec: float64(events) / soaBest.Seconds(),
		RatioVsBase:  ratio, FloorApplied: floor, FloorOK: ratio >= floor,
	})
	_ = sinkN
}

// benchPredict measures the predictor layer alone: the per-event
// interface loop (baseline) and the SoA kernel, both on a fresh gshare
// per pass so table state is comparable.
func benchPredict(events []trace.Event, floor float64, record func(Run)) {
	var soa trace.SoABatch
	soa.FromEvents(events)
	n := int64(len(events))

	var sinkN int
	iface := bestOf(func() {
		p := bpred.MustNew(bpred.NameGshare4KB)
		for _, e := range events {
			if p.Predict(e.PC) == e.Taken {
				sinkN++
			}
			p.Update(e.PC, e.Taken)
		}
	})
	record(Run{
		Layer: "predict", Path: "interface-per-event", Iters: *iters,
		BestSeconds:  iface.Seconds(),
		EventsPerSec: float64(n) / iface.Seconds(),
		FloorOK:      true, FloorExempt: true,
	})

	hitWords := make([]uint64, (len(events)+63)/64)
	soaBest := bestOf(func() {
		p := bpred.MustNew(bpred.NameGshare4KB)
		bpred.ApplyBatchSoA(p, soa.PCs, soa.Taken, hitWords)
	})
	ratio := iface.Seconds() / soaBest.Seconds()
	record(Run{
		Layer: "predict", Path: "batch-soa", Iters: *iters,
		BestSeconds:  soaBest.Seconds(),
		EventsPerSec: float64(n) / soaBest.Seconds(),
		RatioVsBase:  ratio, FloorApplied: floor, FloorOK: ratio >= floor,
	})
}

// benchE2E measures whole-pipeline ingest: the per-event Branch path
// (baseline — each chunk read with ReadChunkInto and decoded to
// []Event by the scalar Chunk.Decode, one engine.Branch call per
// event) against the SoA replay fast path (ProfileStream, which flows
// decode→predict→profile in struct-of-arrays form). Both report
// byte-identically; the SoA cell checks that too.
func benchE2E(raw []byte, events int64, floor float64, record func(Run)) {
	for _, metric := range []core.Metric{core.MetricAccuracy, core.MetricBias} {
		cfg := core.DefaultConfig()
		cfg.Metric = metric
		opts := engine.Options{Workers: 1}
		if metric == core.MetricAccuracy {
			opts.Predictor = bpred.NameGshare4KB
		}

		var wantJSON []byte
		perEvent := bestOf(func() {
			eng, err := engine.New(cfg, opts)
			if err != nil {
				fail(err)
			}
			rd, err := trace.NewBTR2Reader(bytes.NewReader(raw))
			if err != nil {
				fail(err)
			}
			var (
				c   trace.Chunk
				evs []trace.Event
			)
			for {
				err := rd.ReadChunkInto(&c)
				if err == io.EOF {
					break
				}
				if err == nil {
					evs, err = c.Decode(evs[:0])
				}
				if err != nil {
					fail(err)
				}
				for _, e := range evs {
					eng.Branch(e.PC, e.Taken)
				}
			}
			rep, err := eng.Finish()
			if err != nil {
				fail(err)
			}
			if wantJSON == nil {
				if wantJSON, err = json.Marshal(rep); err != nil {
					fail(err)
				}
			}
		})
		record(Run{
			Layer: "e2e", Path: metric.String() + "/branch-per-event", Iters: *iters,
			BestSeconds:  perEvent.Seconds(),
			EventsPerSec: float64(events) / perEvent.Seconds(),
			FloorOK:      true, FloorExempt: true,
		})

		var gotJSON []byte
		soaBest := bestOf(func() {
			rep, err := engine.ProfileStream(bytes.NewReader(raw), cfg, opts)
			if err != nil {
				fail(err)
			}
			if gotJSON, err = json.Marshal(rep); err != nil {
				fail(err)
			}
		})
		ratio := perEvent.Seconds() / soaBest.Seconds()
		matches := bytes.Equal(wantJSON, gotJSON)
		record(Run{
			Layer: "e2e", Path: metric.String() + "/soa-replay", Iters: *iters,
			BestSeconds:  soaBest.Seconds(),
			EventsPerSec: float64(events) / soaBest.Seconds(),
			RatioVsBase:  ratio, FloorApplied: floor, FloorOK: ratio >= floor,
			ReportMatches: &matches,
		})
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchhotpath:", err)
	os.Exit(1)
}
