package engine_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"twodprof/internal/core"
	"twodprof/internal/engine"
	"twodprof/internal/refprof"
	"twodprof/internal/rng"
	"twodprof/internal/trace"
)

// fuzzPredictors are the accuracy-metric predictors a case draws from.
var fuzzPredictors = []string{"gshare-4KB", "bimodal", "gag", "pag", "tournament", "perceptron-16KB", "tage", "always-taken"}

// Ingress paths of FuzzEngineDifferential.
const (
	pathPerEvent = iota // Branch/BranchCtx, one event at a time
	pathSoA             // BranchBatchSoA, split at random offsets
	pathBTR1            // ProfileStream over BTR1 (no contexts)
	pathBTR2            // ProfileStream over BTR2 (no contexts)
	pathBTR3            // ProfileStream over BTR3 (context-tagged)
	pathMixed           // random runs of per-event calls and SoA batches
	numPaths
)

// fuzzStream draws n events over a few synth-style sites: each site
// has a taken probability that flips to another at a planted event
// index, so per-slice metrics move and some branches test
// input-dependent. Contexts switch in random bursts over nctx tags.
// wide spreads the site PCs over megabytes, as in a real binary's
// text.
func fuzzStream(seed uint64, n int, wide bool) []trace.Event {
	r := rng.New(seed)
	nSites := 1 + r.Intn(48)
	nctx := 1 + r.Intn(4)
	probs := []float64{0.01, 0.1, 0.5, 0.9, 0.99}
	type site struct {
		pc     trace.PC
		p1, p2 float64
		flip   int
	}
	sites := make([]site, nSites)
	pc := trace.PC(0x400000 + 4*r.Intn(1024))
	for i := range sites {
		sites[i] = site{pc: pc, p1: probs[r.Intn(len(probs))], p2: probs[r.Intn(len(probs))], flip: r.Intn(n + 1)}
		if wide {
			pc += trace.PC(4 + 4*r.Intn(1<<16))
		} else {
			pc += 4
		}
	}
	events := make([]trace.Event, n)
	ctx := 0
	for i := range events {
		if r.Bool(0.1) {
			ctx = r.Intn(nctx)
		}
		// Skew towards low site indices so hot and cold branches mix.
		s := sites[r.Intn(1+r.Intn(nSites))]
		p := s.p1
		if i >= s.flip {
			p = s.p2
		}
		events[i] = trace.Event{PC: s.pc, Ctx: trace.Context(ctx), Taken: r.Bool(p)}
	}
	return events
}

// refReports profiles events with the reference profiler: one
// profiler for the whole stream under shared aggregation, one per
// context (context 0 always present) under private aggregation.
func refReports(t *testing.T, events []trace.Event, cfg core.Config, pred string, private bool) map[trace.Context][]byte {
	t.Helper()
	refs := map[trace.Context]*refprof.Profiler{}
	get := func(ctx trace.Context) *refprof.Profiler {
		if !private {
			ctx = 0
		}
		p := refs[ctx]
		if p == nil {
			var err error
			if p, err = refprof.New(cfg, pred); err != nil {
				t.Fatal(err)
			}
			refs[ctx] = p
		}
		return p
	}
	get(0)
	for _, e := range events {
		get(e.Ctx).Branch(e.PC, e.Taken)
	}
	out := make(map[trace.Context][]byte, len(refs))
	for ctx, p := range refs {
		out[ctx] = mustJSON(t, p.Finish())
	}
	return out
}

func mustJSON(t *testing.T, rep *core.Report) []byte {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// compareReports fails the case unless got holds exactly the
// reference's contexts with byte-identical reports.
func compareReports(t *testing.T, what string, got map[trace.Context]*core.Report, want map[trace.Context][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d context reports, want %d", what, len(got), len(want))
	}
	for ctx, w := range want {
		rep, ok := got[ctx]
		if !ok {
			t.Fatalf("%s: no report for context %d", what, ctx)
		}
		if g := mustJSON(t, rep); !bytes.Equal(g, w) {
			i := 0
			for i < len(g) && i < len(w) && g[i] == w[i] {
				i++
			}
			t.Fatalf("%s: context %d report differs from the reference at byte %d (%d vs %d bytes)\ngot  …%s\nwant …%s",
				what, ctx, i, len(g), len(w), g[max(0, i-80):min(len(g), i+80)], w[max(0, i-80):min(len(w), i+80)])
		}
	}
}

// encodeBTR3With encodes events as BTR3, keeping their context tags.
func encodeBTR3With(t testing.TB, events []trace.Event, opts trace.BTR2Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewBTR3Writer(&buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	w.BranchBatch(events)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzEngineDifferential draws a stream, a profiling configuration and
// an ingress path, and asserts that the engine's report equals the
// reference profiler's byte for byte (per context under private
// aggregation).
//
// flags: bit 0 FIR on, bit 1 bias metric, bits 2-4 predictor, bit 5
// private aggregation, bit 6 wide PC layout, bit 7 compressed chunks.
// path: path%numPaths is the ingress path, path/numPaths%4 picks
// Workers 1, 2, 4 or 8.
func FuzzEngineDifferential(f *testing.F) {
	for i, c := range []struct {
		n, slice    uint16
		execTh      uint8
		flags, path uint8
		chunk       uint16
	}{
		{3000, 0, 0, 0x01, pathPerEvent, 0}, // slice size 1
		{3000, 99, 3, 0x01, pathSoA, 200},
		{5000, 499, 5, 0x21, pathSoA, 777},    // private
		{5000, 499, 5, 0x23, pathPerEvent, 0}, // private, bias
		{6000, 257, 2, 0x05, pathBTR1, 0},
		{6000, 1000, 8, 0x45, pathBTR2, 4093},   // wide PCs
		{6000, 300, 4, 0x89, 4*numPaths + 3, 7}, // BTR2, workers 4, tiny chunks
		{6000, 300, 4, 0x0d, 3*numPaths + 4, 9}, // BTR3, workers 8
		{6000, 700, 6, 0xa1, 1*numPaths + 4, 500},
		{6000, 63, 0, 0xe3, 2*numPaths + 4, 64}, // private, bias, wide, compressed
		{4000, 1199, 24, 0x11, pathBTR3, 0},     // one-event chunks
		{8000, 2, 1, 0x00, pathSoA, 3},          // FIR off
		{7000, 149, 0, 0x1c, 1*numPaths + 3, 1000},
		{2500, 888, 12, 0x3f, pathPerEvent, 0},
		{0, 0, 0, 0x20, pathBTR3, 0}, // a single event
		{5000, 4, 3, 0x61, pathSoA, 65},
		{6000, 333, 3, 0x01, pathMixed, 700},
		{6000, 999, 5, 0x27, pathMixed, 1500}, // private, bias
	} {
		f.Add(uint64(i)*0x9e3779b97f4a7c15+1, c.n, c.slice, c.execTh, c.flags, c.path, c.chunk)
	}
	f.Fuzz(func(t *testing.T, seed uint64, n, slice uint16, execTh, flags, path uint8, chunk uint16) {
		events := fuzzStream(seed, 1+int(n)%8000, flags&0x40 != 0)
		cfg := core.DefaultConfig()
		cfg.SliceSize = 1 + int64(slice)%1200
		cfg.ExecThreshold = int64(execTh % 25)
		cfg.UseFIR = flags&1 != 0
		if flags&2 != 0 {
			cfg.Metric = core.MetricBias
		}
		pred := fuzzPredictors[flags>>2&7]
		private := flags&0x20 != 0
		p := int(path) % numPaths
		workers := []int{1, 2, 4, 8}[int(path)/numPaths%4]
		opts := engine.Options{Workers: workers, Predictor: pred}
		if private {
			opts.Aggregation = engine.AggPrivate
		}
		what := fmt.Sprintf("path %d, workers %d, private %v, %+v", p, workers, private, cfg)

		if p == pathBTR1 || p == pathBTR2 {
			// These formats carry no context tags.
			for i := range events {
				events[i].Ctx = 0
			}
		}
		want := refReports(t, events, cfg, pred, private)

		switch p {
		case pathPerEvent, pathSoA, pathMixed:
			eng, err := engine.New(cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(seed ^ uint64(chunk)<<32)
			var b trace.SoABatch
			for i := 0; i < len(events); {
				j := min(len(events), i+1+r.Intn(1+2*int(chunk)))
				if p == pathPerEvent || p == pathMixed && r.Bool(0.5) {
					for _, e := range events[i:j] {
						eng.BranchCtx(e.Ctx, e.PC, e.Taken)
					}
				} else {
					b.FromEvents(events[i:j])
					eng.BranchBatchSoA(&b)
				}
				i = j
			}
			got, err := eng.FinishContexts()
			if err != nil {
				t.Fatal(err)
			}
			compareReports(t, what, got, want)
			return
		}

		var raw []byte
		chunkOpts := trace.BTR2Options{ChunkEvents: 1 + int(chunk)%3000, Compress: flags&0x80 != 0}
		switch p {
		case pathBTR1:
			raw = encodeBTR1(t, events)
		case pathBTR2:
			raw = encodeBTR2With(t, events, chunkOpts)
		case pathBTR3:
			raw = encodeBTR3With(t, events, chunkOpts)
		}
		rep, err := engine.ProfileStream(bytes.NewReader(raw), cfg, opts)
		if len(want) > 1 {
			if !errors.Is(err, engine.ErrMultiContext) {
				t.Fatalf("%s: ProfileStream over %d contexts = %v, want ErrMultiContext", what, len(want), err)
			}
		} else {
			if err != nil {
				t.Fatal(err)
			}
			compareReports(t, what, map[trace.Context]*core.Report{0: rep}, want)
		}
		if !private {
			return
		}
		// Under private aggregation replay the same bytes the way
		// ProfileStream does, and read the per-context reports.
		eng, err := engine.New(cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		rd, err := trace.OpenReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if pr, ok := rd.(trace.ParallelReplayer); ok && eng.Workers() > 1 {
			_, err = pr.ParallelReplay(eng.Workers(), eng)
		} else {
			_, err = rd.Replay(eng)
		}
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.FinishContexts()
		if err != nil {
			t.Fatal(err)
		}
		compareReports(t, what, got, want)
	})
}
