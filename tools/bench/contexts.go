package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"twodprof/internal/bpred"
	"twodprof/internal/core"
	"twodprof/internal/engine"
	"twodprof/internal/spec"
	"twodprof/internal/synth"
	"twodprof/internal/trace"
)

// The multi-context rows replay the ext-mt experiment's streams: spec
// gzip on its train, ref and first two ext inputs, one input per
// execution context, merged under the bursty schedule with ext-mt's
// quantum and seed.
const (
	mtBench   = "gzip"
	mtQuantum = 64
	mtSeed    = 2026
)

var mtContexts = []int{2, 4}

// contextRows are record-only rows over BTR3: each pass replays the
// interleaved stream through a new engine under one aggregation mode
// and finishes it per context. A shared row's one report must equal
// the plain profiler's over the interleaved stream; a private row's
// per-context reports, in context order, must equal each stream's solo
// plain-profiler report.
func contextRows(workers []int) []*row {
	b, err := spec.Get(mtBench)
	must(err)
	inputs := append([]string{"train", "ref"}, b.ExtInputs()...)
	cfg := config(core.MetricAccuracy)
	maxCtxs := mtContexts[len(mtContexts)-1]
	streams := make([]trace.Source, maxCtxs)
	solo := make([][]byte, maxCtxs)
	for i := range streams {
		w, err := b.Workload(inputs[i])
		must(err)
		prof, err := core.NewProfiler(cfg, bpred.MustNew(predictor))
		must(err)
		w.Run(prof)
		streams[i], solo[i] = w, jsonLine(prof.Finish())
	}

	var rows []*row
	for _, nctx := range mtContexts {
		iv, err := synth.NewInterleaved(streams[:nctx], synth.SchedBursty, mtQuantum, mtSeed)
		must(err)
		var buf bytes.Buffer
		w, err := trace.NewBTR3Writer(&buf, trace.BTR2Options{})
		must(err)
		events := iv.Run(w)
		must(w.Close())
		raw := encoded(buf.Bytes())
		shared, err := raw.plain(cfg)
		must(err)
		refs := map[engine.AggMode][]byte{
			engine.AggShared:  jsonLine(shared),
			engine.AggPrivate: bytes.Join(solo[:nctx], nil),
		}
		for _, mode := range []engine.AggMode{engine.AggShared, engine.AggPrivate} {
			ref := refs[mode]
			for _, n := range workers {
				opts := engine.Options{Workers: n, Predictor: predictor, Aggregation: mode}
				rows = append(rows, &row{
					Name:     fmt.Sprintf("replay-btr3 %s workers=%d", mode, n),
					Workload: fmt.Sprintf("%s/%d-contexts", mtBench, nctx),
					Metric:   cfg.Metric.String(),
					Events:   events,
					ref:      &ref,
					pass:     func() (fetch, error) { return raw.replayContexts(cfg, opts) },
				})
			}
		}
	}
	return rows
}

// replayContexts replays the encoding through a new engine and
// finishes it per context; the fetch joins the reports in context
// order.
func (raw encoded) replayContexts(cfg core.Config, opts engine.Options) (fetch, error) {
	eng, err := engine.New(cfg, opts)
	if err != nil {
		return nil, err
	}
	rd, err := trace.OpenReader(bytes.NewReader(raw))
	if err == nil {
		_, err = rd.Replay(eng)
	}
	if err != nil {
		eng.Abort()
		return nil, err
	}
	reps, err := eng.FinishContexts()
	if err != nil {
		return nil, err
	}
	return func() ([]byte, error) {
		var out []byte
		for _, ctx := range eng.Contexts() {
			out = append(out, jsonLine(reps[ctx])...)
		}
		return out, nil
	}, nil
}

// jsonLine is a report's JSON plus a newline; the BTR3 rows' reports
// and references are runs of these lines, one per context.
func jsonLine(rep *core.Report) []byte {
	js, err := json.Marshal(rep)
	must(err)
	return append(js, '\n')
}
