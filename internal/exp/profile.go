package exp

import (
	"twodprof/internal/core"
	"twodprof/internal/engine"
	"twodprof/internal/trace"
)

// profileLive profiles a live branch-event source (VM kernel instance
// or synthetic workload) through the shared profiling core
// (internal/engine) — the same front-end, slice clock and report
// assembly the replay and daemon paths use. The experiment engine
// parallelises across drivers and benchmarks instead.
// static, when non-nil, attaches the asmcheck prefilter column
// (engine Options.Static), exactly as replay -kernel and serve
// ?kernel= do.
func profileLive(src trace.Source, cfg core.Config, predictor string, static map[trace.PC]string) (*core.Report, error) {
	if cfg.Metric != core.MetricAccuracy {
		predictor = "" // edge profiling consults no predictor
	}
	return engine.Run(src, cfg, engine.Options{
		Workers:   1,
		Predictor: predictor,
		Static:    static,
	})
}
