package engine

import (
	"io"

	"twodprof/internal/core"
	"twodprof/internal/trace"
)

// Event-source adapters. The engine consumes any trace.Sink feed; the
// helpers below bind the three offline source shapes — a live
// trace.Source (VM kernels via vm.Hooks.OnBranch, synthetic
// workloads), a sequential trace stream, and a chunked BTR2 stream
// with parallel decode — to a complete engine run. The fourth source,
// the daemon's HTTP ingest loop, drives an Engine directly
// (internal/serve) because its lifecycle spans requests.

// Run profiles a live branch-event source through a fresh engine and
// returns the finished report. This is the live-run equivalent of
// ProfileStream: the same front-end, profiler and report assembly, fed
// by the source's Run loop instead of a decoder.
func Run(src trace.Source, cfg core.Config, opts Options) (*core.Report, error) {
	eng, err := New(cfg, opts)
	if err != nil {
		return nil, err
	}
	src.Run(eng)
	return eng.Finish()
}

// ProfileStream profiles a trace stream (BTR1, BTR2, BTR3, or gzip of
// any) through a fresh engine. Chunked streams (BTR2/BTR3) with more
// than one worker decode their chunks across a parallel pool
// (Options.Workers) ahead of the engine, which profiles on this
// goroutine; BTR1 streams always decode sequentially — their delta
// chain admits no decode parallelism.
func ProfileStream(r io.Reader, cfg core.Config, opts Options) (*core.Report, error) {
	eng, err := New(cfg, opts)
	if err != nil {
		return nil, err
	}
	rd, err := trace.OpenReader(r)
	if err != nil {
		eng.Abort()
		return nil, err
	}
	if pr, ok := rd.(trace.ParallelReplayer); ok && eng.Workers() > 1 {
		if _, err := pr.ParallelReplay(eng.Workers(), eng); err != nil {
			eng.Abort()
			return nil, err
		}
	} else {
		if _, err := rd.Replay(eng); err != nil {
			eng.Abort()
			return nil, err
		}
	}
	return eng.Finish()
}
