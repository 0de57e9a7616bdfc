// Package engine is the one 2D-profiling core. Every way branch events
// reach a profiler in this repository — a live VM run feeding a
// trace.Sink through vm.Hooks.OnBranch, a sequential BTR1 stream, a
// parallel BTR2/BTR3 chunk decode, or the daemon's HTTP and wire
// ingest — terminates in the same execution structure:
//
//	event source ─→ front-end ─────────────→ one profiler
//	(parallel       (predictor + slice        (per-branch Figure 9
//	 chunk decode)   clock)                    statistics)
//
// Both stages run on the goroutine that feeds the engine. The
// front-end cannot be parallelised: predictor state depends on the
// full interleaved branch order, and the slice clock is a
// whole-program count of retired branches. The profiler then sees
// every event in program order, so a run's report is exact by
// construction (DESIGN.md §3b). The only parallelism inside one run is
// chunk decode, which ProfileStream spreads over Options.Workers
// goroutines; a daemon's parallelism comes from its concurrent
// sessions.
//
// Multi-context streams (trace.Context tags from BTR3 or live
// CtxSink producers) fold in under one of two aggregation modes
// (DESIGN.md §3j): shared — the default — ignores the tags entirely,
// modelling an SMT-style shared predictor, and is bit-for-bit the
// classic single-context path; private profiles every context c > 0
// with its own child Engine, built on first sight of c, so each
// context's report is exactly what profiling its sub-stream alone
// would produce. An Engine itself is single-context: one predictor,
// one slice clock and one profiler; context 0 is always the engine's
// own.
//
// internal/serve, internal/exp and the profile2d / profiled CLIs are
// thin adapters over this package (DESIGN.md §3e).
//
// Batches move through every layer as trace.SoABatch — PCs plus a
// packed outcome bitmap — and reach the profiler as bitmap sub-ranges
// cut at slice boundaries.
package engine

import (
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"twodprof/internal/bpred"
	"twodprof/internal/core"
	"twodprof/internal/trace"
)

// DefaultQueueDepth is the engine's queue capacity, in batches: zero,
// because the engine profiles inline and queues nothing. The
// repository benchmark prints it beside engine.queue_depth_max.
const DefaultQueueDepth = 0

// batchSize is the number of per-event Branch calls buffered before
// they are applied to the profiler in one locked batch.
const batchSize = 512

// ErrMultiContext is returned by Finish/Report/Snapshot when the
// stream carried more than one execution context under private
// aggregation: the per-context profiles cover overlapping PCs, so a
// single merged report would be meaningless. Use ContextReports or
// FinishContexts instead.
var ErrMultiContext = errors.New("engine: stream carried multiple execution contexts under private aggregation (use ContextReports/FinishContexts)")

// Options configure one engine run beyond the core profiling Config.
type Options struct {
	// Workers is the number of goroutines ProfileStream decodes
	// BTR2/BTR3 chunks on; <= 0 means one per available CPU. Profiling
	// itself always runs on the feeding goroutine, so output never
	// depends on the value, and an engine fed directly ignores it.
	Workers int
	// Predictor names the front-end branch predictor. Required for
	// core.MetricAccuracy; for MetricBias it is validated when non-empty
	// and never instantiated (edge profiling consults no predictor).
	Predictor string
	// Aggregation selects how multi-context streams fold into predictor
	// and profiler state: AggShared (the zero value) ignores context
	// tags — one table set, one slice clock, one report, the historical
	// behaviour; AggPrivate profiles each context with its own engine —
	// private predictor tables, history, slice clock and profiler —
	// reported through ContextReports/FinishContexts. Single-context
	// streams behave identically in both modes.
	Aggregation AggMode
	// Static optionally carries the asmcheck branch classification of
	// the program behind the stream (asmcheck.StaticClasses); reports
	// are annotated with the static prefilter column. nil leaves reports
	// byte-identical to unannotated runs.
	Static map[trace.PC]string
	// OnSlice, when set, is invoked by the front-end once per completed
	// slice (the daemon counts slices in /metrics through it). Under
	// private aggregation it fires for every context's slice boundary.
	OnSlice func()
}

// Engine is one profiling run: the front-end state (predictor, slice
// clock and the per-event buffer) plus one profiler, all driven by the
// goroutine that feeds it. It implements trace.Sink,
// trace.SoABatchSink and trace.CtxSink, so any event source — live VM
// hooks, trace readers, the BTR2/BTR3 parallel decode pipeline, HTTP
// and wire ingest loops, WAL replay — can drive it directly.
//
// The feeding goroutine owns Branch/BranchCtx/BranchBatchSoA/Finish/
// FinishContexts/Abort; they must not be called concurrently. Report,
// ContextReports, Contexts, Snapshot and QueueDepths are safe from
// other goroutines while feeding continues (live reports): the
// profiler sits behind mu, which the feeder holds only while it
// applies a batch or ends a slice.
type Engine struct {
	cfg  core.Config
	opts Options

	pred      bpred.Predictor // nil for MetricBias
	hitWords  []uint64        // scratch for the SoA predictor path
	sliceExec int64           // retired branches since the last slice boundary

	// pcs and hits buffer per-event Branch calls: the PCs plus a packed
	// bitmap of the bit the profiler counts for each — prediction
	// correctness for MetricAccuracy, direction for MetricBias (bit i of
	// word i/64 belongs to pcs[i]). They are applied once batchSize
	// accumulate, at a slice end, before an SoA batch and at the end of
	// the stream.
	pcs  []trace.PC
	hits []uint64

	mu   sync.Mutex
	prof *core.Profiler

	// ctxs holds the engine of every context c > 0 under private
	// aggregation. ctxMu guards it against live-report readers; the
	// feeding goroutine is its only writer, reads it without the lock
	// and takes the lock only to add a context it sees for the first
	// time.
	ctxMu sync.Mutex
	ctxs  map[trace.Context]*Engine

	soaSpan trace.SoABatch // scratch for private-mode SoA span repacking

	drained bool
	// final and finalCtx are the reports Finish and FinishContexts
	// fixed; atomic because Report and ContextReports read them from
	// live-report goroutines while the owner finishes.
	final    atomic.Pointer[core.Report]
	finalCtx atomic.Pointer[map[trace.Context]*core.Report]
}

// New validates the configuration and assembles the engine. It starts
// no goroutine.
func New(cfg core.Config, opts Options) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{cfg: cfg, opts: opts}
	// The predictor name is validated in both metric modes, mirroring
	// twodprof.Profile, so a typo fails loudly instead of silently
	// profiling bias; MetricBias additionally accepts an empty name.
	var predName string
	if cfg.Metric == core.MetricAccuracy || opts.Predictor != "" {
		pred, err := bpred.New(opts.Predictor)
		if err != nil {
			return nil, err
		}
		if cfg.Metric == core.MetricAccuracy {
			e.pred = pred
			predName = pred.Name()
		}
	}
	// The profiler takes its outcomes and slice ends from the front-end.
	prof, err := core.NewShardProfiler(cfg, predName)
	if err != nil {
		return nil, err
	}
	e.prof = prof
	return e, nil
}

// private reports whether each execution context gets its own engine.
func (e *Engine) private() bool { return e.opts.Aggregation == AggPrivate }

// forCtx resolves the engine that profiles one execution context under
// private aggregation: e itself for context 0, otherwise the context's
// child engine, built on first sight with e's resolved options under
// shared aggregation.
func (e *Engine) forCtx(ctx trace.Context) *Engine {
	if ctx == 0 {
		return e
	}
	if child, ok := e.ctxs[ctx]; ok {
		return child
	}
	opts := e.opts
	opts.Aggregation = AggShared
	child, err := New(e.cfg, opts)
	if err != nil {
		// e was built from the same config and options.
		panic(fmt.Sprintf("engine: context engine for validated options: %v", err))
	}
	e.ctxMu.Lock()
	if e.ctxs == nil {
		e.ctxs = make(map[trace.Context]*Engine)
	}
	e.ctxs[ctx] = child
	e.ctxMu.Unlock()
	return child
}

// children returns a copy of the context engine map, taken under the
// lock. Safe from any goroutine.
func (e *Engine) children() map[trace.Context]*Engine {
	e.ctxMu.Lock()
	defer e.ctxMu.Unlock()
	return maps.Clone(e.ctxs)
}

// multiContext reports whether the stream has carried a context other
// than 0 under private aggregation. Safe from any goroutine.
func (e *Engine) multiContext() bool {
	e.ctxMu.Lock()
	defer e.ctxMu.Unlock()
	return len(e.ctxs) > 0
}

// Branch implements trace.Sink: the per-event front-end — predict
// (accuracy metric), append to the buffer, advance the slice clock.
// Per-event events belong to context 0; context-tagged producers use
// BranchCtx or the SoA batch path.
func (e *Engine) Branch(pc trace.PC, taken bool) {
	hit := taken
	if e.pred != nil {
		hit = e.pred.Predict(pc) == taken
		e.pred.Update(pc, taken)
	}
	if e.pcs == nil {
		e.pcs = make([]trace.PC, 0, batchSize)
		e.hits = make([]uint64, 0, batchSize/64)
	}
	i := len(e.pcs)
	e.pcs = append(e.pcs, pc)
	if i&63 == 0 {
		e.hits = append(e.hits, b2u(hit))
	} else {
		e.hits[i>>6] |= b2u(hit) << uint(i&63)
	}
	if len(e.pcs) == batchSize {
		e.flush()
	}
	e.sliceExec++
	if e.sliceExec >= e.cfg.SliceSize {
		e.endSlice()
	}
}

// BranchCtx implements trace.CtxSink: Branch observed on an execution
// context. Under shared aggregation (and always for context 0) it is
// exactly Branch; under private aggregation the event goes to its
// context's engine.
func (e *Engine) BranchCtx(ctx trace.Context, pc trace.PC, taken bool) {
	if ctx == 0 || !e.private() {
		e.Branch(pc, taken)
		return
	}
	e.forCtx(ctx).Branch(pc, taken)
}

// b2u converts a bool to the 0/1 bit the buffer carries.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// BranchBatchSoA implements trace.SoABatchSink: a whole decoded batch
// in struct-of-arrays form, exactly equivalent to calling Branch (or,
// under private aggregation, BranchCtx) for each event in order. The
// predictor runs its SoA kernel into a packed hit bitmap; the batch
// then reaches the profiler a span at a time — the only place a batch
// must split is a slice boundary — as bitmap sub-ranges (bit offsets,
// no re-packing).
//
// Under private aggregation a batch with a context lane is split into
// same-context spans; each span is repacked word-aligned (trace.
// SoABatch.Span) so its context's predictor still runs its SoA kernel.
// Batches without a context lane — every BTR1/BTR2 stream — take the
// classic path untouched.
func (e *Engine) BranchBatchSoA(b *trace.SoABatch) {
	if !e.private() || len(b.Ctxs) == 0 {
		e.branchBatchSoA(b)
		return
	}
	ctxs := b.Ctxs
	for i := 0; i < len(ctxs); {
		ctx := ctxs[i]
		j := i + 1
		for j < len(ctxs) && ctxs[j] == ctx {
			j++
		}
		if i == 0 && j == len(ctxs) {
			// Single-context batch: no repacking needed.
			e.forCtx(ctx).branchBatchSoA(b)
			return
		}
		b.Span(&e.soaSpan, i, j)
		e.forCtx(ctx).branchBatchSoA(&e.soaSpan)
		i = j
	}
}

// branchBatchSoA is BranchBatchSoA for a batch of this engine's own
// context. Buffered per-event calls are applied first, so the profiler
// sees both paths in feed order.
func (e *Engine) branchBatchSoA(b *trace.SoABatch) {
	e.flush()
	var hw []uint64
	if e.pred != nil {
		words := (b.Len() + 63) / 64
		if cap(e.hitWords) < words {
			e.hitWords = make([]uint64, words)
		}
		hw = e.hitWords[:words]
		bpred.ApplyBatchSoA(e.pred, b.PCs, b.Taken, hw)
	}
	pcs := b.PCs
	bitOff := 0
	for len(pcs) > 0 {
		n := int(e.cfg.SliceSize - e.sliceExec)
		if n > len(pcs) {
			n = len(pcs)
		}
		// correct (hw) is nil exactly when the metric needs no
		// outcomes (MetricBias).
		e.mu.Lock()
		e.prof.OutcomeBatchSoA(pcs[:n], b.Taken, hw, bitOff)
		e.mu.Unlock()
		pcs = pcs[n:]
		bitOff += n
		e.sliceExec += int64(n)
		if e.sliceExec >= e.cfg.SliceSize {
			e.endSlice()
		}
	}
}

// flush applies the buffered per-event calls to the profiler.
func (e *Engine) flush() {
	if len(e.pcs) == 0 {
		return
	}
	e.mu.Lock()
	e.prof.OutcomeBatchSoA(e.pcs, e.hits, e.hits, 0)
	e.mu.Unlock()
	e.pcs, e.hits = e.pcs[:0], e.hits[:0]
}

// endSlice closes the current slice after exactly the events that
// belong to it and resets the slice clock.
func (e *Engine) endSlice() {
	e.flush()
	e.mu.Lock()
	e.prof.EndSlice()
	e.mu.Unlock()
	e.sliceExec = 0
	if e.opts.OnSlice != nil {
		e.opts.OnSlice()
	}
}

// drain applies the buffered per-event calls of this engine and of
// every context engine, and marks the stream ended; idempotent.
func (e *Engine) drain() {
	if e.drained {
		return
	}
	e.drained = true
	e.flush()
	for _, child := range e.ctxs {
		child.drain()
	}
}

// finishFlush applies the offline partial-slice flush rule to the
// slice clock of this engine and of every context engine, and drains
// them; idempotent.
func (e *Engine) finishFlush() {
	if e.drained {
		return
	}
	if e.cfg.FlushPartialSlice && e.sliceExec > 0 && e.sliceExec >= e.cfg.SliceSize/2 {
		e.endSlice()
	}
	for _, child := range e.ctxs {
		child.finishFlush()
	}
	e.drain()
}

// Finish completes the stream: applies the offline partial-slice flush
// rule to each context's clock, applies the buffered events, and fixes
// the final (annotated) report. Idempotent — repeated calls return the
// same report. A multi-context private run has no single report; Finish
// still drains, then returns ErrMultiContext (use FinishContexts).
func (e *Engine) Finish() (*core.Report, error) {
	if rep := e.final.Load(); rep != nil {
		return rep, nil
	}
	e.finishFlush()
	rep, err := e.Report()
	if err != nil {
		return nil, err
	}
	e.final.Store(rep)
	return rep, nil
}

// FinishContexts completes the stream like Finish but reports per
// execution context: this engine's own report at context 0 plus each
// context engine's Finish. A single-context run (or any
// shared-aggregation run) yields the map {0: report} with the report
// byte-identical to Finish's. Idempotent.
func (e *Engine) FinishContexts() (map[trace.Context]*core.Report, error) {
	if reps := e.finalCtx.Load(); reps != nil {
		return *reps, nil
	}
	e.finishFlush()
	reps, err := e.contextReports((*Engine).Finish)
	if err != nil {
		return nil, err
	}
	e.finalCtx.Store(&reps)
	return reps, nil
}

// Abort ends the stream of the engine and of every context engine
// without the final slice flush (the stream failed mid-flight); the
// partial statistics remain queryable through Report.
func (e *Engine) Abort() { e.drain() }

// Report assembles the profiler's current state into an annotated
// report: a live view while the stream is still flowing, the final
// report once Finish has fixed it. Safe to call from other goroutines
// while the owner keeps feeding. Returns ErrMultiContext once a
// private-mode stream has carried more than one context.
func (e *Engine) Report() (*core.Report, error) {
	if rep := e.final.Load(); rep != nil {
		return rep, nil
	}
	if e.multiContext() {
		return nil, ErrMultiContext
	}
	return e.report(), nil
}

// report assembles this engine's own annotated report.
func (e *Engine) report() *core.Report {
	rep := e.snapshot().Report()
	rep.AnnotateStatic(e.opts.Static)
	return rep
}

// ContextReports reports per execution context: a live view while the
// stream is flowing, the final per-context reports once FinishContexts
// has fixed them. Context 0 is always present.
func (e *Engine) ContextReports() (map[trace.Context]*core.Report, error) {
	if reps := e.finalCtx.Load(); reps != nil {
		return *reps, nil
	}
	return e.contextReports((*Engine).Report)
}

// contextReports maps context 0 to this engine's own report and every
// other context to report applied to its engine.
func (e *Engine) contextReports(report func(*Engine) (*core.Report, error)) (map[trace.Context]*core.Report, error) {
	children := e.children()
	out := make(map[trace.Context]*core.Report, 1+len(children))
	out[0] = e.report()
	for ctx, child := range children {
		var err error
		if out[ctx], err = report(child); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Contexts returns every execution context the engine holds state for,
// sorted ascending. Context 0 is always present; contexts > 0 appear
// only under private aggregation.
func (e *Engine) Contexts() []trace.Context {
	out := []trace.Context{0}
	for ctx := range e.children() {
		out = append(out, ctx)
	}
	slices.Sort(out)
	return out
}

// Snapshot returns the profiler's current state as a whole-run
// core.Snapshot — the persistence hook: the daemon's WAL checkpoints a
// finished engine's snapshot, and Snapshot().Report() on the recovered
// side reproduces Finish's report byte for byte (Finish assembles its
// report the same way). Safe to call from other goroutines while the
// owner keeps feeding; for a checkpoint call it after Finish or Abort
// so the state is frozen. Returns ErrMultiContext once a private-mode
// stream has carried more than one context.
func (e *Engine) Snapshot() (*core.Snapshot, error) {
	if e.multiContext() {
		return nil, ErrMultiContext
	}
	return e.snapshot(), nil
}

// snapshot copies the profiler's state under the lock.
func (e *Engine) snapshot() *core.Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.prof.Snapshot()
}

// QueueDepths returns nil: the engine profiles inline and has no
// queues. It is kept for the repository benchmark, which samples it.
func (e *Engine) QueueDepths() []int { return nil }

// Workers returns the resolved decode worker count (Options.Workers).
func (e *Engine) Workers() int { return e.opts.Workers }

// compile-time interface checks.
var (
	_ trace.Sink         = (*Engine)(nil)
	_ trace.SoABatchSink = (*Engine)(nil)
	_ trace.CtxSink      = (*Engine)(nil)
)
