// Package engine is the one true sharded 2D-profiling core. Every way
// branch events reach a profiler in this repository — a live VM run
// feeding a trace.Sink through vm.Hooks.OnBranch, a sequential BTR1
// stream, a parallel BTR2/BTR3 chunk decode, or the daemon's HTTP
// ingest — terminates in the same execution structure:
//
//	event source ─→ sequential front-end ─→ PC-sharded profiler workers
//	                (predictor + slice        (per-branch Figure 9
//	                 clock)                    statistics, disjoint by PC)
//
// The front-end is the part that cannot be parallelised: predictor
// state depends on the full interleaved branch order, and the slice
// clock is a whole-program count of retired branches. Per-branch
// statistics partition disjointly by PC (DESIGN.md §3b), so everything
// downstream of the front-end fans out across core.Profiler shards and
// is reassembled with core.MergeReports, byte-identical to a single
// sequential pass at any worker count.
//
// Multi-context streams (trace.Context tags from BTR3 or live
// CtxSink producers) fold in under one of two aggregation modes
// (DESIGN.md §3j): shared — the default — ignores the tags entirely,
// modelling an SMT-style shared predictor, and is bit-for-bit the
// classic single-context path; private profiles every context c > 0
// with its own child Engine, built on first sight of c, so each
// context's report is exactly what profiling its sub-stream alone
// would produce. An Engine itself is single-context: one predictor,
// one slice clock, one set of pending buffers and one profiler per
// shard; context 0 is always the engine's own.
//
// internal/serve, internal/exp and the profile2d / profiled CLIs are
// thin adapters over this package; none of them carries its own
// router, shard pool or slice-broadcast logic any more (DESIGN.md
// §3e).
//
// Batches move through every layer as trace.SoABatch — PCs plus a
// packed outcome bitmap — and so do the shard buffers: the front-end
// hands each shard its PCs plus the bit the profiler counts.
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

// Defaults for the shard hand-off. They are exported so adapter
// configurations (internal/serve) can advertise the same numbers.
const (
	// DefaultBatchSize is the number of events buffered per shard before
	// a batch is handed to the worker; slice boundaries flush batches
	// early regardless.
	DefaultBatchSize = 512
	// DefaultQueueDepth is the per-shard bounded channel capacity, in
	// batches. A full queue blocks the front-end, which backpressures
	// the event source (decode pipeline, HTTP body, VM run).
	DefaultQueueDepth = 64
)

// ErrMultiContext is returned by Finish/Report/Snapshot when the
// stream carried more than one execution context under private
// aggregation: the per-context profiles cover overlapping PCs, so a
// single merged report would be meaningless. Use ContextReports or
// FinishContexts instead.
var ErrMultiContext = errors.New("engine: stream carried multiple execution contexts under private aggregation (use ContextReports/FinishContexts)")

// Options configure one engine run beyond the core profiling Config.
type Options struct {
	// Workers is the number of PC-sharded profiler workers. <= 0 means
	// one per available CPU. At 1 the engine runs inline — no
	// goroutines, the classic sequential pass — with the same batching,
	// clocking and report assembly, so output never depends on the
	// value.
	Workers int
	// BatchSize overrides DefaultBatchSize (<= 0 keeps the default).
	BatchSize int
	// QueueDepth overrides DefaultQueueDepth (<= 0 keeps the default).
	QueueDepth int
	// Predictor names the front-end branch predictor. Required for
	// core.MetricAccuracy; for MetricBias it is validated when non-empty
	// and never instantiated (edge profiling consults no predictor).
	Predictor string
	// Aggregation selects how multi-context streams fold into predictor
	// and profiler state: AggShared (the zero value) ignores context
	// tags — one table set, one slice clock, one report, the historical
	// behaviour; AggPrivate profiles each context with its own engine —
	// private predictor tables, history, slice clock and profilers —
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

// buffer is one pending shard batch under construction: a run of PCs
// plus a packed bitmap of the bit the profiler counts for each —
// prediction correctness for MetricAccuracy, direction for MetricBias
// (bit i of word i/64 belongs to pcs[i]). Buffers recycle through a
// pool between the front-end and the workers — without recycling,
// steady-state ingest allocates one buffer per BatchSize events per
// shard and the GC churn eats into the throughput the sharding buys.
type buffer struct {
	pcs  []trace.PC
	hits []uint64
}

// add appends one event's PC and counted bit (0 or 1).
func (b *buffer) add(pc trace.PC, hit uint64) {
	i := len(b.pcs)
	b.pcs = append(b.pcs, pc)
	if i&63 == 0 {
		b.hits = append(b.hits, hit)
	} else {
		b.hits[i>>6] |= hit << uint(i&63)
	}
}

// batch is the unit of work handed to a shard: an optional buffer
// followed by an optional slice boundary. Boundary batches go to every
// shard — the slice clock is global, so even a shard that saw none of
// the slice's events must advance it.
type batch struct {
	buf      *buffer
	endSlice bool
}

// shard owns one PC partition's profiler. It is only ever touched
// under mu: by batch application (the worker goroutine, or the
// front-end itself in inline mode) and by snapshot readers serving
// live reports.
type shard struct {
	eng  *Engine
	ch   chan batch    // nil in inline (Workers == 1) mode
	done chan struct{} // nil in inline mode

	mu   sync.Mutex
	prof *core.Profiler
}

// apply folds one batch into the shard's profiler.
func (s *shard) apply(b batch) {
	s.mu.Lock()
	if b.buf != nil {
		s.prof.OutcomeBatchSoA(b.buf.pcs, b.buf.hits, b.buf.hits, 0)
	}
	if b.endSlice {
		s.prof.EndSlice()
	}
	s.mu.Unlock()
	if b.buf != nil {
		s.eng.pool.Put(b.buf)
	}
}

func (s *shard) run() {
	defer close(s.done)
	for b := range s.ch {
		s.apply(b)
	}
}

// snapshot takes a consistent snapshot of the shard's profiler between
// batches; safe while the worker is still consuming.
func (s *shard) snapshot() *core.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.prof.Snapshot()
}

// Engine is one sharded profiling run: the sequential front-end state
// (predictor, slice clock and pending batches) plus the shard workers.
// It implements trace.Sink, trace.SoABatchSink and trace.CtxSink, so
// any event source — live VM hooks, trace readers, the BTR2/BTR3
// parallel decode pipeline, HTTP and wire ingest loops, WAL replay —
// can drive it directly.
//
// The feeding goroutine owns Branch/BranchCtx/BranchBatchSoA/Finish/
// FinishContexts/Abort; they must not be called concurrently. Report,
// ContextReports, Contexts, Snapshot and QueueDepths are safe from
// other goroutines while feeding continues (live reports).
type Engine struct {
	cfg  core.Config
	opts Options

	pred      bpred.Predictor // nil for MetricBias
	shards    []*shard
	pending   []*buffer // per shard
	hitWords  []uint64  // scratch for the SoA predictor path
	sliceExec int64     // retired branches since the last slice boundary

	// ctxs holds the engine of every context c > 0 under private
	// aggregation. ctxMu guards it against live-report readers; the
	// feeding goroutine is its only writer, reads it without the lock
	// and takes the lock only to add a context it sees for the first
	// time.
	ctxMu sync.Mutex
	ctxs  map[trace.Context]*Engine

	pool    sync.Pool
	soaSpan trace.SoABatch // scratch for private-mode SoA span repacking

	drained bool
	// final and finalCtx are the reports Finish and FinishContexts
	// fixed; atomic because Report and ContextReports read them from
	// live-report goroutines while the owner finishes.
	final    atomic.Pointer[core.Report]
	finalCtx atomic.Pointer[map[trace.Context]*core.Report]
}

// New validates the configuration and assembles the engine. With
// Workers > 1 the shard workers start immediately; the caller must
// reach Finish, FinishContexts or Abort to stop them.
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
	if opts.BatchSize <= 0 {
		opts.BatchSize = DefaultBatchSize
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = DefaultQueueDepth
	}
	e := &Engine{
		cfg:     cfg,
		opts:    opts,
		shards:  make([]*shard, opts.Workers),
		pending: make([]*buffer, opts.Workers),
	}
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
	for i := range e.shards {
		prof, err := core.NewShardProfiler(cfg, predName)
		if err != nil {
			return nil, err
		}
		e.shards[i] = &shard{eng: e, prof: prof}
	}
	if opts.Workers > 1 {
		for _, s := range e.shards {
			s.ch = make(chan batch, opts.QueueDepth)
			s.done = make(chan struct{})
			go s.run()
		}
	}
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

// shardOf maps a branch PC to its worker with a splitmix64 finaliser,
// so typical small dense PC spaces spread evenly at any shard count.
func (e *Engine) shardOf(pc trace.PC) int {
	if len(e.shards) == 1 {
		return 0
	}
	x := uint64(pc)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(len(e.shards)))
}

func (e *Engine) getBuf() *buffer {
	if v := e.pool.Get(); v != nil {
		b := v.(*buffer)
		b.pcs = b.pcs[:0]
		b.hits = b.hits[:0]
		return b
	}
	return &buffer{
		pcs:  make([]trace.PC, 0, e.opts.BatchSize),
		hits: make([]uint64, 0, (e.opts.BatchSize+63)/64),
	}
}

// dispatch hands a batch to shard i: through its queue when workers
// run, inline otherwise.
func (e *Engine) dispatch(i int, b batch) {
	if s := e.shards[i]; s.ch != nil {
		s.ch <- b
	} else {
		s.apply(b)
	}
}

// Branch implements trace.Sink: the per-event front-end — predict
// (accuracy metric), append to the owning shard's buffer, advance the
// slice clock. Blocks when the owning shard's queue is full; that is
// the backpressure path. Per-event events belong to context 0;
// context-tagged producers use BranchCtx or the SoA batch path.
func (e *Engine) Branch(pc trace.PC, taken bool) {
	hit := taken
	if e.pred != nil {
		hit = e.pred.Predict(pc) == taken
		e.pred.Update(pc, taken)
	}
	e.enqueue(pc, b2u(hit))
	e.sliceExec++
	if e.sliceExec >= e.cfg.SliceSize {
		e.broadcastSliceEnd()
		e.sliceExec = 0
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

// b2u converts a bool to the 0/1 bit a shard buffer carries.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// BranchBatchSoA implements trace.SoABatchSink: a whole decoded batch
// in struct-of-arrays form, exactly equivalent to calling Branch (or,
// under private aggregation, BranchCtx) for each event in order. The
// predictor runs its SoA kernel into a packed hit bitmap; routing then
// advances the slice clock a span at a time — the only place a batch
// must split is a slice boundary — handing bitmap sub-ranges (bit
// offsets, no re-packing) to the shard layer.
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
// context.
func (e *Engine) branchBatchSoA(b *trace.SoABatch) {
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
		e.routeSpanSoA(pcs[:n], b.Taken, hw, bitOff)
		pcs = pcs[n:]
		bitOff += n
		e.sliceExec += int64(n)
		if e.sliceExec >= e.cfg.SliceSize {
			e.broadcastSliceEnd()
			e.sliceExec = 0
		}
	}
}

// singleShard returns the lone shard when the engine runs in inline
// single-worker mode (no queues, no worker goroutines), where span
// routing can skip the buffer machinery and apply straight to the
// profiler. Any pending per-event buffer is flushed first so ordering
// against the Branch path is preserved.
func (e *Engine) singleShard() *shard {
	if len(e.shards) != 1 || e.shards[0].ch != nil {
		return nil
	}
	if b := e.pending[0]; b != nil && len(b.pcs) > 0 {
		e.dispatch(0, batch{buf: b})
		e.pending[0] = nil
	}
	return e.shards[0]
}

// routeSpanSoA routes an SoA span known not to cross a slice boundary;
// bits bitOff..bitOff+len(pcs) of the bitmaps belong to the span.
// correct is nil exactly when the metric needs no outcomes
// (MetricBias). With one shard the span is applied inline with its
// packed bitmaps; sharded runs append each event's PC and counted bit
// to the owning shard's buffer.
func (e *Engine) routeSpanSoA(pcs []trace.PC, taken, correct []uint64, bitOff int) {
	if s := e.singleShard(); s != nil {
		s.mu.Lock()
		s.prof.OutcomeBatchSoA(pcs, taken, correct, bitOff)
		s.mu.Unlock()
		return
	}
	bits := correct
	if bits == nil {
		bits = taken
	}
	// The loop body is enqueue, written out: the call per event costs
	// the sharded replay path more than the buffer append itself.
	for i, pc := range pcs {
		j := bitOff + i
		s := e.shardOf(pc)
		b := e.pending[s]
		if b == nil {
			b = e.getBuf()
			e.pending[s] = b
		}
		b.add(pc, bits[j>>6]>>uint(j&63)&1)
		if len(b.pcs) >= e.opts.BatchSize {
			e.dispatch(s, batch{buf: b})
			e.pending[s] = nil
		}
	}
}

// enqueue appends one event to its shard's pending buffer, handing the
// buffer to the shard once it holds BatchSize events.
func (e *Engine) enqueue(pc trace.PC, hit uint64) {
	s := e.shardOf(pc)
	b := e.pending[s]
	if b == nil {
		b = e.getBuf()
		e.pending[s] = b
	}
	b.add(pc, hit)
	if len(b.pcs) >= e.opts.BatchSize {
		e.dispatch(s, batch{buf: b})
		e.pending[s] = nil
	}
}

// broadcastSliceEnd flushes every pending batch with a slice-boundary
// marker, even to shards that saw none of the slice's events (the
// clock is global). Each shard applies the boundary after exactly the
// events that belong to the slice, because its channel preserves
// order; shards need no cross-shard synchronisation beyond this.
func (e *Engine) broadcastSliceEnd() {
	for i := range e.shards {
		e.dispatch(i, batch{buf: e.pending[i], endSlice: true})
		e.pending[i] = nil
	}
	if e.opts.OnSlice != nil {
		e.opts.OnSlice()
	}
}

// drain flushes pending batches, closes the queues and waits for the
// workers, then does the same for every context engine; idempotent.
func (e *Engine) drain() {
	if e.drained {
		return
	}
	e.drained = true
	for i, b := range e.pending {
		if b != nil && len(b.pcs) > 0 {
			e.dispatch(i, batch{buf: b})
		}
		e.pending[i] = nil
	}
	for _, s := range e.shards {
		if s.ch != nil {
			close(s.ch)
		}
	}
	for _, s := range e.shards {
		if s.done != nil {
			<-s.done
		}
	}
	for _, child := range e.ctxs {
		child.drain()
	}
}

// finishFlush applies the offline partial-slice flush rule to the
// slice clock of this engine and of every context engine, and drains
// the workers; idempotent.
func (e *Engine) finishFlush() {
	if e.drained {
		return
	}
	if e.cfg.FlushPartialSlice && e.sliceExec > 0 && e.sliceExec >= e.cfg.SliceSize/2 {
		e.broadcastSliceEnd()
		e.sliceExec = 0
	}
	for _, child := range e.ctxs {
		child.finishFlush()
	}
	e.drain()
}

// Finish completes the stream: applies the offline partial-slice flush
// rule to each context's clock, drains the workers, and merges the
// shard snapshots into the final (annotated) report. Idempotent —
// repeated calls return the same report. A multi-context private run
// has no single merged report; Finish still drains, then returns
// ErrMultiContext (use FinishContexts).
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

// Abort tears the workers of the engine and of every context engine
// down without the final slice flush (the stream failed mid-flight);
// the partial statistics remain queryable through Report.
func (e *Engine) Abort() { e.drain() }

// Report merges the current shard snapshots into an annotated report:
// a live view while the stream is still flowing, the final report once
// Finish has fixed it. Safe to call from other goroutines while the
// owner keeps feeding. Returns ErrMultiContext once a private-mode
// stream has carried more than one context.
func (e *Engine) Report() (*core.Report, error) {
	if rep := e.final.Load(); rep != nil {
		return rep, nil
	}
	if e.multiContext() {
		return nil, ErrMultiContext
	}
	return e.merged()
}

// merged merges this engine's own shard snapshots into an annotated
// report.
func (e *Engine) merged() (*core.Report, error) {
	rep, err := core.MergeReports(e.snapshots()...)
	if err != nil {
		return nil, err
	}
	rep.AnnotateStatic(e.opts.Static)
	return rep, nil
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

// contextReports maps context 0 to this engine's own merged report and
// every other context to report applied to its engine.
func (e *Engine) contextReports(report func(*Engine) (*core.Report, error)) (map[trace.Context]*core.Report, error) {
	rep, err := e.merged()
	if err != nil {
		return nil, err
	}
	children := e.children()
	out := make(map[trace.Context]*core.Report, 1+len(children))
	out[0] = rep
	for ctx, child := range children {
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

// Snapshot merges the current shard snapshots into one whole-run
// core.Snapshot — the persistence hook: the daemon's WAL checkpoints a
// finished engine's merged snapshot, and Snapshot().Report() on the
// recovered side reproduces Finish's report byte for byte (both are
// core.MergeSnapshots followed by (*core.Snapshot).Report). Safe to
// call from other goroutines while the owner keeps feeding; for a
// checkpoint call it after Finish or Abort so the state is frozen.
// Returns ErrMultiContext once a private-mode stream has carried more
// than one context.
func (e *Engine) Snapshot() (*core.Snapshot, error) {
	if e.multiContext() {
		return nil, ErrMultiContext
	}
	return core.MergeSnapshots(e.snapshots()...)
}

// snapshots takes the current snapshot of every shard.
func (e *Engine) snapshots() []*core.Snapshot {
	snaps := make([]*core.Snapshot, len(e.shards))
	for i, s := range e.shards {
		snaps[i] = s.snapshot()
	}
	return snaps
}

// QueueDepths returns the number of queued batches per shard, summed
// over the context engines (all zeros in inline mode).
func (e *Engine) QueueDepths() []int {
	d := make([]int, len(e.shards))
	for i, s := range e.shards {
		if s.ch != nil {
			d[i] = len(s.ch)
		}
	}
	for _, child := range e.children() {
		for i, n := range child.QueueDepths() {
			d[i] += n
		}
	}
	return d
}

// Workers returns the shard count the engine resolved to.
func (e *Engine) Workers() int { return len(e.shards) }

// compile-time interface checks.
var (
	_ trace.Sink         = (*Engine)(nil)
	_ trace.SoABatchSink = (*Engine)(nil)
	_ trace.CtxSink      = (*Engine)(nil)
)
