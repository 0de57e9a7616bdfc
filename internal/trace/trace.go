// Package trace defines the dynamic conditional-branch event stream that
// every other subsystem consumes, plus an on-disk binary format for
// recording and replaying such streams.
//
// The 2D-profiling mechanism only ever observes (pc, taken) pairs in
// program order; this package is the narrow waist between workload
// generation (internal/synth, internal/vm) and consumers (internal/bpred,
// internal/core, internal/oracle).
package trace

// PC identifies a static conditional branch site. For VM workloads it is
// the instruction address; for synthetic workloads it is a stable site
// id.
type PC uint64

// Context identifies the execution context (thread, stream, hardware
// context) a branch event was observed on. Context 0 is the default:
// every single-threaded producer, every BTR1/BTR2 trace and every
// pre-context consumer lives entirely in context 0, so the zero value
// keeps the historical single-stream semantics everywhere.
type Context uint32

// Event is one dynamic execution of a conditional branch.
type Event struct {
	PC    PC
	Ctx   Context
	Taken bool
}

// Sink consumes branch events in program order.
type Sink interface {
	Branch(pc PC, taken bool)
}

// CtxSink is an optional per-event path for sinks that distinguish
// execution contexts: BranchCtx(ctx, pc, taken) is Branch(pc, taken)
// observed on context ctx. Producers fall back to Branch (collapsing
// the stream into context 0) when the sink does not provide it; the
// SoA batch path does not need it because SoABatch carries a context
// lane.
type CtxSink interface {
	Sink
	BranchCtx(ctx Context, pc PC, taken bool)
}

// Source produces a branch event stream into a Sink. Implementations
// must be deterministic for a fixed configuration.
type Source interface {
	// Run feeds the whole stream into sink and returns the number of
	// events produced.
	Run(sink Sink) int64
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(pc PC, taken bool)

// Branch implements Sink.
func (f SinkFunc) Branch(pc PC, taken bool) { f(pc, taken) }

// Tee fans one stream out to several sinks in order.
type Tee []Sink

// Branch implements Sink.
func (t Tee) Branch(pc PC, taken bool) {
	for _, s := range t {
		s.Branch(pc, taken)
	}
}

// Recorder is a Sink that stores the stream in memory.
type Recorder struct {
	Events []Event
}

// NewRecorder returns a Recorder whose event buffer is preallocated for
// capacityHint events. Recording workloads of a known (or previously
// measured) length through a sized recorder avoids the repeated
// re-growth copies an append-from-nil recorder pays on multi-million
// event streams; a non-positive hint is valid and allocates nothing.
func NewRecorder(capacityHint int) *Recorder {
	r := &Recorder{}
	if capacityHint > 0 {
		r.Events = make([]Event, 0, capacityHint)
	}
	return r
}

// Branch implements Sink.
func (r *Recorder) Branch(pc PC, taken bool) {
	r.Events = append(r.Events, Event{PC: pc, Taken: taken})
}

// BranchCtx implements CtxSink.
func (r *Recorder) BranchCtx(ctx Context, pc PC, taken bool) {
	r.Events = append(r.Events, Event{PC: pc, Ctx: ctx, Taken: taken})
}

// BranchBatch appends a run of events in one call.
func (r *Recorder) BranchBatch(events []Event) {
	r.Events = append(r.Events, events...)
}

// Reset discards the recorded events but keeps the backing buffer, so a
// recorder can be reused across runs in an experiment loop without
// re-growing the slice each time.
func (r *Recorder) Reset() { r.Events = r.Events[:0] }

// Replay feeds a recorded stream back into a sink: SoA sinks in
// ReadBatchEvents-sized batches, every other sink one event at a time
// (through BranchCtx when the sink keeps contexts).
func (r *Recorder) Replay(sink Sink) int64 {
	if ss, ok := sink.(SoABatchSink); ok {
		var b SoABatch
		for i := 0; i < len(r.Events); i += ReadBatchEvents {
			b.FromEvents(r.Events[i:min(i+ReadBatchEvents, len(r.Events))])
			ss.BranchBatchSoA(&b)
		}
	} else if cs, ok := sink.(CtxSink); ok {
		for _, e := range r.Events {
			cs.BranchCtx(e.Ctx, e.PC, e.Taken)
		}
	} else {
		for _, e := range r.Events {
			sink.Branch(e.PC, e.Taken)
		}
	}
	return int64(len(r.Events))
}

// Run implements Source by replaying the recorded events.
func (r *Recorder) Run(sink Sink) int64 { return r.Replay(sink) }

// Counter is a Sink that counts dynamic events and distinct static
// sites.
type Counter struct {
	Dynamic int64
	seen    map[PC]int64
}

// Branch implements Sink.
func (c *Counter) Branch(pc PC, taken bool) {
	c.Dynamic++
	if c.seen == nil {
		c.seen = make(map[PC]int64)
	}
	c.seen[pc]++
}

// Static returns the number of distinct static branch sites observed.
func (c *Counter) Static() int { return len(c.seen) }

// ExecCount returns the dynamic execution count of one site.
func (c *Counter) ExecCount(pc PC) int64 { return c.seen[pc] }

// Sites returns every observed site id (unordered).
func (c *Counter) Sites() []PC {
	out := make([]PC, 0, len(c.seen))
	for pc := range c.seen {
		out = append(out, pc)
	}
	return out
}
