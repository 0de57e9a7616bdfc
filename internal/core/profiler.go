package core

import (
	"math/bits"

	"twodprof/internal/bpred"
	"twodprof/internal/trace"
)

// record holds the seven per-branch variables of Figure 9a. Everything
// the three input-dependence tests need is maintained incrementally; the
// profiler never stores per-slice histories (except for explicitly
// watched branches). The fields every event touches come first.
type record struct {
	pc      trace.PC // the branch site (for snapshots and index hits)
	exec    int64    // exec_counter within the current slice
	hit     int64    // predict_counter within the current slice
	totExec int64    // lifetime executions (for reporting)
	totHit  int64    // lifetime hits (for reporting)
	n       int64    // N:    number of contributing slices
	spa     float64  // SPA:  sum of (filtered) slice accuracies
	sspa    float64  // SSPA: sum of squares of slice accuracies
	npam    int64    // NPAM: slices whose accuracy exceeded the running mean
	lpa     float64  // LPA: previous slice's filtered accuracy
	hasLPA  bool     // whether lpa holds a real previous sample
}

// SlicePoint is one sample of a watched branch's per-slice metric,
// used to render the paper's Figure 8 time-series.
type SlicePoint struct {
	Slice    int64   // global slice index (0-based)
	Value    float64 // filtered metric for the branch in this slice (percent)
	Raw      float64 // unfiltered metric
	Overall  float64 // whole-program metric in this slice (percent)
	ExecInSl int64   // executions of the branch within the slice
}

// Profiler is the 2D-profiling engine. It implements trace.Sink; feed it
// a branch stream, then call Finish to run the input-dependence tests.
type Profiler struct {
	cfg  Config
	pred bpred.Predictor // nil when cfg.Metric == MetricBias
	// external marks a hardware-counter profiler: prediction outcomes
	// arrive via BranchOutcome instead of an internal predictor.
	external bool

	// recs holds one record per static branch, indexed by the branch's
	// dense id: the order in which its PC was first seen. ids is the
	// PC → id index (see applyBits), so the per-event cost does not depend
	// on where the branches sit in the binary.
	recs  []record
	ids   []uint32
	shift uint8 // 64 - log2(len(ids)): the hash's bits that pick a slot
	// active lists the ids of the records touched in the current slice,
	// so slice boundaries cost O(branches executed in the slice) instead
	// of O(all static branches ever seen).
	active []uint32

	sliceExec int64 // retired branches in the current slice
	sliceHit  int64 // metric numerator for the whole program in the slice
	slices    int64 // completed slices

	totalExec int64
	totalHit  int64

	watch map[trace.PC][]SlicePoint

	// finRep memoises the Finish report; finExec is the totalExec it was
	// computed at, so new events invalidate it naturally.
	finRep  *Report
	finExec int64

	// hitWords is BranchBatchSoA's packed predictor-outcome scratch,
	// reused across batches.
	hitWords []uint64
}

// NewProfiler creates a 2D-profiler. pred is the profiler's software
// branch predictor and is required for MetricAccuracy; it is ignored
// (and may be nil) for MetricBias. The predictor is reset.
func NewProfiler(cfg Config, pred bpred.Predictor) (*Profiler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Metric == MetricAccuracy && pred == nil {
		return nil, errConfig("MetricAccuracy requires a predictor")
	}
	if pred != nil {
		pred.Reset()
	}
	p := newProfiler(cfg)
	p.pred = pred
	return p, nil
}

// newProfiler returns a profiler of cfg with no records; each
// constructor then sets how the profiler is fed.
func newProfiler(cfg Config) *Profiler {
	p := &Profiler{cfg: cfg, watch: make(map[trace.PC][]SlicePoint)}
	p.resize(minIDs)
	return p
}

// MustNewProfiler is NewProfiler but panics on error, for use with known
// good configurations in experiments and tests.
func MustNewProfiler(cfg Config, pred bpred.Predictor) *Profiler {
	p, err := NewProfiler(cfg, pred)
	if err != nil {
		panic(err)
	}
	return p
}

// Watch records the per-slice series for pc (costs memory proportional
// to the number of slices; used for Figure 8-style plots). Must be
// called before feeding events.
func (p *Profiler) Watch(pcs ...trace.PC) {
	for _, pc := range pcs {
		if _, ok := p.watch[pc]; !ok {
			p.watch[pc] = nil
		}
	}
}

// NewHardwareProfiler creates an accuracy-metric 2D-profiler whose
// prediction outcomes are supplied externally, modelling the paper's
// §3.2.2 hardware-support mode: the target machine's real predictor
// reports per-branch hit/miss through performance counters and the
// profiler only maintains the Figure 9 statistics. Feed it through
// BranchOutcome; Branch panics on a hardware profiler.
func NewHardwareProfiler(cfg Config) (*Profiler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Metric != MetricAccuracy {
		return nil, errConfig("hardware profiler requires MetricAccuracy")
	}
	p := newProfiler(cfg)
	p.external = true
	return p, nil
}

// Branch implements trace.Sink. For every dynamic branch the profiler
// updates the per-slice counters; at slice boundaries it folds the slice
// into the running statistics (Figure 9b).
func (p *Profiler) Branch(pc trace.PC, taken bool) {
	if p.external {
		panic("core: Branch on a hardware profiler; use BranchOutcome")
	}
	var hit bool
	switch p.cfg.Metric {
	case MetricAccuracy:
		pred := p.pred.Predict(pc)
		p.pred.Update(pc, taken)
		hit = pred == taken
	case MetricBias:
		hit = taken
	}
	p.record(pc, hit)
}

// BranchBatchSoA implements trace.SoABatchSink: a whole decoded batch
// in struct-of-arrays form, exactly equivalent to calling Branch for
// each event in order. This is the hot replay path — the predictor runs
// its SoA batch kernel into a packed hit bitmap and the per-branch
// statistics are folded in by applyBits, with no per-event []Event or
// []bool materialised anywhere.
func (p *Profiler) BranchBatchSoA(b *trace.SoABatch) {
	if p.external {
		panic("core: BranchBatchSoA on a hardware profiler; use OutcomeBatchSoA")
	}
	switch p.cfg.Metric {
	case MetricAccuracy:
		words := (b.Len() + 63) / 64
		if cap(p.hitWords) < words {
			p.hitWords = make([]uint64, words)
		}
		hw := p.hitWords[:words]
		bpred.ApplyBatchSoA(p.pred, b.PCs, b.Taken, hw)
		p.applyBitsSliced(b.PCs, hw, 0)
	case MetricBias:
		p.applyBitsSliced(b.PCs, b.Taken, 0)
	}
}

// OutcomeBatchSoA is the batched BranchOutcome: a run of externally
// observed events whose directions and prediction correctness arrive
// as packed bitmaps. Bit bitOff+i of the bitmaps belongs to pcs[i],
// so callers can pass sub-ranges of a larger batch without re-packing.
// correct may be nil for MetricBias profilers.
func (p *Profiler) OutcomeBatchSoA(pcs []trace.PC, taken, correct []uint64, bitOff int) {
	bits := correct
	if p.cfg.Metric == MetricBias {
		bits = taken
	}
	p.applyBitsSliced(pcs, bits, bitOff)
}

// applyBitsSliced folds a batch into the statistics, honouring the
// slice boundaries (which can fall anywhere inside the batch).
func (p *Profiler) applyBitsSliced(pcs []trace.PC, bits []uint64, bitOff int) {
	for len(pcs) > 0 {
		n := len(pcs)
		if room := p.cfg.SliceSize - p.sliceExec; int64(n) > room {
			n = int(room)
		}
		p.applyBits(pcs[:n], bits, bitOff)
		pcs = pcs[n:]
		bitOff += n
		if p.sliceExec >= p.cfg.SliceSize {
			p.endSlice()
		}
	}
}

// applyBits is the statistics inner loop: per event, one index probe
// and four counter bumps, branchless on the hit bit (the whole-program
// counters accumulate locally and fold in once).
func (p *Profiler) applyBits(pcs []trace.PC, bits []uint64, bitOff int) {
	var hitSum int64
	for i, pc := range pcs {
		// Probe from pc's home slot to its id. An empty slot means pc
		// is new; only then does the loop call out.
		var id uint32
		for s, mask := p.home(pc), uint64(len(p.ids)-1); ; s = (s + 1) & mask {
			v := p.ids[s]
			if v == 0 {
				id = p.add(pc)
				break
			}
			if id = v - 1; p.recs[id].pc == pc {
				break
			}
		}
		r := &p.recs[id]
		if r.exec == 0 {
			p.active = append(p.active, id)
		}
		j := bitOff + i
		h := int64(bits[j>>6] >> uint(j&63) & 1)
		r.exec++
		r.totExec++
		r.hit += h
		r.totHit += h
		hitSum += h
	}
	n := int64(len(pcs))
	p.sliceExec += n
	p.totalExec += n
	p.sliceHit += hitSum
	p.totalHit += hitSum
}

// BranchOutcome records one dynamic branch whose prediction correctness
// was observed externally (hardware performance counters). For
// MetricBias profilers `correct` is ignored.
func (p *Profiler) BranchOutcome(pc trace.PC, taken, correct bool) {
	hit := correct
	if p.cfg.Metric == MetricBias {
		hit = taken
	}
	p.record(pc, hit)
}

// The index is open-addressed with linear probing over a power-of-two
// table of at least minIDs slots. A slot holds id+1, so 0 means empty;
// a probe compares against the record's own PC, which keeps a slot at
// 4 bytes but costs a record load per probe. The table is kept at most
// a quarter full, so that random PCs, whose home slots collide, rarely
// probe twice. hashMul is 2^64 divided by the golden ratio: the
// product's top bits, which pick the slot, depend on every bit of the
// PC.
const (
	minIDs  = 64
	hashMul = 0x9e3779b97f4a7c15
)

// home returns pc's home slot in the index.
func (p *Profiler) home(pc trace.PC) uint64 { return uint64(pc) * hashMul >> (p.shift & 63) }

// add gives pc the next id and a new record, growing the index first
// when the record would fill more than a quarter of it.
func (p *Profiler) add(pc trace.PC) uint32 {
	id := uint32(len(p.recs))
	p.recs = append(p.recs, record{pc: pc})
	if 4*len(p.recs) > len(p.ids) {
		p.resize(2 * len(p.ids))
	} else {
		p.place(id)
	}
	return id
}

// resize replaces the index with an empty one of n slots (a power of
// two) and places every record in it.
func (p *Profiler) resize(n int) {
	p.ids = make([]uint32, n)
	p.shift = uint8(64 - bits.TrailingZeros(uint(n)))
	for id := range p.recs {
		p.place(uint32(id))
	}
}

// place stores id in the first empty slot at or after its PC's home.
func (p *Profiler) place(id uint32) {
	mask := uint64(len(p.ids) - 1)
	s := p.home(p.recs[id].pc)
	for p.ids[s] != 0 {
		s = (s + 1) & mask
	}
	p.ids[s] = id + 1
}

// record is the per-event path: one event through the batch path.
func (p *Profiler) record(pc trace.PC, hit bool) {
	pcs, hits := [1]trace.PC{pc}, [1]uint64{uint64(b2i(hit))}
	p.applyBitsSliced(pcs[:], hits[:], 0)
}

// b2i converts a bool to 0/1 without a branch (the compiler lowers it
// to a flag materialisation).
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// metricOf converts raw slice counters into the configured metric, in
// percent.
func (p *Profiler) metricOf(hit, exec int64) float64 {
	return metricValue(p.cfg.Metric, hit, exec)
}

// metricValue is the metric conversion shared by the profiler and
// snapshot report assembly (the two must agree bit for bit).
func metricValue(m Metric, hit, exec int64) float64 {
	v := 100 * float64(hit) / float64(exec)
	if m == MetricBias && v < 50 {
		v = 100 - v // biasedness: distance from a fully unbiased branch
	}
	return v
}

// endSlice executes Figure 9b for every branch with enough executions in
// the slice, then resets the slice counters. Only records touched in the
// current slice (the active set) are visited — a branch that did not
// execute has nothing to sample or reset. With SliceStride > 1 only
// every Nth slice contributes statistics (the counters still reset, so
// a sampled slice measures exactly one slice's worth of behaviour).
func (p *Profiler) endSlice() {
	sampled := p.cfg.SliceStride <= 1 || p.slices%int64(p.cfg.SliceStride) == 0
	overall := 0.0
	if p.sliceExec > 0 {
		overall = p.metricOf(p.sliceHit, p.sliceExec)
	}
	for _, id := range p.active {
		r := &p.recs[id]
		pc := r.pc
		// The paper's rule: a branch contributes a sample iff it executed
		// at least exec_threshold times in the slice. Active records
		// always have exec >= 1, so a zero threshold still requires an
		// actual execution.
		if sampled && r.exec >= p.cfg.ExecThreshold {
			raw := p.metricOf(r.hit, r.exec)
			v := raw
			if p.cfg.UseFIR {
				// The paper's FIR averages with LPA, which is
				// zero-initialised. We skip the filter for a branch's
				// first-ever sample instead of halving it: with
				// hundreds (not thousands) of slices per run the
				// artificial 0 sample would dominate small-N branch
				// statistics.
				if r.hasLPA {
					v = (raw + r.lpa) / 2
				}
			}
			r.n++
			r.spa += v
			r.sspa += v * v
			runningMean := r.spa / float64(r.n)
			if v > runningMean {
				r.npam++
			}
			r.lpa = v
			r.hasLPA = true
			if series, ok := p.watch[pc]; ok {
				p.watch[pc] = append(series, SlicePoint{
					Slice:    p.slices,
					Value:    v,
					Raw:      raw,
					Overall:  overall,
					ExecInSl: r.exec,
				})
			}
		}
		r.exec = 0
		r.hit = 0
	}
	p.active = p.active[:0]
	p.slices++
	p.sliceExec = 0
	p.sliceHit = 0
}

// OverallMetric returns the whole-run program metric in percent (overall
// prediction accuracy for MetricAccuracy), which is the default MEAN-test
// threshold.
func (p *Profiler) OverallMetric() float64 {
	if p.totalExec == 0 {
		return 0
	}
	return p.metricOf(p.totalHit, p.totalExec)
}

// Slices returns the number of completed slices so far.
func (p *Profiler) Slices() int64 { return p.slices }

// Series returns the recorded per-slice series for a watched branch.
func (p *Profiler) Series(pc trace.PC) []SlicePoint { return p.watch[pc] }

// Finish flushes a sufficiently large trailing partial slice, runs the
// three input-dependence tests for every branch (Figure 9c), and returns
// the report. Finish is idempotent: calling it again without feeding new
// events returns the same report, and the trailing partial slice is
// flushed at most once. The profiler may keep receiving events after
// Finish; a later Finish folds the new events into a fresh report.
//
// The report is Snapshot().Report(): a checkpointed snapshot of the
// finished profiler reproduces it bit for bit.
func (p *Profiler) Finish() *Report {
	if p.finRep != nil && p.finExec == p.totalExec {
		return p.finRep
	}
	if p.cfg.FlushPartialSlice && p.sliceExec > 0 && p.sliceExec >= p.cfg.SliceSize/2 {
		p.endSlice()
	}
	rep := p.Snapshot().Report()
	p.finRep = rep
	p.finExec = p.totalExec
	return rep
}

// Reset returns the profiler to its initial state so experiment loops
// can reuse its allocations (the records, the index, the active-set
// slice and the predictor tables). Watched branches stay watched; their
// recorded series are discarded.
func (p *Profiler) Reset() {
	p.recs = p.recs[:0]
	clear(p.ids)
	p.active = p.active[:0]
	p.sliceExec = 0
	p.sliceHit = 0
	p.slices = 0
	p.totalExec = 0
	p.totalHit = 0
	for pc := range p.watch {
		p.watch[pc] = nil
	}
	p.finRep = nil
	p.finExec = 0
	if p.pred != nil {
		p.pred.Reset()
	}
}
