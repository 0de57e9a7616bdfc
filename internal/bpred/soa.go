package bpred

import "twodprof/internal/trace"

// Struct-of-arrays predictor batch paths.
//
// The Predict/Update interface costs two dynamic dispatches per branch,
// which dominates replay once trace decode is batched. Predictors that
// implement SoABatchPredictor expose concrete-type loops over whole
// batches: the interface boundary is crossed once per batch, table and
// history state stay in registers, and the batch methods are exact —
// bit-identical predictor state and outcomes to the per-event calls.
// Events arrive as a flat []PC plus a packed taken bitmap (the exact
// shape trace.SoABatch carries), outcomes leave as a packed hit
// bitmap, and the inner loops touch nothing but those arrays and the
// counter table: per event, one 8-byte PC load, one counter byte
// load/store and pure ALU work — no branches on event data.

// SoABatchPredictor is implemented by predictors with a
// struct-of-arrays batch path. taken and hits are packed bitmaps (bit i
// of word i/64 belongs to event i) as built by trace.SoABatch; hits is
// fully overwritten word by word, so callers need not pre-zero it.
type SoABatchPredictor interface {
	Predictor
	// PredictUpdateBatchSoA runs the predict-then-train cycle over the
	// batch in program order, writing per-event correctness into the
	// hits bitmap. len(hits) must be >= (len(pcs)+63)/64; bits past
	// len(pcs) in the last word are unspecified.
	PredictUpdateBatchSoA(pcs []trace.PC, taken, hits []uint64)
}

// ApplyBatchSoA runs the predict-then-train cycle over an SoA batch,
// writing per-event correctness into the hits bitmap. Predictors
// without a native SoA path fall through to per-event interface calls
// (bit-identical, just slower).
func ApplyBatchSoA(p Predictor, pcs []trace.PC, taken, hits []uint64) {
	if sp, ok := p.(SoABatchPredictor); ok {
		sp.PredictUpdateBatchSoA(pcs, taken, hits)
		return
	}
	for w := 0; w*64 < len(pcs); w++ {
		tw := taken[w]
		var hw uint64
		n := len(pcs) - w*64
		if n > 64 {
			n = 64
		}
		base := w * 64
		for k := 0; k < n; k++ {
			tk := tw>>uint(k)&1 != 0
			pred := p.Predict(pcs[base+k])
			p.Update(pcs[base+k], tk)
			if pred == tk {
				hw |= 1 << uint(k)
			}
		}
		hits[w] = hw
	}
}

// --- gshare ---

// PredictUpdateBatchSoA implements SoABatchPredictor. The loop walks
// the batch one 64-event bitmap word at a time, accumulating the word's
// hit bits in a register before a single store; per event the counter
// moves via ctrUpd's mask arithmetic and the taken bit shifts into the
// history register as a 0/1 integer, so the loop is branchless on
// event data.
func (g *Gshare) PredictUpdateBatchSoA(pcs []trace.PC, taken, hits []uint64) {
	mask := uint64(1)<<uint(g.indexBits) - 1
	h := g.hist.bits
	hmask := g.hist.mask
	tbl := g.table
	for w := 0; w*64 < len(pcs); w++ {
		tw := taken[w]
		var hw uint64
		n := len(pcs) - w*64
		if n > 64 {
			n = 64
		}
		base := w * 64
		for k := 0; k < n; k++ {
			t := tw >> uint(k) & 1
			idx := (uint64(pcs[base+k]) ^ h) & mask
			c := tbl[idx]
			// hit bit: prediction (counter MSB) XNOR outcome.
			hw |= (uint64(c>>1) ^ t ^ 1) << uint(k)
			tbl[idx] = ctrUpd(c, Counter2(t))
			h = (h<<1 | t) & hmask
		}
		hits[w] = hw
	}
	g.hist.bits = h
}

// --- bimodal ---

// PredictUpdateBatchSoA implements SoABatchPredictor.
func (b *Bimodal) PredictUpdateBatchSoA(pcs []trace.PC, taken, hits []uint64) {
	mask := uint64(1)<<uint(b.indexBits) - 1
	tbl := b.table
	for w := 0; w*64 < len(pcs); w++ {
		tw := taken[w]
		var hw uint64
		n := len(pcs) - w*64
		if n > 64 {
			n = 64
		}
		base := w * 64
		for k := 0; k < n; k++ {
			t := tw >> uint(k) & 1
			idx := uint64(pcs[base+k]) & mask
			c := tbl[idx]
			hw |= (uint64(c>>1) ^ t ^ 1) << uint(k)
			tbl[idx] = ctrUpd(c, Counter2(t))
		}
		hits[w] = hw
	}
}
