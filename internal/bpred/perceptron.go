package bpred

import (
	"fmt"

	"twodprof/internal/trace"
)

// Perceptron is Jiménez and Lin's perceptron predictor. The paper's
// target-machine predictor is the 16 KB configuration: 457 entries and a
// 36-bit global history (457 entries × 37 signed 8-bit weights ≈ 16 KB).
type Perceptron struct {
	entries  int
	histBits int
	stride   int    // weights per entry = histBits+1
	weights  []int8 // flat [entries × stride]; weight 0 of a row is the bias
	hist     History
	theta    int32
	name     string
}

// NewPerceptron builds a perceptron predictor with the given table size
// and history length. The training threshold follows the original paper:
// theta = floor(1.93*h + 14). The weight table is one flat int8 array —
// a row is stride consecutive bytes, so the dot product and training
// loops walk contiguous cache lines instead of chasing a per-entry
// slice header.
func NewPerceptron(entries, histBits int) *Perceptron {
	if entries <= 0 || histBits <= 0 || histBits > 63 {
		panic(fmt.Sprintf("bpred: invalid perceptron config %d/%d", entries, histBits))
	}
	p := &Perceptron{
		entries:  entries,
		histBits: histBits,
		stride:   histBits + 1,
		hist:     NewHistory(histBits),
		theta:    int32(1.93*float64(histBits) + 14),
		name:     fmt.Sprintf("perceptron-%dKB", entries*(histBits+1)/1024),
	}
	p.weights = make([]int8, entries*p.stride)
	return p
}

// NewPerceptron16KB returns the paper's 16 KB target predictor
// (457 entries, 36-bit history).
func NewPerceptron16KB() *Perceptron { return NewPerceptron(457, 36) }

func (p *Perceptron) row(pc trace.PC) []int8 {
	i := int(uint64(pc)%uint64(p.entries)) * p.stride
	return p.weights[i : i+p.stride : i+p.stride]
}

// output computes the perceptron dot product for pc under the current
// history. The history contribution is branchless: bit i maps to the
// bipolar input x = 2*bit-1 ∈ {-1, +1} and the term is x*w.
func (p *Perceptron) output(pc trace.PC) int32 {
	w := p.row(pc)
	h := p.hist.bits
	y := int32(w[0])
	for i := 0; i < p.histBits; i++ {
		x := int32(h>>uint(i)&1)<<1 - 1
		y += x * int32(w[i+1])
	}
	return y
}

// Predict implements Predictor.
func (p *Perceptron) Predict(pc trace.PC) bool { return p.output(pc) >= 0 }

// Update implements Predictor. Training follows the original rule: adjust
// weights when the prediction was wrong or |y| <= theta. The threshold
// test is inherently a branch (training is conditional in the hardware
// too); the weight adjustment loop under it is branchless — t and x are
// bipolar ±1 values computed by shift/mask.
func (p *Perceptron) Update(pc trace.PC, taken bool) {
	y := p.output(pc)
	if (y >= 0) != taken || abs32(y) <= p.theta {
		p.train(pc, taken)
	}
	p.hist.Push(taken)
}

// train adjusts pc's weight row toward the outcome under the current
// (pre-push) history. The conditional threshold test stays in the
// callers; the adjustment loop itself is branchless.
func (p *Perceptron) train(pc trace.PC, taken bool) {
	w := p.row(pc)
	h := p.hist.bits
	t := int8(b2u(taken))<<1 - 1
	w[0] = satAdd8(w[0], t)
	for i := 0; i < p.histBits; i++ {
		x := int8(h>>uint(i)&1)<<1 - 1
		w[i+1] = satAdd8(w[i+1], t*x)
	}
}

// PredictUpdateBatchSoA implements SoABatchPredictor: the perceptron's
// native SoA batch kernel. It walks the batch one 64-event bitmap word
// at a time, accumulating hit bits in a register. Unlike the naive
// Predict-then-Update composition it computes the dot product once per
// event and reuses it for both the prediction and the training
// threshold — bit-identical, since Update's own output() call would
// see unchanged state.
func (p *Perceptron) PredictUpdateBatchSoA(pcs []trace.PC, taken, hits []uint64) {
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
			pc := pcs[base+k]
			y := p.output(pc)
			pred := y >= 0
			if pred != tk || abs32(y) <= p.theta {
				p.train(pc, tk)
			}
			p.hist.Push(tk)
			if pred == tk {
				hw |= 1 << uint(k)
			}
		}
		hits[w] = hw
	}
}

// UpdateBatchSoA implements SoABatchPredictor.
func (p *Perceptron) UpdateBatchSoA(pcs []trace.PC, taken []uint64) {
	for i, pc := range pcs {
		tk := taken[i>>6]>>uint(i&63)&1 != 0
		y := p.output(pc)
		if (y >= 0) != tk || abs32(y) <= p.theta {
			p.train(pc, tk)
		}
		p.hist.Push(tk)
	}
}

// Name implements Predictor.
func (p *Perceptron) Name() string { return p.name }

// Reset implements Predictor.
func (p *Perceptron) Reset() {
	for i := range p.weights {
		p.weights[i] = 0
	}
	p.hist.Reset()
}

func abs32(x int32) int32 {
	if x < 0 {
		return -x
	}
	return x
}

// satAdd8 adds two int8 values with saturation at the int8 range, which
// models the hardware's saturating weight counters.
func satAdd8(a, b int8) int8 {
	s := int16(a) + int16(b)
	switch {
	case s > 127:
		return 127
	case s < -128:
		return -128
	default:
		return int8(s)
	}
}
