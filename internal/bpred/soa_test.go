package bpred

import (
	"testing"

	"twodprof/internal/rng"
	"twodprof/internal/trace"
)

// soaStream builds a branchy pseudo-random event stream plus its SoA
// form: PCs cluster on a few dozen sites with mildly correlated
// outcomes, which exercises aliasing and history paths.
func soaStream(n int) ([]trace.Event, *trace.SoABatch) {
	r := rng.New(41)
	ev := make([]trace.Event, n)
	pc := trace.PC(0x400000)
	for i := range ev {
		pc = trace.PC(0x400000 + 4*r.Intn(97))
		ev[i] = trace.Event{PC: pc, Taken: r.Bool(0.3 + 0.4*float64(i%2))}
	}
	var b trace.SoABatch
	b.FromEvents(ev)
	return ev, &b
}

// TestApplyBatchSoAMatchesInterface checks that the SoA batch path —
// native for gshare/bimodal, fallback loop for everything else —
// produces exactly the per-event interface results: same hit bits, same
// final predictor state.
func TestApplyBatchSoAMatchesInterface(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			ev, soa := soaStream(5000)

			ref := MustNew(name)
			want := make([]bool, len(ev))
			for i, e := range ev {
				pred := ref.Predict(e.PC)
				ref.Update(e.PC, e.Taken)
				want[i] = pred == e.Taken
			}

			p := MustNew(name)
			hits := make([]uint64, (len(ev)+63)/64)
			// Split the stream at an odd boundary so batch-carried state
			// (history, counters) crosses calls mid-word too.
			const cut = 1997
			ApplyBatchSoA(p, soa.PCs[:cut], soa.Taken, hits)
			var tail trace.SoABatch
			tail.FromEvents(ev[cut:])
			tailHits := make([]uint64, (len(ev)-cut+63)/64)
			ApplyBatchSoA(p, tail.PCs, tail.Taken, tailHits)

			for i := range ev {
				var got bool
				if i < cut {
					got = hits[i>>6]>>uint(i&63)&1 != 0
				} else {
					j := i - cut
					got = tailHits[j>>6]>>uint(j&63)&1 != 0
				}
				if got != want[i] {
					t.Fatalf("event %d: SoA hit %v, interface hit %v", i, got, want[i])
				}
			}
			// Final state must agree too: predictions on fresh PCs match.
			for i := 0; i < 256; i++ {
				pc := trace.PC(0x400000 + 4*i)
				if p.Predict(pc) != ref.Predict(pc) {
					t.Fatalf("final state diverged at pc %#x", pc)
				}
			}
		})
	}
}

// TestPerceptronSoAMidWordSplits drives the perceptron's native SoA
// kernel through batches of 7 events — every batch boundary lands
// mid-word, so the packed-bitmap edge handling and carried history are
// exercised at every offset — and checks bit-identical hits against
// the per-event interface path.
func TestPerceptronSoAMidWordSplits(t *testing.T) {
	ev, _ := soaStream(1000)
	ref := MustNew(NamePerceptron16KB)
	want := make([]bool, len(ev))
	for i, e := range ev {
		pred := ref.Predict(e.PC)
		ref.Update(e.PC, e.Taken)
		want[i] = pred == e.Taken
	}

	p := MustNew(NamePerceptron16KB)
	if _, ok := p.(SoABatchPredictor); !ok {
		t.Fatal("perceptron lost its native SoA batch kernel")
	}
	var b trace.SoABatch
	for start := 0; start < len(ev); start += 7 {
		end := start + 7
		if end > len(ev) {
			end = len(ev)
		}
		b.FromEvents(ev[start:end])
		hits := make([]uint64, (b.Len()+63)/64)
		ApplyBatchSoA(p, b.PCs, b.Taken, hits)
		for j := 0; j < b.Len(); j++ {
			if got := hits[j>>6]>>uint(j&63)&1 != 0; got != want[start+j] {
				t.Fatalf("event %d: SoA hit %v, interface hit %v", start+j, got, want[start+j])
			}
		}
	}
}

// TestCounter2UpdateBranchless pins the branchless counter math to the
// saturating state machine, all 8 (state, outcome) combinations.
func TestCounter2UpdateBranchless(t *testing.T) {
	want := map[[2]int]Counter2{
		{0, 0}: 0, {0, 1}: 1,
		{1, 0}: 0, {1, 1}: 2,
		{2, 0}: 1, {2, 1}: 3,
		{3, 0}: 2, {3, 1}: 3,
	}
	for k, w := range want {
		if got := Counter2(k[0]).Update(k[1] == 1); got != w {
			t.Errorf("Counter2(%d).Update(%v) = %d, want %d", k[0], k[1] == 1, got, w)
		}
	}
}
