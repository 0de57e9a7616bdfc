package main

import (
	"bytes"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

func TestSeedDeterminesInputBytes(t *testing.T) {
	gen := func(seed uint64) []byte {
		var buf bytes.Buffer
		if _, err := writeWide("seed", seed, 100_000, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b, c := gen(7), gen(7), gen(8)
	if !bytes.Equal(a, b) {
		t.Fatal("one seed gave two different wide traces")
	}
	if bytes.Equal(a, c) {
		t.Fatal("two seeds gave the same wide trace")
	}

	sessions := func(seed uint64) []*session {
		s, err := genSessions(seed, 2)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	same := func(x, y []*session) bool {
		for i := range x {
			if !slices.Equal(x[i].pcs, y[i].pcs) || !slices.Equal(x[i].taken, y[i].taken) {
				return false
			}
		}
		return true
	}
	s7, s7again, s8 := sessions(7), sessions(7), sessions(8)
	if !same(s7, s7again) {
		t.Fatal("one seed gave two different session pools")
	}
	if same(s7, s8) {
		t.Fatal("two seeds gave the same session pool")
	}

	if !slices.Equal(order(7, 32), order(7, 32)) || slices.Equal(order(7, 32), order(8, 32)) {
		t.Fatal("the session order must follow the seed")
	}
}

func TestWidePCsAreSpread(t *testing.T) {
	w := wideWorkload(9, 500, 1000, wideSpan)
	seen := make(map[uint64]bool)
	for _, pc := range w.SitePCs() {
		if pc < textBase || pc >= textBase+wideSpan || pc%4 != 0 || seen[uint64(pc)] {
			t.Fatalf("site PC %#x is outside the text range, unaligned or repeated", uint64(pc))
		}
		seen[uint64(pc)] = true
	}
	if span := pcSpan(w.SitePCs()); span < wideSpan/2 {
		t.Fatalf("500 sites span only %d bytes of a %d-byte range", span, wideSpan)
	}
}

func TestStratifiedHasOneDrawPerStratum(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 1))
	const n = 16
	for _, logScale := range []bool{false, true} {
		xs := stratified(r, n, 10, 1000, logScale)
		hit := make([]int, n)
		for _, x := range xs {
			u := (x - 10) / 990
			if logScale {
				u = (math.Log(x) - math.Log(10)) / (math.Log(1000) - math.Log(10))
			}
			hit[int(u*n)]++
		}
		for i, h := range hit {
			if h != 1 {
				t.Fatalf("logScale %v: stratum %d holds %d draws, want 1", logScale, i, h)
			}
		}
	}
}
