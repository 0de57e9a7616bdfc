package main

import (
	"bytes"
	"errors"
	"testing"

	"twodprof/internal/core"
	"twodprof/internal/engine"
	"twodprof/internal/trace"
)

// smallWide generates a short wide program for tests.
func smallWide(t *testing.T, seed uint64) (program, []byte) {
	t.Helper()
	var buf bytes.Buffer
	p, err := writeWide("test", seed, 200_000, &buf)
	if err != nil {
		t.Fatal(err)
	}
	return p, buf.Bytes()
}

func TestEngineMatchesReference(t *testing.T) {
	p, data := smallWide(t, 3)
	rep, err := engine.ProfileStream(bytes.NewReader(data), profileConfig(), engine.Options{Workers: 2, Predictor: predictorName})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReport("engine", rep, p.refJSON); err != nil {
		t.Fatal(err)
	}
	if err := checkSummary("engine", summaryOf(rep), p.ref); err != nil {
		t.Fatal(err)
	}
}

func TestGateFiresOnOneFlippedByte(t *testing.T) {
	p, _ := smallWide(t, 4)
	for _, want := range [][]byte{p.refJSON, p.refHTTP} {
		for _, at := range []int{0, len(want) / 2, len(want) - 2} {
			got := bytes.Clone(want)
			got[at] ^= 0x01
			err := checkBytes("flipped", got, want)
			if !errors.Is(err, errMismatch) {
				t.Fatalf("byte %d flipped: err = %v, want a reference mismatch", at, err)
			}
			var tl tally
			if tl.op(err) || tl.failed != 1 || tl.mismatched != 1 {
				t.Fatalf("byte %d flipped: %d failed, %d mismatched; want one of each", at, tl.failed, tl.mismatched)
			}
		}
		if err := checkBytes("same", bytes.Clone(want), want); err != nil {
			t.Fatalf("identical bytes: %v", err)
		}
	}
}

func TestSummaryAndLiveChecks(t *testing.T) {
	p, _ := smallWide(t, 5)
	s := summaryOf(p.ref)
	s.InputDependent++
	if err := checkSummary("s", s, p.ref); !errors.Is(err, errMismatch) {
		t.Fatalf("summary off by one input-dependent branch: err = %v", err)
	}

	if err := checkLiveJSON("final", p.refHTTP, p.ref); err != nil {
		t.Fatalf("the finished report is a valid live report: %v", err)
	}
	over := &core.Report{Config: p.ref.Config, Predictor: p.ref.Predictor, TotalExec: p.ref.TotalExec + 1}
	if err := checkLive("over", over, p.ref); !errors.Is(err, errMismatch) {
		t.Fatalf("live report with more events than the input: err = %v", err)
	}
	stray := &core.Report{Config: p.ref.Config, Predictor: p.ref.Predictor,
		Branches: map[trace.PC]core.BranchResult{1: {Exec: 1}}}
	if err := checkLive("stray", stray, p.ref); !errors.Is(err, errMismatch) {
		t.Fatalf("live report with an unknown branch: err = %v", err)
	}
	if err := checkLiveJSON("garbage", []byte("{not json"), p.ref); !errors.Is(err, errMismatch) {
		t.Fatalf("unparsable live report: err = %v", err)
	}
}
