package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"twodprof/internal/core"
	"twodprof/internal/trace"
	"twodprof/internal/wire"
)

// The correctness gate. Every timed result is compared against the
// reference report of its input; a mismatch fails the operation, is
// counted apart from other failures, and makes the command exit
// non-zero.

// errMismatch marks a result that disagrees with its reference.
var errMismatch = errors.New("reference mismatch")

func mismatch(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errMismatch, fmt.Sprintf(format, args...))
}

// checkBytes compares a rendered report with its reference rendering.
func checkBytes(what string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	return mismatch("%s: %d bytes, want %d; first difference at byte %d", what, len(got), len(want), i)
}

// checkReport renders rep and compares it with the reference rendering.
func checkReport(what string, rep *core.Report, want []byte) error {
	got, err := rep.MarshalJSON()
	if err != nil {
		return mismatch("%s: rendering report: %v", what, err)
	}
	return checkBytes(what, got, want)
}

// summary is the part of a terminal session summary the gate checks.
type summary struct {
	Events         int64
	Slices         int64
	Branches       int
	Overall        float64
	InputDependent int
}

func summaryOf(rep *core.Report) summary {
	return summary{
		Events:         rep.TotalExec,
		Slices:         rep.Slices,
		Branches:       len(rep.Branches),
		Overall:        rep.Overall,
		InputDependent: len(rep.InputDependent()),
	}
}

func wireSummary(s wire.Summary) summary {
	return summary{s.Events, s.Slices, s.Branches, s.Overall, s.InputDependent}
}

// checkSummary compares a terminal summary with the reference's.
func checkSummary(what string, got summary, ref *core.Report) error {
	if want := summaryOf(ref); got != want {
		return mismatch("%s: summary %+v, want %+v", what, got, want)
	}
	return nil
}

// checkLive checks a live, mid-session report against the finished
// reference: it can have seen no more events, no other branches and no
// more executions of any branch than the whole input holds.
func checkLive(what string, rep *core.Report, ref *core.Report) error {
	if rep.Predictor != ref.Predictor || rep.Config != ref.Config {
		return mismatch("%s: live report predictor or config differ from the reference", what)
	}
	if rep.TotalExec < 0 || rep.TotalExec > ref.TotalExec {
		return mismatch("%s: live report saw %d events of %d", what, rep.TotalExec, ref.TotalExec)
	}
	for pc, b := range rep.Branches {
		rb, ok := ref.Branches[pc]
		if !ok || b.Exec > rb.Exec {
			return mismatch("%s: live report branch %#x executed %d times (reference %d, known %v)",
				what, uint64(pc), b.Exec, rb.Exec, ok)
		}
	}
	return nil
}

// liveJSON is the part of a rendered report the live check reads.
type liveJSON struct {
	Config    core.Config `json:"config"`
	Predictor string      `json:"predictor"`
	TotalExec int64       `json:"totalExec"`
	Branches  []struct {
		PC   uint64 `json:"pc"`
		Exec int64  `json:"Exec"`
	} `json:"branches"`
}

// checkLiveJSON parses a rendered live report and checks it as
// checkLive does. Only the checked fields are decoded, which keeps the
// check cheap beside the system under test.
func checkLiveJSON(what string, body []byte, ref *core.Report) error {
	var in liveJSON
	if err := json.Unmarshal(body, &in); err != nil {
		return mismatch("%s: %v", what, err)
	}
	rep := &core.Report{Config: in.Config, Predictor: in.Predictor, TotalExec: in.TotalExec,
		Branches: make(map[trace.PC]core.BranchResult, len(in.Branches))}
	for _, b := range in.Branches {
		rep.Branches[trace.PC(b.PC)] = core.BranchResult{Exec: b.Exec}
	}
	return checkLive(what, rep, ref)
}

// tally counts one phase's operations and what they carried.
type tally struct {
	mu         sync.Mutex
	attempted  int64
	failed     int64
	mismatched int64
	units      int64 // verified jobs or sessions
	events     int64 // events carried by verified units
	firstErr   error
}

// op records one operation's outcome; it reports whether it succeeded.
func (t *tally) op(err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if errors.Is(err, errMismatch) {
		t.mismatched++
	}
	if t.firstErr == nil {
		t.firstErr = err
	}
	return false
}

// unit records one job or session and, when it succeeded, its events.
func (t *tally) unit(events int64, err error) bool {
	if !t.op(err) {
		return false
	}
	t.mu.Lock()
	t.units++
	t.events += events
	t.mu.Unlock()
	return true
}

// add folds another tally's counts into t.
func (t *tally) add(o *tally) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += o.attempted
	t.failed += o.failed
	t.mismatched += o.mismatched
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}
