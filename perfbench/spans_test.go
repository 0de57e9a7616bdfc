package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsWhatChildrenCover(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "call", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "call", Start: 30, End: 50},  // overlaps its sibling
		{ID: 4, Parent: 1, Name: "tail", Start: 90, End: 120}, // outlives its parent
	}
	want := map[string]spanStat{
		// The children cover [10,50) and [90,100) of the job.
		"job":  {name: "job", count: 1, total: 100, self: 50},
		"call": {name: "call", count: 2, total: 50, self: 50},
		"tail": {name: "tail", count: 1, total: 30, self: 30},
	}
	got := selfTimes(spans)
	if len(got) != len(want) {
		t.Fatalf("%d span names, want %d", len(got), len(want))
	}
	for _, st := range got {
		if st != want[st.name] {
			t.Errorf("%s: %+v, want %+v", st.name, st, want[st.name])
		}
	}
}

func TestNilTracerTimesWithoutRecording(t *testing.T) {
	var tr *tracer
	sp := tr.start("x", "op", 0)
	time.Sleep(time.Millisecond)
	if d := sp.end(); d < time.Millisecond {
		t.Fatalf("span lasted %v, want at least 1ms", d)
	}
	if n := len(tr.snapshot()); n != 0 {
		t.Fatalf("nil tracer recorded %d spans", n)
	}
	tr = newTracer()
	parent := tr.start("p", "op", 0)
	tr.start("c", "op", parent.id).end()
	parent.end()
	spans := tr.snapshot()
	if len(spans) != 2 || spans[0].Parent != spans[1].ID {
		t.Fatalf("spans %+v, want the child recorded first under its parent", spans)
	}
}
