package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// timed returns a row whose best pass already took seconds.
func timed(name string, seconds float64) *row {
	return &row{Name: name, Workload: "w", Events: 100, BestSeconds: seconds}
}

// reporting returns a row whose passes yield the given reports in turn.
func reporting(name string, ref *[]byte, reports ...string) *row {
	i := 0
	return &row{Name: name, Workload: "w", Events: 1, ref: ref, pass: func() (fetch, error) {
		got := []byte(reports[i])
		i++
		return func() ([]byte, error) { return got, nil }, nil
	}}
}

func TestRowBelowFloorFailsRun(t *testing.T) {
	base, slow, fast := timed("base", 1), timed("slow", 2), timed("fast", 1.25)
	res := evaluate([]*row{base, slow, fast}, []*guard{
		{row: slow, base: base, Floor: 0.8},
		{row: fast, base: base, Floor: 0.8},
	}, 1)
	if res.Pass {
		t.Fatal("a row at 0.5x of its baseline passed a 0.8 floor")
	}
	if g := res.Guards[0]; g.OK || g.Ratio != 0.5 || g.Row != "w slow" || g.Baseline != "w base" {
		t.Fatalf("slow guard = %+v, want ratio 0.5 against w base, not ok", g)
	}
	if g := res.Guards[1]; !g.OK || g.Ratio != 0.8 {
		t.Fatalf("fast guard = %+v, want ratio 0.8 at its floor, ok", g)
	}

	res = evaluate([]*row{base, fast}, []*guard{{row: fast, base: base, Floor: 0.8}}, 1)
	if !res.Pass {
		t.Fatal("a row exactly at its floor failed the run")
	}
}

func TestReportMismatchFailsRun(t *testing.T) {
	ref := []byte(`{"branches":1}`)
	same := reporting("same", &ref, string(ref), string(ref), string(ref))
	// Only the last pass strays, and the row must still fail.
	late := reporting("late", &ref, string(ref), string(ref), `{"branches":2}`)
	// Rows sharing an empty slot take the first report as the reference.
	var transport []byte
	first := reporting("first", &transport, "a", "a", "a")
	other := reporting("other", &transport, "a", "b", "a")
	rows := []*row{same, late, first, other}
	if err := measure(rows, 2); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		want := "match"
		if r == late || r == other {
			want = "mismatch"
		}
		if r.Report != want {
			t.Errorf("%s: report %q, want %q", r.Name, r.Report, want)
		}
	}
	if string(transport) != "a" {
		t.Fatalf("shared reference = %q, want the first report", transport)
	}
	if evaluate(rows, nil, 2).Pass {
		t.Fatal("a run with mismatched reports passed")
	}
	if !evaluate([]*row{same, first}, nil, 2).Pass {
		t.Fatal("a run whose reports all match failed")
	}
}

func TestRowWithoutFloorNeverFailsRun(t *testing.T) {
	calls := 0
	sweep := &row{Name: "sweep", Workload: "w", Events: 1, pass: func() (fetch, error) {
		calls++
		return nil, nil
	}}
	if err := measure([]*row{sweep}, 3); err != nil {
		t.Fatal(err)
	}
	if calls != 4 {
		t.Fatalf("%d passes, want one warm-up and 3 timed", calls)
	}
	base, guarded := timed("base", 1), timed("guarded", 1)
	crawl := timed("crawl", 1e6)
	res := evaluate([]*row{base, guarded, crawl, sweep}, []*guard{{row: guarded, base: base, Floor: 0.9}}, 3)
	if !res.Pass || sweep.Report != "" {
		t.Fatalf("unguarded rows failed the run: pass=%t, sweep report %q", res.Pass, sweep.Report)
	}
}

func TestResultRoundTrips(t *testing.T) {
	base, r := timed("base", 0.5), timed("r", 0.25)
	r.Metric, r.Report = "bias", "match"
	res := evaluate([]*row{base, r}, []*guard{{row: r, base: base, Floor: 1.2}}, 5)
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	out, history := filepath.Join(dir, "BENCH.json"), filepath.Join(dir, "history.jsonl")
	for i := 0; i < 2; i++ {
		if err := res.write(out, history); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var back result
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCH.json round trip:\n got %s\nwant %s", got, want)
	}

	fh, err := os.Open(history)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	lines := 0
	for sc := bufio.NewScanner(fh); sc.Scan(); lines++ {
		if !bytes.Equal(sc.Bytes(), want) {
			t.Fatalf("history line %d:\n got %s\nwant %s", lines, sc.Bytes(), want)
		}
	}
	if lines != 2 {
		t.Fatalf("history has %d lines after two runs, want 2", lines)
	}
}
