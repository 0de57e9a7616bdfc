package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"
)

// A row is one path, timed once per pass.
type row struct {
	Name         string  `json:"name"`
	Workload     string  `json:"workload"`
	Metric       string  `json:"metric,omitempty"`
	Events       int64   `json:"events"`
	BestSeconds  float64 `json:"best_seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
	// Report is "match" or "mismatch" for a row whose passes yield a
	// report, empty for one whose passes do not.
	Report string `json:"report,omitempty"`

	// pass runs the path once. It returns how to fetch the report the
	// pass produced, or nil when the path produces none; the fetch runs
	// after the timer stops.
	pass func() (fetch, error)
	// ref holds the bytes every report of the row must equal. A nil
	// slot is filled by the first report that reaches it, which is how
	// the first transport row becomes the other transport rows'
	// reference.
	ref *[]byte
}

// fetch returns one pass's report as the bytes the identity check
// compares.
type fetch func() ([]byte, error)

// id names the row in guards, in errors and on stdout.
func (r *row) id() string {
	if r.Metric == "" {
		return r.Workload + " " + r.Name
	}
	return r.Workload + " " + r.Metric + " " + r.Name
}

// A guard is the throughput ratio of one row to a baseline row measured
// in the same run, checked against a floor.
type guard struct {
	Row      string  `json:"row"`
	Baseline string  `json:"baseline"`
	Floor    float64 `json:"floor"`
	Ratio    float64 `json:"ratio"`
	OK       bool    `json:"ok"`

	row, base *row
}

// result is the schema of BENCH.json and of every line this tool
// appends to BENCH_history.jsonl.
type result struct {
	Date        string   `json:"date"`
	Tool        string   `json:"tool"`
	GoVersion   string   `json:"go_version"`
	GOOS        string   `json:"goos"`
	GOARCH      string   `json:"goarch"`
	NumCPU      int      `json:"num_cpu"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	TimedPasses int      `json:"timed_passes"`
	Pass        bool     `json:"pass"`
	Rows        []*row   `json:"rows"`
	Guards      []*guard `json:"guards"`
}

// measure runs one discarded warm-up pass and then passes timed
// passes. Passes interleave the rows: each pass runs every row once,
// in table order, so drift on the machine reaches every row alike. A
// row keeps its best timed pass. Every report, the warm-up's included,
// is checked against the row's reference.
func measure(rows []*row, passes int) error {
	best := make([]time.Duration, len(rows))
	for p := 0; p <= passes; p++ {
		for i, r := range rows {
			t0 := time.Now()
			f, err := r.pass()
			d := time.Since(t0)
			if err != nil {
				return fmt.Errorf("%s: %w", r.id(), err)
			}
			if p > 0 && (best[i] == 0 || d < best[i]) {
				best[i] = d
			}
			if f == nil {
				continue
			}
			got, err := f()
			if err != nil {
				return fmt.Errorf("%s: report: %w", r.id(), err)
			}
			switch {
			case *r.ref == nil:
				*r.ref = got
			case !bytes.Equal(got, *r.ref):
				r.Report = "mismatch"
			}
			if r.Report == "" {
				r.Report = "match"
			}
		}
	}
	for i, r := range rows {
		r.BestSeconds = best[i].Seconds()
		r.EventsPerSec = float64(r.Events) / r.BestSeconds
	}
	return nil
}

// evaluate resolves every guard's ratio into the result file. The run
// passes when each guard is at or above its floor and no report
// mismatched; a row no guard names never fails the run on speed.
func evaluate(rows []*row, guards []*guard, passes int) *result {
	res := &result{
		Date:        time.Now().UTC().Format(time.RFC3339),
		Tool:        "bench",
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		TimedPasses: passes,
		Pass:        true,
		Rows:        rows,
		Guards:      guards,
	}
	for _, g := range guards {
		g.Row, g.Baseline = g.row.id(), g.base.id()
		g.Ratio = g.base.BestSeconds / g.row.BestSeconds
		g.OK = g.Ratio >= g.Floor
		res.Pass = res.Pass && g.OK
	}
	for _, r := range rows {
		res.Pass = res.Pass && r.Report != "mismatch"
	}
	return res
}

// print writes the tables for a human reader.
func (res *result) print() {
	for _, r := range res.Rows {
		fmt.Printf("%-52s best %.4fs %7.1fM events/s %s\n",
			r.id(), r.BestSeconds, r.EventsPerSec/1e6, r.Report)
	}
	for _, g := range res.Guards {
		fmt.Printf("%s ÷ %s = %.2fx (floor %.2f) ok=%t\n", g.Row, g.Baseline, g.Ratio, g.Floor, g.OK)
	}
}

// write stores the result as indented JSON at path and, when history
// is not empty, appends it as one line to that append-only log.
func (res *result) write(path, history string) error {
	enc, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(enc, '\n'), 0o644); err != nil {
		return err
	}
	if history == "" {
		return nil
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fh, err := os.OpenFile(history, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, err = fh.Write(append(line, '\n'))
	return errors.Join(err, fh.Close())
}
