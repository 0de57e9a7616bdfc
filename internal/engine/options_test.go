package engine

import (
	"errors"
	"strings"
	"testing"

	"twodprof/internal/core"
)

// TestOptionsValidate pins the validation surface field by field: the
// zero value and every "auto"/"default" spelling must stay valid (New
// accepted them long before Validate existed), the documented ceilings
// are inclusive, and one past each ceiling is a typed OptionError
// naming the field.
func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name  string
		opts  Options
		field string // "" means valid
	}{
		{name: "all defaults", opts: Options{}},
		{name: "workers auto", opts: Options{Workers: 0}},
		{name: "workers negative is auto", opts: Options{Workers: -1}},
		{name: "workers one", opts: Options{Workers: 1}},
		{name: "workers at cap", opts: Options{Workers: MaxWorkers}},
		{name: "workers above cap", opts: Options{Workers: MaxWorkers + 1}, field: "Workers"},
		{name: "batch default", opts: Options{BatchSize: 0}},
		{name: "batch negative is default", opts: Options{BatchSize: -7}},
		{name: "batch at cap", opts: Options{BatchSize: MaxBatchSize}},
		{name: "batch above cap", opts: Options{BatchSize: MaxBatchSize + 1}, field: "BatchSize"},
		{name: "queue default", opts: Options{QueueDepth: 0}},
		{name: "queue negative is default", opts: Options{QueueDepth: -3}},
		{name: "queue at cap", opts: Options{QueueDepth: MaxQueueDepth}},
		{name: "queue above cap", opts: Options{QueueDepth: MaxQueueDepth + 1}, field: "QueueDepth"},
		{name: "aggregation shared", opts: Options{Aggregation: AggShared}},
		{name: "aggregation private", opts: Options{Aggregation: AggPrivate}},
		{name: "aggregation unknown", opts: Options{Aggregation: AggMode(7)}, field: "Aggregation"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
			if tc.field == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error on %s", tc.field)
			}
			var oe *OptionError
			if !errors.As(err, &oe) {
				t.Fatalf("Validate() error %T is not an *OptionError", err)
			}
			if oe.Field != tc.field {
				t.Fatalf("OptionError.Field = %q, want %q", oe.Field, tc.field)
			}
		})
	}
}

// TestOptionsValidateMultipleErrors checks that every violation is
// reported, not just the first.
func TestOptionsValidateMultipleErrors(t *testing.T) {
	err := Options{
		Workers:     MaxWorkers + 1,
		BatchSize:   MaxBatchSize + 1,
		QueueDepth:  MaxQueueDepth + 1,
		Aggregation: AggMode(200),
	}.Validate()
	if err == nil {
		t.Fatal("Validate() = nil, want four errors")
	}
	for _, field := range []string{"Workers", "BatchSize", "QueueDepth", "Aggregation"} {
		if !strings.Contains(err.Error(), field) {
			t.Errorf("joined error %q does not mention %s", err, field)
		}
	}
}

// TestNewRejectsInvalidOptions checks New refuses what Validate
// refuses, before allocating any shard state.
func TestNewRejectsInvalidOptions(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Metric = core.MetricBias
	_, err := New(cfg, Options{Workers: MaxWorkers + 1})
	var oe *OptionError
	if !errors.As(err, &oe) || oe.Field != "Workers" {
		t.Fatalf("New with absurd Workers = %v, want *OptionError on Workers", err)
	}
}

func TestAggModeParse(t *testing.T) {
	for _, tc := range []struct {
		s    string
		mode AggMode
	}{{"shared", AggShared}, {"private", AggPrivate}} {
		got, err := ParseAggMode(tc.s)
		if err != nil || got != tc.mode {
			t.Errorf("ParseAggMode(%q) = %v, %v", tc.s, got, err)
		}
		if got.String() != tc.s {
			t.Errorf("AggMode %v String() = %q, want %q", got, got.String(), tc.s)
		}
	}
	if _, err := ParseAggMode("smt"); err == nil {
		t.Error("ParseAggMode accepted an unknown mode")
	}
}
