package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"twodprof/internal/bpred"
	"twodprof/internal/synth"
)

// populatedSnapshot profiles a synthetic workload and returns the
// resulting mid-run snapshot (with real float counters in play).
func populatedSnapshot(t *testing.T, metric Metric) *Snapshot {
	t.Helper()
	cfg := DefaultConfig()
	cfg.SliceSize = 2000
	cfg.ExecThreshold = 5
	cfg.Metric = metric
	var pred bpred.Predictor
	if metric == MetricAccuracy {
		pred = bpred.MustNew(bpred.NameGshare4KB)
	}
	p, err := NewProfiler(cfg, pred)
	if err != nil {
		t.Fatal(err)
	}
	pc := synth.DefaultPopulationConfig("small", 0x5eed)
	synth.NewPopulation(pc).Workload("train").Run(p)
	return p.Snapshot()
}

// TestSnapshotJSONRoundtrip is the WAL checkpoint contract: a snapshot
// must survive JSON exactly — the decoded snapshot's Report must be
// byte-identical to the original's, and re-marshalling must reproduce
// the same bytes (deterministic encoding).
func TestSnapshotJSONRoundtrip(t *testing.T) {
	for _, metric := range []Metric{MetricAccuracy, MetricBias} {
		t.Run(metric.String(), func(t *testing.T) {
			snap := populatedSnapshot(t, metric)
			raw, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			raw2, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, raw2) {
				t.Fatal("snapshot encoding is not deterministic across calls")
			}

			var back Snapshot
			if err := json.Unmarshal(raw, &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(snap.Branches, back.Branches) {
				t.Error("branch counters changed across the JSON round-trip")
			}
			if back.Config != snap.Config || back.Predictor != snap.Predictor ||
				back.Slices != snap.Slices || back.TotalExec != snap.TotalExec ||
				back.TotalHit != snap.TotalHit {
				t.Error("snapshot scalars changed across the JSON round-trip")
			}

			wantRep, err := json.Marshal(snap.Report())
			if err != nil {
				t.Fatal(err)
			}
			gotRep, err := json.Marshal(back.Report())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wantRep, gotRep) {
				t.Error("recovered snapshot's report is not byte-identical to the original")
			}

			// Re-marshal of the decoded snapshot reproduces the wire bytes.
			raw3, err := json.Marshal(&back)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, raw3) {
				t.Error("re-marshalled snapshot differs from the original encoding")
			}
		})
	}
}

// TestSnapshotJSONMergeable: snapshots that crossed the wire still
// merge (group reads merge snapshots fetched from other nodes).
func TestSnapshotJSONMergeable(t *testing.T) {
	snap := populatedSnapshot(t, MetricBias)
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	merged, err := MergeSnapshots(&back)
	if err != nil {
		t.Fatal(err)
	}
	if merged.TotalExec != snap.TotalExec {
		t.Errorf("merged TotalExec %d, want %d", merged.TotalExec, snap.TotalExec)
	}
}
