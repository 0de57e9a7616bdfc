package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"twodprof/internal/wal"
)

// The log corpus (testdata/corpus) freezes the session logs daemons
// have written, as bytes: each <id>.wal beside the /v1/sessions row
// (<id>.row.json) and the /v1/report bytes (<id>.report.json) a daemon
// started over it serves. Every format change must recover all of them
// identically.
var corpus = []struct {
	id string
	// kept: recovery only reads the log, so it stays byte for byte.
	kept bool
}{
	// A finished HTTP session of the fsm kernel, static column
	// included, as recBegin + a terminal record embedding its snapshot.
	{"done-http", true},
	// A finished wire session in the same two-record form.
	{"done-wire", true},
	// A failed session in that form: a BTR2 body cut inside a chunk.
	{"fail-http", true},
	// An interrupted HTTP session: recBody records of a BTR1 body cut
	// inside a multi-byte varint.
	{"cut-body", false},
	// An interrupted wire session: three recChunk records.
	{"cut-chunk", false},
	// An older daemon's live log: a recBegin with the deleted shards
	// field, recEvents and recEventsCtx records, and a torn tail.
	{"older-events", false},
	// done-http's and fail-http's sessions as this daemon finishes
	// them: recBegin + recSnapshot + terminal.
	{"split-done-http", true},
	{"split-fail-http", true},
}

// TestLogCorpus: a daemon started over the corpus serves every log's
// row and report as frozen, and again after a restart; a log recovery
// only reads stays byte-identical on disk.
func TestLogCorpus(t *testing.T) {
	cfg := durableConfig(t)
	src := filepath.Join("testdata", "corpus")
	read := func(name string) []byte {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, c := range corpus {
		if err := os.WriteFile(filepath.Join(cfg.DataDir, c.id+".wal"), read(c.id+".wal"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	check := func(start string) {
		t.Helper()
		srv := startServer(t, cfg)
		infos := sessionList(t, srv)
		for _, c := range corpus {
			var want SessionInfo
			if err := json.Unmarshal(read(c.id+".row.json"), &want); err != nil {
				t.Fatal(err)
			}
			if got := findSession(t, infos, c.id); got != want {
				t.Errorf("%s start, %s: row %+v, want %+v", start, c.id, got, want)
			}
			code, got := get(t, srv, "/v1/report?session="+c.id)
			if code != 200 || !bytes.Equal(got, read(c.id+".report.json")) {
				t.Errorf("%s start, %s: report (%d) differs from the frozen one", start, c.id, code)
			}
			onDisk, err := os.ReadFile(filepath.Join(cfg.DataDir, c.id+".wal"))
			if err != nil {
				t.Fatal(err)
			}
			if c.kept && !bytes.Equal(onDisk, read(c.id+".wal")) {
				t.Errorf("%s start, %s: recovery changed a log it only had to read", start, c.id)
			}
		}
		if err := srv.Shutdown(t.Context()); err != nil {
			t.Fatal(err)
		}
	}
	check("first")
	check("second")
}

// TestSnapshotRecordIsTheEmbeddedSnapshot: the checkpoint writer,
// handed an older daemon's finished log's snapshot and totals,
// rewrites the corpus's split-form log of the same session byte for
// byte, so its recSnapshot payload is exactly the "snapshot" value the
// older terminal record embeds.
func TestSnapshotRecordIsTheEmbeddedSnapshot(t *testing.T) {
	for _, pair := range [][2]string{{"done-http", "split-done-http"}, {"fail-http", "split-fail-http"}} {
		older := filepath.Join("testdata", "corpus", pair[0]+".wal")
		split := filepath.Join("testdata", "corpus", pair[1]+".wal")
		recs, _, err := wal.ReadAll(older)
		if err != nil {
			t.Fatal(err)
		}
		_, _, term, termType, err := parseLog(recs)
		if err != nil || term == nil || term.Snapshot == nil {
			t.Fatalf("%s: %v, terminal %v; want a finished log with an embedded snapshot", pair[0], err, term)
		}
		var embedded struct {
			Snapshot json.RawMessage `json:"snapshot"`
		}
		if err := json.Unmarshal(recs[1].Payload, &embedded); err != nil {
			t.Fatal(err)
		}
		splitRecs, _, err := wal.ReadAll(split)
		if err != nil || len(splitRecs) != 3 {
			t.Fatalf("%s: %d records, %v", pair[1], len(splitRecs), err)
		}
		if !bytes.Equal(splitRecs[1].Payload, embedded.Snapshot) {
			t.Errorf("%s: the recSnapshot payload differs from the snapshot %s embeds", pair[1], pair[0])
		}
		path := filepath.Join(t.TempDir(), pair[1]+".wal")
		totals := terminalRecord{Reason: term.Reason, Events: term.Events, Bytes: term.Bytes}
		if _, err := checkpointLog(path, splitRecs[0].Payload, term.Snapshot, termType, totals); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(split)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("the checkpoint writer, given %s's snapshot and totals, does not write %s", pair[0], pair[1])
		}
	}
}
