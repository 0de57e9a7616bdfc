package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"twodprof/internal/trace"
)

// validLogBytes renders a well-formed log as raw bytes for fuzz seeds.
func validLogBytes(recs []Record) []byte {
	dir, err := os.MkdirTemp("", "walseed")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "seed.wal")
	l, err := Create(path, SyncPolicy{Mode: SyncNever})
	if err != nil {
		panic(err)
	}
	for _, rec := range recs {
		if err := l.Append(rec.Type, rec.Payload); err != nil {
			panic(err)
		}
	}
	if err := l.Close(); err != nil {
		panic(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		panic(err)
	}
	return raw
}

// FuzzWALRecord throws arbitrary bytes at the record scanner. The
// invariants: never panic, never allocate absurdly, and whatever
// records come back must be exactly a re-readable valid prefix — after
// Open's repair, a second scan of the same file must be clean and yield
// the same records.
func FuzzWALRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add([]byte("garbage that is not a wal"))
	f.Add(validLogBytes(nil))
	f.Add(validLogBytes([]Record{{Type: 1, Payload: []byte(`{"id":"x"}`)}}))
	f.Add(validLogBytes([]Record{
		{Type: 1, Payload: []byte("meta")},
		{Type: 2, Payload: bytes.Repeat([]byte{7}, 300)},
		{Type: 3, Payload: []byte("done")},
	}))
	// A valid log with a torn tail.
	torn := validLogBytes([]Record{{Type: 2, Payload: []byte("full record")}})
	f.Add(torn[:len(torn)-4])

	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.wal")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, repair, err := ReadAll(path)
		if err != nil {
			t.Fatalf("ReadAll I/O error on in-memory bytes: %v", err)
		}
		if repair != nil && repair.Reason == "bad header" {
			if len(recs) != 0 {
				t.Fatalf("bad header but %d records returned", len(recs))
			}
			return
		}
		// Open must repair the file so that a rescan is clean and agrees.
		l, recs2, _, err := Open(path, SyncPolicy{Mode: SyncNever})
		if err != nil {
			t.Fatalf("Open after clean ReadAll: %v", err)
		}
		l.Close()
		recs3, repair3, err := ReadAll(path)
		if err != nil {
			t.Fatal(err)
		}
		if repair3 != nil {
			t.Fatalf("repaired log still dirty: %+v", repair3)
		}
		if len(recs) != len(recs2) || len(recs2) != len(recs3) {
			t.Fatalf("record counts diverge: %d / %d / %d", len(recs), len(recs2), len(recs3))
		}
		for i := range recs {
			if recs[i].Type != recs3[i].Type || !bytes.Equal(recs[i].Payload, recs3[i].Payload) {
				t.Fatalf("record %d differs between scan and post-repair rescan", i)
			}
		}
	})
}

// FuzzWALEvents throws arbitrary payloads at the event codecs: no
// panics, and anything that decodes must survive an encode/decode
// round-trip unchanged. (Byte-level canonicality is not an invariant —
// varints admit non-minimal encodings and stray bitmap bits above the
// count are ignored — but the decoded event sequence is.)
func FuzzWALEvents(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeEvents(nil, batchOf()))
	f.Add(EncodeEvents(nil, batchOf(trace.Event{PC: 10, Taken: true})))
	f.Add(EncodeEvents(nil, batchOf(
		trace.Event{PC: 1, Taken: true}, trace.Event{PC: 1 << 40, Taken: false}, trace.Event{PC: 3, Taken: true},
	)))

	f.Fuzz(func(t *testing.T, payload []byte) {
		var b, again trace.SoABatch
		if err := DecodeEvents(&b, payload); err == nil {
			if err := DecodeEvents(&again, EncodeEvents(nil, &b)); err != nil {
				t.Fatalf("re-encoded payload does not decode: %v", err)
			}
			requireBatch(t, "plain round-trip", &again, &b)
		}
		if err := DecodeEventsCtx(&b, payload); err == nil {
			if err := DecodeEventsCtx(&again, EncodeEventsCtx(nil, &b)); err != nil {
				t.Fatalf("re-encoded ctx payload does not decode: %v", err)
			}
			requireBatch(t, "ctx round-trip", &again, &b)
		}
	})
}
