package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"twodprof/internal/cluster"
	"twodprof/internal/core"
	"twodprof/internal/engine"
	"twodprof/internal/refprof"
	"twodprof/internal/rng"
	"twodprof/internal/serve"
	"twodprof/internal/trace"
	"twodprof/internal/wal"
	"twodprof/internal/wire"
)

// fuzzPredictors are the accuracy-metric predictors a case draws from.
var fuzzPredictors = []string{"gshare-4KB", "bimodal", "gag", "pag", "tournament", "perceptron-16KB", "tage", "always-taken"}

// Ingress paths of FuzzEngineDifferential.
const (
	pathPerEvent = iota // Branch/BranchCtx, one event at a time
	pathSoA             // BranchBatchSoA, split at random offsets
	pathBTR1            // ProfileStream over BTR1 (no contexts)
	pathBTR2            // ProfileStream over BTR2 (no contexts)
	pathBTR3            // ProfileStream over BTR3 (context-tagged)
	pathMixed           // random runs of per-event calls and SoA batches
	pathHTTP            // daemon HTTP ingest of BTR1/BTR2/BTR3 bytes
	pathWire            // daemon wire ingest through wire.Session.Send
	pathWAL             // daemon recovery of a durable session's live log cut after k input records
	pathRouted          // a daemon behind a cluster.Router, through its wire or its HTTP front
	numPaths
)

// Input record types of the daemon's session log schema (DESIGN.md
// §3f): the bytes of an HTTP body as read, and wire chunk bodies as
// received.
const (
	walBody  = 6
	walChunk = 7
)

// fuzzStream draws n events over a few synth-style sites: each site
// has a taken probability that flips to another at a planted event
// index, so per-slice metrics move and some branches test
// input-dependent. Contexts switch in random bursts over nctx tags.
// wide spreads the site PCs over megabytes, as in a real binary's
// text.
func fuzzStream(seed uint64, n int, wide bool) []trace.Event {
	r := rng.New(seed)
	nSites := 1 + r.Intn(48)
	nctx := 1 + r.Intn(4)
	probs := []float64{0.01, 0.1, 0.5, 0.9, 0.99}
	type site struct {
		pc     trace.PC
		p1, p2 float64
		flip   int
	}
	sites := make([]site, nSites)
	pc := trace.PC(0x400000 + 4*r.Intn(1024))
	for i := range sites {
		sites[i] = site{pc: pc, p1: probs[r.Intn(len(probs))], p2: probs[r.Intn(len(probs))], flip: r.Intn(n + 1)}
		if wide {
			pc += trace.PC(4 + 4*r.Intn(1<<16))
		} else {
			pc += 4
		}
	}
	events := make([]trace.Event, n)
	ctx := 0
	for i := range events {
		if r.Bool(0.1) {
			ctx = r.Intn(nctx)
		}
		// Skew towards low site indices so hot and cold branches mix.
		s := sites[r.Intn(1+r.Intn(nSites))]
		p := s.p1
		if i >= s.flip {
			p = s.p2
		}
		events[i] = trace.Event{PC: s.pc, Ctx: trace.Context(ctx), Taken: r.Bool(p)}
	}
	return events
}

// refReports profiles events with the reference profiler: one
// profiler for the whole stream under shared aggregation, one per
// context (context 0 always present) under private aggregation.
func refReports(t *testing.T, events []trace.Event, cfg core.Config, pred string, private bool) map[trace.Context][]byte {
	t.Helper()
	refs := map[trace.Context]*refprof.Profiler{}
	get := func(ctx trace.Context) *refprof.Profiler {
		if !private {
			ctx = 0
		}
		p := refs[ctx]
		if p == nil {
			var err error
			if p, err = refprof.New(cfg, pred); err != nil {
				t.Fatal(err)
			}
			refs[ctx] = p
		}
		return p
	}
	get(0)
	for _, e := range events {
		get(e.Ctx).Branch(e.PC, e.Taken)
	}
	out := make(map[trace.Context][]byte, len(refs))
	for ctx, p := range refs {
		out[ctx] = mustJSON(t, p.Finish())
	}
	return out
}

func mustJSON(t *testing.T, rep *core.Report) []byte {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// compareReports fails the case unless got holds exactly the
// reference's contexts with byte-identical reports.
func compareReports(t *testing.T, what string, got map[trace.Context]*core.Report, want map[trace.Context][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d context reports, want %d", what, len(got), len(want))
	}
	for ctx, w := range want {
		rep, ok := got[ctx]
		if !ok {
			t.Fatalf("%s: no report for context %d", what, ctx)
		}
		compareJSON(t, fmt.Sprintf("%s: context %d", what, ctx), mustJSON(t, rep), w)
	}
}

// compareJSON fails the case unless the report encodings are
// byte-identical, showing the bytes around the first difference.
func compareJSON(t *testing.T, what string, g, w []byte) {
	t.Helper()
	if bytes.Equal(g, w) {
		return
	}
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	t.Fatalf("%s: report differs from the reference at byte %d (%d vs %d bytes)\ngot  …%s\nwant …%s",
		what, i, len(g), len(w), g[max(0, i-80):min(len(g), i+80)], w[max(0, i-80):min(len(w), i+80)])
}

// fuzzDaemon builds a daemon profiling with the case's config and
// predictor; dir, when non-empty, makes its sessions durable there,
// every appended record in the file when its append returns. It is not
// started: requests go straight to its handler.
func fuzzDaemon(t *testing.T, cfg core.Config, pred, dir string) *serve.Server {
	t.Helper()
	scfg := serve.DefaultConfig()
	scfg.Addr, scfg.WireAddr = "127.0.0.1:0", "127.0.0.1:0"
	scfg.Profile, scfg.Predictor = cfg, pred
	scfg.DataDir = dir
	scfg.Fsync = wal.SyncPolicy{Mode: wal.SyncAlways}
	srv, err := serve.NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// call serves one request through a daemon's or a router's handler
// and returns the body of its 200 response.
func call(t *testing.T, h http.Handler, method, target string, body []byte) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", method, target, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// fuzzDaemonReport fetches a session's /v1/report from a daemon's or a
// router's handler in compact JSON, the encoding the reference reports
// use.
func fuzzDaemonReport(t *testing.T, h http.Handler, id string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, call(t, h, http.MethodGet, "/v1/report?session="+id, nil)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// startFuzzDaemon starts srv's listeners and stops it with the test.
func startFuzzDaemon(t *testing.T, srv *serve.Server) *serve.Server {
	t.Helper()
	if _, err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stopFuzzDaemon(srv) })
	return srv
}

func stopFuzzDaemon(srv *serve.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
}

// startFuzzRouter starts a router in front of one started daemon and
// stops it with the test.
func startFuzzRouter(t *testing.T, srv *serve.Server) *cluster.Router {
	t.Helper()
	rt, err := cluster.NewRouter(cluster.Config{
		Addr:     "127.0.0.1:0",
		WireAddr: "127.0.0.1:0",
		Nodes:    []cluster.Node{{Name: "n1", HTTPAddr: srv.Addr(), WireAddr: srv.WireAddr()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
	})
	return rt
}

// wireIngest streams events into the wire front at addr, a started
// daemon's or router's, in Send calls of random length, runs beforeEnd
// (when non-nil) and completes the session.
func wireIngest(t *testing.T, addr string, params wire.BeginParams, events []trace.Event, r *rng.Source, chunk int, beforeEnd func()) {
	t.Helper()
	c, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Begin(params)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(events); {
		j := min(len(events), i+1+r.Intn(1+2*chunk))
		if err := sess.Send(events[i:j]); err != nil {
			t.Fatal(err)
		}
		i = j
	}
	if beforeEnd != nil {
		beforeEnd()
	}
	if sum, err := sess.End(); err != nil {
		t.Fatal(err)
	} else if sum.State != "done" {
		t.Fatalf("wire session ended %q: %s", sum.State, sum.Error)
	}
}

// logEvents decodes the events a session log's input records hold, as
// recovery does: wire chunk records one by one, HTTP body records as
// one stream up to its first decode error.
func logEvents(t *testing.T, input []wal.Record) []trace.Event {
	t.Helper()
	if len(input) > 0 && input[0].Type == walBody {
		return decodeBody(logBody(t, input))
	}
	var (
		events []trace.Event
		b      trace.SoABatch
	)
	for _, rec := range input {
		if rec.Type != walChunk {
			t.Fatalf("record type %d in a wire chunk log", rec.Type)
		}
		if err := wire.DecodeChunk(&b, rec.Payload); err != nil {
			t.Fatal(err)
		}
		events = b.AppendEvents(events)
	}
	return events
}

// logBody concatenates the payloads of a session log's HTTP body
// records.
func logBody(t *testing.T, input []wal.Record) []byte {
	t.Helper()
	var body []byte
	for _, rec := range input {
		if rec.Type != walBody {
			t.Fatalf("record type %d in an HTTP body log", rec.Type)
		}
		body = append(body, rec.Payload...)
	}
	return body
}

// decodeBody returns the events a prefix of a BTR body decodes to:
// every batch the reader yields up to its first error.
func decodeBody(body []byte) []trace.Event {
	tr, err := trace.OpenReader(bytes.NewReader(body))
	if err != nil {
		return nil
	}
	var (
		events []trace.Event
		b      trace.SoABatch
	)
	for {
		err := tr.ReadBatch(&b)
		events = b.AppendEvents(events)
		if err != nil {
			return events
		}
	}
}

// awaitLiveLog polls a streaming session's log until full reports its
// input records complete and returns its records: the copy of the live
// log a crash at that moment would leave.
func awaitLiveLog(t *testing.T, path string, full func(input []wal.Record) bool) []wal.Record {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		// A record being appended may show as a torn tail; the valid
		// prefix before it is what a crash would keep.
		recs, _, err := wal.ReadAll(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) > 0 && full(recs[1:]) {
			return recs
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: the live log never held the whole stream", path)
		}
		time.Sleep(time.Millisecond)
	}
}

// httpIngestLive posts raw to a durable daemon's ingest handler
// through a pipe, in pieces of a size drawn from r, and requires after
// each piece that the session's live log holds exactly the bytes sent
// so far. It returns the copy of the live log taken once that is all
// of raw but its last byte, which is held back until then: a BTR2 or
// BTR3 session finishes, and rewrites its log, on reading its footer.
func httpIngestLive(t *testing.T, srv *serve.Server, target, path string, raw []byte, r *rng.Source) []wal.Record {
	t.Helper()
	pr, pw := io.Pipe()
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, pr))
		pr.CloseWithError(errors.New("ingest returned"))
	}()
	last := len(raw) - 1
	piece := 1 + last/16 + r.Intn(1+last/4)
	var live []wal.Record
	for sent := 0; sent < last; {
		n := min(piece, last-sent)
		if _, err := pw.Write(raw[sent : sent+n]); err != nil {
			t.Fatal(err)
		}
		sent += n
		live = awaitLiveLog(t, path, func(input []wal.Record) bool { return len(logBody(t, input)) >= sent })
		if got := logBody(t, live[1:]); !bytes.Equal(got, raw[:sent]) {
			t.Fatalf("the live log's %d body bytes are not the %d bytes sent", len(got), sent)
		}
	}
	if _, err := pw.Write(raw[last:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	<-done
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", rec.Code, rec.Body)
	}
	return live
}

// walCut is where the WAL path cut a live log: it kept the first kept
// of the log's records input records. front is the ingest front that
// wrote the log: pathWire, or the HTTP body's format.
type walCut struct{ front, kept, records int }

// cutLog replaces the log at path with a copy of its live records cut
// to the begin record plus the first k input records, k drawn from r
// — the log of a daemon that died there — and returns the events those
// records hold.
func cutLog(t *testing.T, path string, live []wal.Record, r *rng.Source) ([]trace.Event, walCut) {
	t.Helper()
	cut := walCut{records: len(live) - 1} // input records follow the begin record
	cut.kept = r.Intn(cut.records + 1)
	if err := wal.Rewrite(path, live[:1+cut.kept]); err != nil {
		t.Fatal(err)
	}
	return logEvents(t, live[1:1+cut.kept]), cut
}

// encodeBTR3With encodes events as BTR3, keeping their context tags.
func encodeBTR3With(t testing.TB, events []trace.Event, opts trace.BTR2Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewBTR3Writer(&buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	w.BranchBatch(events)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzEngineDifferential draws a stream, a profiling configuration and
// an ingress path, and asserts that the engine's report equals the
// reference profiler's byte for byte (per context under private
// aggregation).
//
// flags: bit 0 FIR on, bit 1 bias metric, bits 2-4 predictor, bit 5
// private aggregation, bit 6 wide PC layout, bit 7 compressed chunks.
// path: path%numPaths is the ingress path, path/numPaths%4 picks
// Workers 1, 2, 4 or 8. The daemon paths have no worker knob:
// path/numPaths%3 picks the BTR1, BTR2 or BTR3 body of the HTTP path
// instead, and path/numPaths%4 the front of the WAL and routed paths:
// wire, or an HTTP body in BTR1, BTR2 or BTR3. They run under shared
// aggregation, or private with one context, because a private
// multi-context daemon session does not finish yet.
func FuzzEngineDifferential(f *testing.F) {
	for i, c := range differentialSeeds {
		f.Add(seedOf(i), c.n, c.slice, c.execTh, c.flags, c.path, c.chunk)
	}
	f.Fuzz(func(t *testing.T, seed uint64, n, slice uint16, execTh, flags, path uint8, chunk uint16) {
		differential(t, seed, n, slice, execTh, flags, path, chunk)
	})
}

// TestDifferentialWALSeedCutsLiveLog: the WAL seeds of
// FuzzEngineDifferential recover a live log cut between its input
// records — on each front, at least one keeps k >= 1 of several and
// drops the rest — not only the empty and the whole prefix.
func TestDifferentialWALSeedCutsLiveLog(t *testing.T) {
	var cuts []walCut
	for i, c := range differentialSeeds {
		if c.path%numPaths == pathWAL {
			cuts = append(cuts, differential(t, seedOf(i), c.n, c.slice, c.execTh, c.flags, c.path, c.chunk))
		}
	}
	t.Logf("WAL seed cuts: %+v", cuts)
	for _, front := range []int{pathWire, pathHTTP} {
		cutBetween := false
		for _, cut := range cuts {
			onFront := cut.front == pathWire
			if front == pathHTTP {
				onFront = !onFront
			}
			cutBetween = cutBetween || onFront && cut.kept >= 1 && cut.kept < cut.records
		}
		if !cutBetween {
			t.Errorf("no WAL seed on the %s front cuts its live log after k >= 1 of several input records",
				map[int]string{pathWire: "wire", pathHTTP: "HTTP"}[front])
		}
	}
}

// seedOf is the stream seed of the i-th entry of differentialSeeds.
func seedOf(i int) uint64 { return uint64(i)*0x9e3779b97f4a7c15 + 1 }

// differentialSeeds is FuzzEngineDifferential's seed corpus; each
// comment names what the entry's flags and path decode to, where that
// is more than FIR on, gshare, shared, one worker.
var differentialSeeds = []struct {
	n, slice    uint16
	execTh      uint8
	flags, path uint8
	chunk       uint16
}{
	{3000, 0, 0, 0x01, pathPerEvent, 0}, // slice size 1
	{3000, 99, 3, 0x01, pathSoA, 200},
	{5000, 499, 5, 0x21, pathSoA, 777},         // private
	{5000, 499, 5, 0x23, pathPerEvent, 0},      // private, bias
	{6000, 257, 2, 0x05, pathBTR1, 0},          // bimodal
	{6000, 1000, 8, 0x45, pathBTR2, 4093},      // bimodal, wide PCs
	{6000, 300, 4, 0x89, 2*numPaths + 3, 7},    // BTR2, workers 4, tiny compressed chunks, gag
	{6000, 300, 4, 0x0d, 3*numPaths + 4, 9},    // BTR3, workers 8, pag
	{6000, 700, 6, 0xa1, 1*numPaths + 4, 500},  // BTR3, workers 2, private, compressed
	{6000, 63, 0, 0xe3, 2*numPaths + 4, 64},    // BTR3, workers 4, private, bias, wide, compressed
	{4000, 1199, 24, 0x11, pathBTR3, 0},        // one-event chunks, tournament
	{8000, 2, 1, 0x00, pathSoA, 3},             // FIR off
	{7000, 149, 0, 0x1c, 1*numPaths + 3, 1000}, // BTR2, workers 2, FIR off, always-taken
	{2500, 888, 12, 0x3f, pathPerEvent, 0},     // private, bias
	{0, 0, 0, 0x20, pathBTR3, 0},               // a single event, FIR off, private
	{5000, 4, 3, 0x61, pathSoA, 65},            // private, wide
	{6000, 333, 3, 0x01, pathMixed, 700},
	{6000, 999, 5, 0x27, pathMixed, 1500},            // private, bias
	{5000, 499, 5, 0x01, pathHTTP, 0},                // BTR1 body
	{6000, 300, 4, 0x85, 1*numPaths + pathHTTP, 700}, // BTR2 body, bimodal, compressed
	{6000, 777, 3, 0xa3, 2*numPaths + pathHTTP, 333}, // BTR3 body, private, bias, compressed
	{4000, 250, 2, 0x01, pathWire, 300},
	{6000, 999, 6, 0x4b, pathWire, 4000},             // bias, wide
	{6000, 400, 4, 0x01, pathWAL, 77},                // wire
	{6000, 1000, 8, 0x45, 4*numPaths + pathWAL, 500}, // wire, bimodal, wide
	{5000, 64, 1, 0xa7, 8*numPaths + pathWAL, 3000},  // wire, private, bias
	{6000, 400, 4, 0x01, 1*numPaths + pathWAL, 97},   // BTR1 body
	{5000, 199, 2, 0x25, 1*numPaths + pathWAL, 1500}, // BTR1 body, bimodal, private
	{6000, 300, 4, 0x85, 2*numPaths + pathWAL, 700},  // BTR2 body, bimodal, compressed
	{6000, 777, 3, 0x83, 3*numPaths + pathWAL, 333},  // BTR3 body, bias, compressed

	{5000, 250, 2, 0x85, 3*numPaths + pathRouted, 400}, // BTR3 body, bimodal, compressed
	{6000, 500, 4, 0x01, pathRouted, 900},              // wire, 4 contexts
}

// differential runs one FuzzEngineDifferential case; on the WAL path it
// also returns how the live log was cut.
func differential(t *testing.T, seed uint64, n, slice uint16, execTh, flags, path uint8, chunk uint16) (cut walCut) {
	events := fuzzStream(seed, 1+int(n)%8000, flags&0x40 != 0)
	cfg := core.DefaultConfig()
	cfg.SliceSize = 1 + int64(slice)%1200
	cfg.ExecThreshold = int64(execTh % 25)
	cfg.UseFIR = flags&1 != 0
	if flags&2 != 0 {
		cfg.Metric = core.MetricBias
	}
	pred := fuzzPredictors[flags>>2&7]
	private := flags&0x20 != 0
	p := int(path) % numPaths
	workers := []int{1, 2, 4, 8}[int(path)/numPaths%4]
	opts := engine.Options{Workers: workers, Predictor: pred}
	if private {
		opts.Aggregation = engine.AggPrivate
	}
	what := fmt.Sprintf("path %d, workers %d, private %v, %+v", p, workers, private, cfg)
	daemon := p >= pathHTTP
	// format is the encoding the stream reaches its path in: the HTTP
	// and WAL paths draw theirs, and pathWire stands for wire chunks.
	format := p
	switch p {
	case pathHTTP:
		format = pathBTR1 + int(path)/numPaths%3
	case pathWAL, pathRouted:
		format = []int{pathWire, pathBTR1, pathBTR2, pathBTR3}[int(path)/numPaths%4]
	}
	if daemon {
		what = fmt.Sprintf("path %d, format %d, private %v, %+v", p, format, private, cfg)
	}

	if format == pathBTR1 || format == pathBTR2 || daemon && private {
		// These formats carry no context tags, and the daemon paths
		// keep private sessions to one context.
		for i := range events {
			events[i].Ctx = 0
		}
	}
	want := refReports(t, events, cfg, pred, private)

	var raw []byte
	chunkOpts := trace.BTR2Options{ChunkEvents: 1 + int(chunk)%3000, Compress: flags&0x80 != 0}
	encode := func(format int) {
		switch format {
		case pathBTR1:
			raw = encodeBTR1(t, events)
		case pathBTR2:
			raw = encodeBTR2With(t, events, chunkOpts)
		case pathBTR3:
			raw = encodeBTR3With(t, events, chunkOpts)
		}
	}
	agg := ""
	if private {
		agg = "private"
	}
	r := rng.New(seed ^ uint64(chunk)<<32)

	switch p {
	case pathPerEvent, pathSoA, pathMixed:
		eng, err := engine.New(cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		var b trace.SoABatch
		for i := 0; i < len(events); {
			j := min(len(events), i+1+r.Intn(1+2*int(chunk)))
			if p == pathPerEvent || p == pathMixed && r.Bool(0.5) {
				for _, e := range events[i:j] {
					eng.BranchCtx(e.Ctx, e.PC, e.Taken)
				}
			} else {
				b.FromEvents(events[i:j])
				eng.BranchBatchSoA(&b)
			}
			i = j
		}
		got, err := eng.FinishContexts()
		if err != nil {
			t.Fatal(err)
		}
		compareReports(t, what, got, want)
		return
	case pathHTTP:
		encode(format)
		srv := fuzzDaemon(t, cfg, pred, "")
		call(t, srv.Handler(), http.MethodPost, "/v1/ingest?session=f&agg="+agg, raw)
		compareJSON(t, what, fuzzDaemonReport(t, srv.Handler(), "f"), want[0])
		return
	case pathWire:
		srv := startFuzzDaemon(t, fuzzDaemon(t, cfg, pred, ""))
		wireIngest(t, srv.WireAddr(), wire.BeginParams{ID: "f", Aggregation: agg}, events, r, int(chunk), nil)
		compareJSON(t, what, fuzzDaemonReport(t, srv.Handler(), "f"), want[0])
		return
	case pathRouted:
		rt := startFuzzRouter(t, startFuzzDaemon(t, fuzzDaemon(t, cfg, pred, "")))
		if format == pathWire {
			wireIngest(t, rt.WireAddr(), wire.BeginParams{ID: "f", Aggregation: agg}, events, r, int(chunk), nil)
		} else {
			encode(format)
			call(t, rt.Handler(), http.MethodPost, "/v1/ingest?session=f&agg="+agg, raw)
		}
		compareJSON(t, what, fuzzDaemonReport(t, rt.Handler(), "f"), want[0])
		return
	case pathWAL:
		// Copy the live log once it holds the stream, finish the
		// session (which leaves only begin + checkpoint + terminal),
		// then put the copy back cut after k input records, as if the
		// daemon had died there.
		dir := t.TempDir()
		logPath := filepath.Join(dir, "f.wal")
		var live []wal.Record
		if format == pathWire {
			srv := startFuzzDaemon(t, fuzzDaemon(t, cfg, pred, dir))
			wireIngest(t, srv.WireAddr(), wire.BeginParams{ID: "f", Aggregation: agg}, events, r, int(chunk), func() {
				live = awaitLiveLog(t, logPath, func(input []wal.Record) bool {
					return len(logEvents(t, input)) == len(events)
				})
			})
			stopFuzzDaemon(srv)
		} else {
			encode(format)
			live = httpIngestLive(t, fuzzDaemon(t, cfg, pred, dir), "/v1/ingest?session=f&agg="+agg, logPath, raw, r)
		}
		if recs, _, err := wal.ReadAll(logPath); err != nil || len(recs) != 3 {
			t.Fatalf("%s: finished log holds %d records (%v), want begin + checkpoint + terminal", what, len(recs), err)
		}
		var prefix []trace.Event
		prefix, cut = cutLog(t, logPath, live, r)
		cut.front = format
		if len(prefix) > len(events) || !slices.Equal(prefix, events[:len(prefix)]) {
			t.Fatalf("%s: the %d events of %d input records are not a prefix of the stream", what, len(prefix), cut.kept)
		}
		// A restarted daemon replays the cut log as an interrupted
		// session, through the trailing partial-slice rule.
		got := fuzzDaemonReport(t, fuzzDaemon(t, cfg, pred, dir).Handler(), "f")
		compareJSON(t, fmt.Sprintf("%s, %d of %d input records, %d of %d events", what, cut.kept, cut.records, len(prefix), len(events)),
			got, refReports(t, prefix, cfg, pred, private)[0])
		return
	}

	encode(p)
	rep, err := engine.ProfileStream(bytes.NewReader(raw), cfg, opts)
	if len(want) > 1 {
		if !errors.Is(err, engine.ErrMultiContext) {
			t.Fatalf("%s: ProfileStream over %d contexts = %v, want ErrMultiContext", what, len(want), err)
		}
	} else {
		if err != nil {
			t.Fatal(err)
		}
		compareReports(t, what, map[trace.Context]*core.Report{0: rep}, want)
	}
	if !private {
		return
	}
	// Under private aggregation replay the same bytes the way
	// ProfileStream does, and read the per-context reports.
	eng, err := engine.New(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := trace.OpenReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if pr, ok := rd.(trace.ParallelReplayer); ok && eng.Workers() > 1 {
		_, err = pr.ParallelReplay(eng.Workers(), eng)
	} else {
		_, err = rd.Replay(eng)
	}
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.FinishContexts()
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, what, got, want)
	return
}
