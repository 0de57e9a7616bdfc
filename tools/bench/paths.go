package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"twodprof/internal/bpred"
	"twodprof/internal/core"
	"twodprof/internal/engine"
	"twodprof/internal/serve"
	"twodprof/internal/trace"
	"twodprof/internal/wire"
)

// workload is one branch stream, recorded once and encoded once per
// format.
type workload struct {
	name       string
	n          int64
	events     []trace.Event // kept only where a row needs the raw stream
	btr1, btr2 encoded
	refs       map[core.Metric]*[]byte // plain-profiler report per metric
}

// record runs src once into a BTR1 and a BTR2 encoder, keeping the
// events in memory only when keep is set, and computes each metric's
// reference report with the plain profiler.
func record(name string, src trace.Source, keep bool) *workload {
	var b1, b2 bytes.Buffer
	w1, err := trace.NewWriter(&b1)
	must(err)
	w2, err := trace.NewBTR2Writer(&b2, trace.BTR2Options{})
	must(err)
	sink := trace.Tee{w1, w2}
	rec := trace.NewRecorder(0)
	if keep {
		sink = append(sink, rec)
	}
	w := &workload{name: name, n: src.Run(sink), events: rec.Events, refs: map[core.Metric]*[]byte{}}
	must(w1.Close())
	must(w2.Close())
	w.btr1, w.btr2 = b1.Bytes(), b2.Bytes()
	for _, m := range metrics {
		rep, err := w.btr2.plain(config(m))
		must(err)
		ref, err := json.Marshal(rep)
		must(err)
		w.refs[m] = &ref
	}
	return w
}

// row is a row over the whole workload.
func (w *workload) row(name string, pass func() (fetch, error)) *row {
	return &row{Name: name, Workload: w.name, Events: w.n, pass: pass}
}

// metricRow is a row whose pass profiles the workload under metric m;
// its report must equal the plain profiler's.
func (w *workload) metricRow(name string, m core.Metric, profile func(core.Config) (*core.Report, error)) *row {
	cfg := config(m)
	r := w.row(name, func() (fetch, error) {
		rep, err := profile(cfg)
		if err != nil {
			return nil, err
		}
		return func() ([]byte, error) { return json.Marshal(rep) }, nil
	})
	r.Metric, r.ref = m.String(), w.refs[m]
	return r
}

// replayRow profiles one encoding of the workload with
// engine.ProfileStream.
func (w *workload) replayRow(format string, m core.Metric, workers int) *row {
	raw := w.btr2
	if format == "btr1" {
		raw = w.btr1
	}
	return w.metricRow(fmt.Sprintf("replay-%s workers=%d", format, workers), m, func(cfg core.Config) (*core.Report, error) {
		return engine.ProfileStream(bytes.NewReader(raw), cfg, engine.Options{Workers: workers, Predictor: predictor})
	})
}

// daemonRow boots a loopback daemon, posts the BTR1 encoding, fetches
// and decodes the report, and shuts the daemon down. A durable daemon
// logs the session under a fresh data directory (default -fsync
// policy), removed at the end of the pass.
func (w *workload) daemonRow(m core.Metric, durable bool) *row {
	name := "daemon-ingest"
	if durable {
		name += " durable"
	}
	return w.metricRow(name, m, func(cfg core.Config) (*core.Report, error) {
		scfg := serve.DefaultConfig()
		scfg.Addr = "127.0.0.1:0"
		scfg.Predictor, scfg.Profile = predictor, cfg
		if durable {
			dir, err := os.MkdirTemp("", "bench-wal-")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
			scfg.DataDir = dir
		}
		srv, err := start(scfg)
		if err != nil {
			return nil, err
		}
		defer stop(srv)
		base := "http://" + srv.Addr()
		if _, err := body(http.Post(base+"/v1/ingest?session=bench", "application/octet-stream", bytes.NewReader(w.btr1))); err != nil {
			return nil, err
		}
		js, err := body(http.Get(base + "/v1/report?session=bench"))
		if err != nil {
			return nil, err
		}
		var rep core.Report
		return &rep, json.Unmarshal(js, &rep)
	})
}

// daemonStartRow prefills a data directory, once, with the given
// number of finished sessions of the workload, each a BTR1 post to a
// durable daemon (default -fsync policy), and returns a row whose pass
// starts a daemon over it: serve.NewServer, which recovers every
// logged session. The row's events are the logged sessions' events. After the
// timer stops, the first session's report, reloaded from its log, must
// equal the plain profiler's. The caller removes the returned
// directory.
func (w *workload) daemonStartRow(m core.Metric, sessions int) (*row, string) {
	cfg := serve.DefaultConfig()
	cfg.Addr = "127.0.0.1:0"
	cfg.Predictor, cfg.Profile = predictor, config(m)
	dir, err := os.MkdirTemp("", "bench-start-")
	must(err)
	cfg.DataDir = dir
	srv, err := start(cfg)
	must(err)
	for i := range sessions {
		_, err := body(http.Post(fmt.Sprintf("http://%s/v1/ingest?session=start-%d", srv.Addr(), i),
			"application/octet-stream", bytes.NewReader(w.btr1)))
		must(err)
	}
	stop(srv)
	r := w.row("daemon-start durable", func() (fetch, error) {
		srv, err := serve.NewServer(cfg)
		if err != nil {
			return nil, err
		}
		return func() ([]byte, error) {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/report?session=start-0", nil))
			if rec.Code != http.StatusOK {
				return nil, fmt.Errorf("/v1/report: HTTP %d: %s", rec.Code, rec.Body)
			}
			var rep core.Report
			if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
				return nil, err
			}
			return json.Marshal(&rep)
		}, nil
	})
	r.Metric, r.Events, r.ref = m.String(), int64(sessions)*w.n, w.refs[m]
	return r, dir
}

func config(m core.Metric) core.Config {
	cfg := core.DefaultConfig()
	cfg.Metric = m
	return cfg
}

// encoded is one encoding of a workload's stream.
type encoded []byte

// plain is the primitive the engine replaced: one core.Profiler fed by
// the sequential trace reader, decode included.
func (raw encoded) plain(cfg core.Config) (*core.Report, error) {
	var pred bpred.Predictor
	if cfg.Metric == core.MetricAccuracy {
		pred = bpred.MustNew(predictor)
	}
	prof, err := core.NewProfiler(cfg, pred)
	if err != nil {
		return nil, err
	}
	rd, err := trace.OpenReader(bytes.NewReader(raw))
	if err == nil {
		_, err = rd.Replay(prof)
	}
	if err != nil {
		return nil, err
	}
	return prof.Finish(), nil
}

// branchPerEvent is the per-event engine path over a BTR2 encoding:
// each chunk decoded to events by the scalar Chunk.Decode, then one
// Engine.Branch call per event.
func (raw encoded) branchPerEvent(cfg core.Config) (*core.Report, error) {
	eng, err := engine.New(cfg, engine.Options{Workers: 1, Predictor: predictor})
	if err != nil {
		return nil, err
	}
	rd, err := trace.NewBTR2Reader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	var (
		c   trace.Chunk
		evs []trace.Event
	)
	for {
		err := rd.ReadChunkInto(&c)
		if err == io.EOF {
			return eng.Finish()
		}
		if err == nil {
			evs, err = c.Decode(evs[:0])
		}
		if err != nil {
			return nil, err
		}
		for _, e := range evs {
			eng.Branch(e.PC, e.Taken)
		}
	}
}

// sink keeps the compiler from discarding the kernels' results.
var sink int

// decodeRows time the same pre-read BTR2 chunks through the scalar
// Chunk.Decode and the 8-wide Chunk.DecodeSoA.
func decodeRows(w *workload) (scalar, soa *row) {
	rd, err := trace.NewBTR2Reader(bytes.NewReader(w.btr2))
	must(err)
	var chunks []*trace.Chunk
	for {
		c, err := rd.NextChunk()
		if err == io.EOF {
			break
		}
		must(err)
		chunks = append(chunks, c)
	}
	var evs []trace.Event
	scalar = w.row("chunk-decode", func() (fetch, error) {
		for _, c := range chunks {
			d, err := c.Decode(evs[:0])
			if err != nil {
				return nil, err
			}
			evs = d
			sink += len(evs)
		}
		return nil, nil
	})
	var b trace.SoABatch
	soa = w.row("chunk-decode-soa", func() (fetch, error) {
		for _, c := range chunks {
			if err := c.DecodeSoA(&b); err != nil {
				return nil, err
			}
			sink += b.Len()
		}
		return nil, nil
	})
	return scalar, soa
}

// predictRows time a fresh gshare per pass over the workload's events:
// one Predict/Update interface call pair per event, and the SoA batch
// kernel.
func predictRows(w *workload) (perEvent, soa *row) {
	perEvent = w.row("predict-per-event", func() (fetch, error) {
		p := bpred.MustNew(predictor)
		for _, e := range w.events {
			if p.Predict(e.PC) == e.Taken {
				sink++
			}
			p.Update(e.PC, e.Taken)
		}
		return nil, nil
	})
	var b trace.SoABatch
	b.FromEvents(w.events)
	hits := make([]uint64, (len(w.events)+63)/64)
	soa = w.row("predict-batch-soa", func() (fetch, error) {
		bpred.ApplyBatchSoA(bpred.MustNew(predictor), b.PCs, b.Taken, hits)
		return nil, nil
	})
	return perEvent, soa
}

// transport is one daemon, with HTTP and wire listeners, that every
// in-memory transport row streams the workload into, so those rows
// differ only in how the stream reaches it, and a second, durable one
// (a data directory of its own, default -fsync policy) for the durable
// row. Each pass is one new session.
type transport struct {
	w       *workload
	srv     *serve.Server
	durable *serve.Server
	dir     string // durable's data directory, removed at close
	shared  *wire.Client
	seq     int
	ref     []byte
}

func newTransport(w *workload) *transport {
	cfg := serve.DefaultConfig()
	cfg.Addr, cfg.WireAddr = "127.0.0.1:0", "127.0.0.1:0"
	srv, err := start(cfg)
	must(err)
	shared, err := wire.Dial(srv.WireAddr(), 5*time.Second)
	must(err)
	cfg.DataDir, err = os.MkdirTemp("", "bench-wal-")
	must(err)
	durable, err := start(cfg)
	must(err)
	return &transport{w: w, srv: srv, durable: durable, dir: cfg.DataDir, shared: shared}
}

func (t *transport) close() {
	t.shared.Close()
	stop(t.srv)
	stop(t.durable)
	os.RemoveAll(t.dir)
}

// row is a transport row: each pass streams the workload as one new
// session into srv through send, and every report must equal the first
// HTTP BTR1 report.
func (t *transport) row(name string, srv *serve.Server, send func(id string) error) *row {
	r := t.w.row(name, func() (fetch, error) {
		t.seq++
		id := fmt.Sprintf("bench-%d", t.seq)
		return func() ([]byte, error) {
			return body(http.Get("http://" + srv.Addr() + "/v1/report?session=" + id))
		}, send(id)
	})
	r.ref = &t.ref
	return r
}

// httpRow encodes the stream as BTR1, gzip-wrapped when gz is set, and
// posts it. Encoding is part of the pass: every transport pays its own
// encoder, as the wire client does inside Send.
func (t *transport) httpRow(name string, gz bool) *row {
	return t.row(name, t.srv, func(id string) error {
		var buf bytes.Buffer
		var dst io.Writer = &buf
		var zw *gzip.Writer
		if gz {
			zw = gzip.NewWriter(&buf)
			dst = zw
		}
		enc, err := trace.NewWriter(dst)
		if err != nil {
			return err
		}
		enc.BranchBatch(t.w.events)
		if err := enc.Close(); err != nil {
			return err
		}
		if zw != nil {
			if err := zw.Close(); err != nil {
				return err
			}
		}
		_, err = body(http.Post("http://"+t.srv.Addr()+"/v1/ingest?session="+id, "application/octet-stream", &buf))
		return err
	})
}

// wireRow streams the events as one binary-protocol session into srv:
// over a fresh connection per session, or multiplexed over conn, one
// persistent connection (the cluster relay's shape), when it is set.
func (t *transport) wireRow(name string, srv *serve.Server, conn *wire.Client) *row {
	return t.row(name, srv, func(id string) error {
		c := conn
		if c == nil {
			var err error
			if c, err = wire.Dial(srv.WireAddr(), 5*time.Second); err != nil {
				return err
			}
			defer c.Close()
		}
		sess, err := c.Begin(wire.BeginParams{ID: id})
		if err == nil {
			err = sess.Send(t.w.events)
		}
		if err != nil {
			return err
		}
		sum, err := sess.End()
		if err == nil && sum.State != "done" {
			err = fmt.Errorf("wire session %s ended %q: %s", id, sum.State, sum.Error)
		}
		return err
	})
}

func start(cfg serve.Config) (*serve.Server, error) {
	srv, err := serve.NewServer(cfg)
	if err == nil {
		_, err = srv.Start()
	}
	return srv, err
}

func stop(srv *serve.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
}

// body reads the body of a daemon's answer, which must be 200 OK.
func body(resp *http.Response, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s: HTTP %d: %s", resp.Request.URL.Path, resp.StatusCode, b)
	}
	return b, err
}
