package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"twodprof/internal/cluster"
	"twodprof/internal/core"
	"twodprof/internal/engine"
	"twodprof/internal/serve"
	"twodprof/internal/trace"
	"twodprof/internal/wire"
)

// routed-live: reads beside writes. An in-process cluster.Router fronts
// two in-process, in-memory profiled nodes. One closed-loop goroutine
// POSTs long BTR2 session bodies (wide programs, as offline-wide's) to
// the router; one open-loop goroutine GETs the in-flight session's live
// report through the router at a fixed rate, well below saturation.
// Live snapshot, merge and report rendering compete with ingest for
// shards and CPU. No WAL and no wire protocol are involved.

const (
	// routedBodies is how many distinct session bodies the closed loop
	// cycles through, and bodyEvents the length of each.
	routedBodies = 4
	bodyEvents   = 3_000_000
	// pollInterval is the open loop's schedule: 5 polls per second,
	// each taking about a tenth of its slot on two CPUs under ingest.
	pollInterval = 200 * time.Millisecond
	// routedSetupReps is how many set-ups one run measures; each is a
	// few milliseconds, so many are taken.
	routedSetupReps = 61
	// hopPhase is the length of each routed and direct phase of the
	// traced run, and hopReps how many of each alternate.
	hopPhase = 5 * time.Second
	hopReps  = 2
	// livePolls is how many live engine reports the traced run times.
	livePolls = 40
	// marshalReps is how many times a mid-session report is rendered.
	marshalReps = 10
)

var nodeNames = []string{"n1", "n2"}

type routed struct {
	e      *env
	bodies []body
	order  []int
	ring   *cluster.Ring
	runs   int // loop phases run so far, for unique session ids

	nodes  []*serve.Server
	router *cluster.Router
}

func prepareRouted(e *env) (bench, error) {
	bodies, err := genBodies(e.opts.seed, routedBodies, bodyEvents)
	if err != nil {
		return nil, err
	}
	ring, err := cluster.NewRing(nodeNames, 0)
	if err != nil {
		return nil, err
	}
	return &routed{e: e, bodies: bodies, order: order(e.opts.seed, routedBodies), ring: ring}, nil
}

func (r *routed) describe(w io.Writer) {
	var size int64
	var pcSpan uint64
	sites := 0
	for _, b := range r.bodies {
		size += int64(len(b.data))
		pcSpan = max(pcSpan, b.pcSpan)
		sites = max(sites, b.sites)
	}
	events := int64(len(r.bodies)) * bodyEvents
	fmt.Fprintf(w, "input routed-live: %d bodies of %d events, up to %d static branches, PC span up to %d bytes, "+
		"%.3f encoded bytes/event; live polls every %v\n",
		len(r.bodies), bodyEvents, sites, pcSpan, float64(size)/float64(events), pollInterval)
}

func (r *routed) setupReps() int { return routedSetupReps }

// setup starts two in-memory nodes and the router over them, timed
// until the router reports ready to accept sessions.
func (r *routed) setup(keep bool) (time.Duration, error) {
	t0 := time.Now()
	var nodes []*serve.Server
	var members []cluster.Node
	stop := func() {
		for _, n := range nodes {
			stopDaemon(n)
		}
	}
	for _, name := range nodeNames {
		srv, err := startDaemon(daemonConfig("", false))
		if err != nil {
			stop()
			return 0, err
		}
		nodes = append(nodes, srv)
		members = append(members, cluster.Node{Name: name, HTTPAddr: srv.Addr()})
	}
	rt, err := cluster.NewRouter(cluster.Config{Addr: "127.0.0.1:0", Nodes: members})
	if err != nil {
		stop()
		return 0, err
	}
	if _, err := rt.Start(); err != nil {
		stop()
		return 0, err
	}
	c := &http.Client{Timeout: 10 * time.Second}
	_, err = getReport(c, "http://"+rt.Addr()+"/healthz/ready")
	d := time.Since(t0)
	c.CloseIdleConnections()
	if err != nil || !keep {
		stopRouter(rt)
		stop()
		return d, err
	}
	r.nodes, r.router = nodes, rt
	return d, nil
}

func stopRouter(rt *cluster.Router) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: router shutdown:", err)
	}
}

func (r *routed) teardown() {
	if r.router != nil {
		stopRouter(r.router)
		r.router = nil
	}
	for _, n := range r.nodes {
		stopDaemon(n)
	}
	r.nodes = nil
}

// base returns the URL prefix a session's requests go to: the router,
// or with direct the node the router would have chosen.
func (r *routed) base(id string, direct bool) string {
	if !direct {
		return "http://" + r.router.Addr()
	}
	owner, _ := r.ring.Owner(id, nil)
	for i, name := range nodeNames {
		if name == owner {
			return "http://" + r.nodes[i].Addr()
		}
	}
	panic("perfbench: ring returned an unknown node " + owner)
}

// begun counts the sessions the nodes have admitted.
func (r *routed) begun() int64 {
	var n int64
	for _, srv := range r.nodes {
		n += srv.Metrics().SessionsTotal.Load()
	}
	return n
}

// inFlight is the session the open loop polls.
type inFlight struct {
	id   string
	url  string
	body *body
}

// announceReader announces its session to the poller once the owning
// node has admitted it (checked on every read of the request body).
type announceReader struct {
	r        io.Reader
	admitted func() bool
	announce func()
	done     atomic.Bool
}

func (a *announceReader) Read(p []byte) (int, error) {
	if !a.done.Load() && a.admitted() {
		a.finish()
	}
	return a.r.Read(p)
}

// finish announces the session unless that already happened. The
// transport may still be reading the body when the response arrives,
// so both sides can get here.
func (a *announceReader) finish() {
	if a.done.CompareAndSwap(false, true) {
		a.announce()
	}
}

// loopResult is one routed or direct phase.
type loopResult struct {
	*phase
	polls  []poll
	postNs float64 // summed POST time of verified sessions, in ns
}

// drive runs the closed POST loop and the open poll loop for d, through
// the router or, with direct, straight to each session's owning node.
func (r *routed) drive(d time.Duration, tr *tracer, direct bool) (*loopResult, error) {
	if r.router == nil {
		if _, err := r.setup(true); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	r.runs++
	prefix := fmt.Sprintf("run%d", r.runs)
	res := &loopResult{phase: &phase{}}
	post := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer post.CloseIdleConnections()
	pollc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer pollc.CloseIdleConnections()

	var (
		current  atomic.Pointer[inFlight]
		first    = make(chan struct{})
		once     sync.Once
		loopDone = make(chan struct{})
		wg       sync.WaitGroup
		pollT    tally
	)
	ph := res.phase
	ph.start = time.Now()
	deadline := ph.start.Add(d)
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case <-first:
		case <-loopDone:
			return
		}
		res.polls = openLoop(wallClock{}, time.Now(), deadline, pollInterval, func() (time.Time, error) {
			cur := current.Load()
			sp := tr.start("live.report", cur.id, 0)
			got, err := getReport(pollc, cur.url+"/v1/report?session="+cur.id)
			sp.end()
			done := time.Now()
			if err == nil {
				err = checkLiveJSON("live report of "+cur.id, got, cur.body.ref)
			}
			pollT.op(err)
			return done, err
		})
	}()

	for k := 0; time.Now().Before(deadline); k++ {
		b := &r.bodies[r.order[k%len(r.order)]]
		id := fmt.Sprintf("%s-%05d", prefix, k)
		base := r.base(id, direct)
		before := r.begun()
		announce := func() {
			current.Store(&inFlight{id: id, url: base, body: b})
			once.Do(func() { close(first) })
		}
		body := &announceReader{r: bytes.NewReader(b.data), admitted: func() bool { return r.begun() > before }, announce: announce}
		sp := tr.start("routed.session", id, 0)
		p := tr.start("http.POST", id, sp.id)
		p0 := time.Now()
		sum, err := postSession(post, base+"/v1/ingest?session="+id, body)
		postD := time.Since(p0)
		p.end()
		body.finish() // the session exists by now in any case
		if err == nil {
			err = checkSummary("session "+id, sum, b.ref)
		}
		if err == nil {
			g := tr.start("http.report", id, sp.id)
			var got []byte
			got, err = getReport(post, base+"/v1/report?session="+id)
			g.end()
			if err == nil {
				err = checkBytes("final report of "+id, got, b.refHTTP)
			}
		}
		sp.end()
		lat := ms(postD)
		if ph.unit(b.events, err) {
			res.postNs += float64(postD)
		} else {
			lat = failedMs
		}
		ph.sessionMs = append(ph.sessionMs, lat)
	}
	ph.end = time.Now()
	close(loopDone)
	wg.Wait()
	ph.add(&pollT)
	for _, p := range res.polls {
		ph.reportMs = append(ph.reportMs, p.latencyMs())
	}
	return res, nil
}

// postSession streams one body and decodes the ingest summary.
func postSession(c *http.Client, url string, body io.Reader) (summary, error) {
	resp, err := c.Post(url, "application/octet-stream", body)
	if err != nil {
		return summary{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return summary{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return summary{}, fmt.Errorf("POST %s: %s: %.200s", url, resp.Status, raw)
	}
	var s wire.Summary // the HTTP ingest summary has the same fields
	if err := json.Unmarshal(raw, &s); err != nil {
		return summary{}, mismatch("ingest summary: %v", err)
	}
	return wireSummary(s), nil
}

func (r *routed) timed(d time.Duration, tr *tracer) (*phase, error) {
	res, err := r.drive(d, tr, false)
	if err != nil {
		return nil, err
	}
	return res.phase, nil
}

// layers prices the router hop (routed against direct phases, back to
// back), the node's own ingest and report service, and the engine's
// live report and report rendering.
func (r *routed) layers(tr *tracer, res *result) error {
	var routedPolls []poll
	var postNs, reportMs [2][]float64 // [0] routed, [1] direct
	var events [2]int64
	for i := 0; i < hopReps; i++ {
		for side, direct := range []bool{false, true} {
			lr, err := r.drive(hopPhase, tr, direct)
			if err != nil {
				return err
			}
			res.t.add(&lr.tally)
			postNs[side] = append(postNs[side], lr.postNs)
			events[side] += lr.events
			reportMs[side] = append(reportMs[side], lr.reportMs...)
			if !direct {
				routedPolls = append(routedPolls, lr.polls...)
			}
		}
	}
	nsPerEvent := func(side int) float64 { return sum(postNs[side]) / float64(events[side]) }
	routedP50, directP50 := summarize(reportMs[0]).p50, summarize(reportMs[1]).p50
	res.layer("serve.post_ns_per_event", nsPerEvent(1), "ns/event", "events_per_s on routed-live")
	res.layer("serve.report_direct_ms", directP50, "ms", "report_ms_p50 on routed-live")
	res.layer("cluster.ingest_hop_ns_per_event", nsPerEvent(0)-nsPerEvent(1), "ns/event", "events_per_s on routed-live")
	res.layer("cluster.report_hop_ms", routedP50-directP50, "ms", "report_ms_p50 on routed-live")
	var late []float64
	for _, p := range routedPolls {
		late = append(late, p.lateMs())
	}
	l := summarize(late)
	res.layer("bench.poll_late_ms_p50", l.p50, "ms", "validity of report_ms_* on routed-live")
	res.layer("bench.poll_late_ms_tail", l.tail, "ms", "validity of report_ms_* on routed-live ("+l.String()+")")
	r.teardown()

	live, err := r.liveReports(tr)
	if err != nil {
		return err
	}
	res.t.add(&live.t)
	res.layer("engine.live_report_ms", median(live.reportMs), "ms", "report_ms_p50 on routed-live")
	res.layer("core.report_bytes", float64(live.bytes), "bytes", "report_ms_p50 on routed-live")
	res.layer("core.marshal_ms", median(live.marshalMs), "ms", "report_ms_p50 on routed-live")
	return nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		if !math.IsInf(x, 0) {
			s += x
		}
	}
	return s
}

// liveTimes are the engine-level live report measurements.
type liveTimes struct {
	t         tally
	reportMs  []float64
	marshalMs []float64
	bytes     int
}

// liveEngine is the engine the feeder is filling, guarded so that a
// poll never meets one being finished.
type liveEngine struct {
	mu  sync.Mutex
	eng *engine.Engine // nil between bodies
	b   *body
	id  string
}

// liveReports feeds bodies back to back, each into a fresh engine, on
// one goroutine while this one calls Engine.Report on the engine being
// fed at the poll rate, livePolls times. A
// mid-session report, the first half of a body, is then rendered
// marshalReps times.
func (r *routed) liveReports(tr *tracer) (*liveTimes, error) {
	lt := &liveTimes{}
	var cur liveEngine
	stop := make(chan struct{})
	fed := make(chan error, 1)
	go func() { fed <- r.feedLive(&cur, stop, &lt.t) }()

	t := time.NewTicker(pollInterval)
	for polls := 0; polls < livePolls; {
		var ferr error
		select {
		case ferr = <-fed:
		case <-t.C:
		}
		if ferr != nil {
			t.Stop()
			return nil, ferr
		}
		cur.mu.Lock()
		if cur.eng == nil {
			cur.mu.Unlock()
			continue
		}
		polls++
		sp := tr.start("engine.Report", cur.id, 0)
		rep, err := cur.eng.Report()
		d := sp.end()
		b, id := cur.b, cur.id
		cur.mu.Unlock()
		if err == nil {
			err = checkLive(id, rep, b.ref)
		}
		if lt.t.op(err) {
			lt.reportMs = append(lt.reportMs, ms(d))
		}
	}
	t.Stop()
	close(stop)
	if err := <-fed; err != nil {
		return nil, err
	}

	b := &r.bodies[r.order[0]]
	mid, err := midReport(b)
	if err != nil {
		return nil, err
	}
	lt.t.op(checkLive("mid-session report", mid, b.ref))
	for i := 0; i < marshalReps; i++ {
		sp := tr.start("core.MarshalJSON", "mid-session", 0)
		js, err := mid.MarshalJSON()
		d := sp.end()
		if err != nil {
			return nil, err
		}
		lt.bytes = len(js)
		lt.marshalMs = append(lt.marshalMs, ms(d))
	}
	return lt, nil
}

// feedLive replays bodies into fresh engines until stop is closed,
// publishing each engine in cur while it is fed and checking each
// finished report against its reference.
func (r *routed) feedLive(cur *liveEngine, stop <-chan struct{}, t *tally) error {
	for round := 0; ; round++ {
		select {
		case <-stop:
			return nil
		default:
		}
		b := &r.bodies[r.order[round%len(r.order)]]
		id := fmt.Sprintf("live-%d", round)
		eng, err := engine.New(profileConfig(), engine.Options{Predictor: predictorName})
		if err != nil {
			return err
		}
		rd, err := trace.NewBTR2Reader(bytes.NewReader(b.data))
		if err != nil {
			eng.Abort()
			return err
		}
		cur.mu.Lock()
		cur.eng, cur.b, cur.id = eng, b, id
		cur.mu.Unlock()
		_, err = rd.Replay(eng)
		cur.mu.Lock()
		cur.eng = nil
		cur.mu.Unlock()
		if err != nil {
			eng.Abort()
			return err
		}
		rep, err := eng.Finish()
		if err == nil {
			err = checkReport(id, rep, b.refJSON)
		}
		t.op(err)
	}
}

// midReport is the live report of an engine fed the first half of b's
// chunks.
func midReport(b *body) (*core.Report, error) {
	eng, err := engine.New(profileConfig(), engine.Options{Predictor: predictorName})
	if err != nil {
		return nil, err
	}
	defer eng.Abort()
	rd, err := trace.NewBTR2Reader(bytes.NewReader(b.data))
	if err != nil {
		return nil, err
	}
	var c trace.Chunk
	var batch trace.SoABatch
	for n := int64(0); n < b.events/2; n += int64(batch.Len()) {
		if err := rd.ReadChunkInto(&c); err != nil {
			return nil, err
		}
		if err := c.DecodeSoA(&batch); err != nil {
			return nil, err
		}
		eng.BranchBatchSoA(&batch)
	}
	return eng.Report()
}
