package main

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"twodprof/internal/engine"
	"twodprof/internal/serve"
	"twodprof/internal/trace"
	"twodprof/internal/wire"
)

// ingest-durable: a PGO build farm streaming many short training runs.
// Two goroutines, each on its own wire connection, stream sessions back
// to back (a closed loop) into an in-process profiled with a data
// directory on the checkout's disk, so every terminal record's fsync is
// real. The daemon starts over a data directory pre-filled, identically
// for a given seed, with finished-session logs. Fsync, checkpoint and
// janitor settings keep their defaults.

const (
	// sessionPool is how many distinct session programs a run draws
	// from; clients cycle through them in a seeded order.
	sessionPool = 32
	// prefillSessions is how many finished sessions the seeded data
	// directory holds.
	prefillSessions = 12
	// ingestClients is the closed loop's goroutine and connection count.
	ingestClients = 2
	// ingestSetupReps is how many set-ups one run measures.
	ingestSetupReps = 13
	// reportSample is how many finished sessions' full reports are
	// fetched and checked after the timed phase.
	reportSample = 32
	// sendEvents is how many events one Session.Send call carries.
	sendEvents = 1 << 16
	// startReps is how many daemon starts the recovery layer pass times
	// on each data directory.
	startReps = 3
)

type ingest struct {
	e       *env
	pool    []*session
	order   []int
	seedDir string // the pre-filled data directory, copied per daemon
	dirs    int    // data directories made so far
	runs    int    // closed-loop phases run so far, for unique session ids

	srv *serve.Server // the daemon kept up for the timed phase
}

func prepareIngest(e *env) (bench, error) {
	pool, err := genSessions(e.opts.seed, sessionPool)
	if err != nil {
		return nil, err
	}
	in := &ingest{e: e, pool: pool, order: order(e.opts.seed, sessionPool),
		seedDir: filepath.Join(e.dir, "ingest-seed")}
	if err := in.prefill(); err != nil {
		in.teardown()
		return nil, fmt.Errorf("pre-filling the data directory: %w", err)
	}
	return in, nil
}

func (in *ingest) describe(w io.Writer) {
	var sites, lens []float64
	var pcSpan uint64
	var encoded byteCounter
	var events int64
	for _, s := range in.pool {
		sites = append(sites, float64(s.sites))
		lens = append(lens, float64(s.events))
		pcSpan = max(pcSpan, s.pcSpan)
		events += s.events
		// Wire chunk bodies carry the BTR2 delta encoding.
		bw, err := trace.NewBTR2Writer(&encoded, trace.BTR2Options{})
		if err == nil {
			for i, pc := range s.pcs {
				bw.Branch(trace.PC(pc), s.taken[i>>6]>>uint(i&63)&1 != 0)
			}
			err = bw.Close()
		}
		if err != nil {
			fmt.Fprintln(w, "perfbench: measuring the encoded session size:", err)
		}
	}
	sq, lq := quartiles(sites), quartiles(lens)
	fmt.Fprintf(w, "input ingest-durable: %d session programs; static branches quartiles %.0f/%.0f/%.0f; "+
		"session length quartiles %.0f/%.0f/%.0f events; PC span up to %d bytes; %.3f encoded bytes/event; %d pre-filled sessions\n",
		len(in.pool), sq[0], sq[1], sq[2], lq[0], lq[1], lq[2], pcSpan, float64(encoded)/float64(events), prefillSessions)
}

// byteCounter is an io.Writer that only counts.
type byteCounter int64

func (c *byteCounter) Write(p []byte) (int, error) {
	*c += byteCounter(len(p))
	return len(p), nil
}

func (in *ingest) setupReps() int { return ingestSetupReps }

// daemonConfig is the daemon configuration: production defaults on
// loopback ports, durable when dataDir is set.
func daemonConfig(dataDir string, wireFront bool) serve.Config {
	cfg := serve.DefaultConfig()
	cfg.Addr = "127.0.0.1:0"
	if wireFront {
		cfg.WireAddr = "127.0.0.1:0"
	}
	cfg.DataDir = dataDir
	return cfg
}

// startDaemon constructs and starts a daemon.
func startDaemon(cfg serve.Config) (*serve.Server, error) {
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := srv.Start(); err != nil {
		return nil, err
	}
	return srv, nil
}

// stopDaemon shuts a daemon down, letting in-flight sessions drain.
func stopDaemon(srv *serve.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: daemon shutdown:", err)
	}
}

// prefill streams prefillSessions pool entries into a durable daemon
// over seedDir and shuts it down, leaving their finished-session logs
// behind. The entries are evenly spaced in rank of session length, so
// every seed's data directory holds the same mix of short and long
// logs and recovering it takes the same work.
func (in *ingest) prefill() error {
	if err := os.MkdirAll(in.seedDir, 0o755); err != nil {
		return err
	}
	srv, err := startDaemon(daemonConfig(in.seedDir, true))
	if err != nil {
		return err
	}
	defer stopDaemon(srv)
	c, err := wire.Dial(srv.WireAddr(), 5*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	buf := make([]trace.Event, sendEvents)
	byLength := make([]*session, len(in.pool))
	copy(byLength, in.pool)
	sort.Slice(byLength, func(i, j int) bool { return byLength[i].events < byLength[j].events })
	for k := 0; k < prefillSessions; k++ {
		s := byLength[(2*k+1)*len(byLength)/(2*prefillSessions)]
		id := fmt.Sprintf("prefill-%02d", k)
		if _, err := streamSession(c, id, s, buf, nil, nil); err != nil {
			return err
		}
	}
	return nil
}

// freshDir copies the pre-filled data directory (empty when !seeded)
// into a new one. The copies are synced, so the kernel is not still
// writing them back while the daemon recovers or ingests.
func (in *ingest) freshDir(seeded bool) (string, error) {
	in.dirs++
	dir := filepath.Join(in.e.dir, fmt.Sprintf("ingest-data-%d", in.dirs))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	if !seeded {
		return dir, nil
	}
	entries, err := os.ReadDir(in.seedDir)
	if err != nil {
		return "", err
	}
	for _, ent := range entries {
		if err := copyFile(filepath.Join(in.seedDir, ent.Name()), filepath.Join(dir, ent.Name())); err != nil {
			return "", err
		}
	}
	return dir, nil
}

func copyFile(src, dst string) error {
	r, err := os.Open(src)
	if err != nil {
		return err
	}
	defer r.Close()
	w, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(w, r); err != nil {
		w.Close()
		return err
	}
	if err := w.Sync(); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// setup starts a durable daemon over a copy of the pre-filled data
// directory (recovering its sessions) and times it until a wire client
// has its first session begun.
func (in *ingest) setup(keep bool) (time.Duration, error) {
	dir, err := in.freshDir(true)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	srv, err := startDaemon(daemonConfig(dir, true))
	if err != nil {
		return 0, err
	}
	c, err := wire.Dial(srv.WireAddr(), 5*time.Second)
	if err != nil {
		stopDaemon(srv)
		return 0, err
	}
	s, err := c.Begin(wire.BeginParams{ID: "setup"})
	d := time.Since(t0)
	if err == nil {
		s.Abort()
	}
	c.Close()
	if err != nil || !keep {
		stopDaemon(srv)
		os.RemoveAll(dir)
		return d, err
	}
	in.srv = srv
	return d, nil
}

func (in *ingest) teardown() {
	if in.srv != nil {
		stopDaemon(in.srv)
		in.srv = nil
	}
	for i := 1; i <= in.dirs; i++ {
		os.RemoveAll(filepath.Join(in.e.dir, fmt.Sprintf("ingest-data-%d", i)))
	}
	os.RemoveAll(in.seedDir)
}

// wireTimes accumulates the client-side wire spans of a closed loop.
type wireTimes struct {
	mu      sync.Mutex
	beginMs []float64
	endMs   []float64
	send    time.Duration
	events  int64
}

// streamSession runs one wire session — Begin, Send in sendEvents
// pieces, End — and checks its summary. It returns the session time,
// Begin to End.
func streamSession(c *wire.Client, id string, s *session, buf []trace.Event, tr *tracer, wt *wireTimes) (time.Duration, error) {
	sp := tr.start("ingest.session", id, 0)
	t0 := time.Now()
	b := tr.start("wire.Begin", id, sp.id)
	sess, err := c.Begin(wire.BeginParams{ID: id})
	beginD := b.end()
	if err != nil {
		sp.end()
		return 0, fmt.Errorf("session %s: begin: %w", id, err)
	}
	var send time.Duration
	for from := 0; from < len(s.pcs); from += len(buf) {
		evs := s.fill(buf, from)
		x := tr.start("wire.Send", id, sp.id)
		err := sess.Send(evs)
		send += x.end()
		if err != nil {
			sp.end()
			return 0, fmt.Errorf("session %s: send: %w", id, err)
		}
	}
	en := tr.start("wire.End", id, sp.id)
	sum, err := sess.End()
	endD := en.end()
	d := time.Since(t0)
	sp.end()
	if err != nil {
		return 0, fmt.Errorf("session %s: end: %w", id, err)
	}
	if wt != nil {
		wt.mu.Lock()
		wt.beginMs = append(wt.beginMs, ms(beginD))
		wt.endMs = append(wt.endMs, ms(endD))
		wt.send += send
		wt.events += s.events
		wt.mu.Unlock()
	}
	return d, checkSummary("session "+id, wireSummary(sum), s.ref)
}

// finished is one verified session of a closed loop.
type finished struct {
	k  int64
	id string
	s  *session
}

// drive runs the closed loop: ingestClients goroutines, each with its
// own connection, stream sessions back to back while more(k) holds for
// the next session number k.
func (in *ingest) drive(srv *serve.Server, more func(k int64) bool, tr *tracer, wt *wireTimes) (*phase, []finished, error) {
	in.runs++
	prefix := fmt.Sprintf("run%d", in.runs)
	ph := &phase{}
	var (
		next atomic.Int64
		mu   sync.Mutex
		done []finished
		wg   sync.WaitGroup
	)
	clients := make([]*wire.Client, ingestClients)
	for g := range clients {
		c, err := wire.Dial(srv.WireAddr(), 5*time.Second)
		if err != nil {
			for _, c := range clients[:g] {
				c.Close()
			}
			return nil, nil, err
		}
		clients[g] = c
	}
	ph.start = time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *wire.Client) {
			defer wg.Done()
			buf := make([]trace.Event, sendEvents)
			for {
				k := next.Add(1) - 1
				if !more(k) {
					return
				}
				s := in.pool[in.order[int(k)%len(in.order)]]
				id := fmt.Sprintf("%s-%06d", prefix, k)
				d, err := streamSession(c, id, s, buf, tr, wt)
				lat := ms(d)
				if !ph.unit(s.events, err) {
					lat = failedMs
				} else {
					mu.Lock()
					done = append(done, finished{k, id, s})
					mu.Unlock()
				}
				mu.Lock()
				ph.sessionMs = append(ph.sessionMs, lat)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	ph.end = time.Now()
	for _, c := range clients {
		c.Close()
	}
	sort.Slice(done, func(i, j int) bool { return done[i].k < done[j].k })
	return ph, done, nil
}

// timed runs the closed loop for d, then fetches and checks the full
// reports of a seeded sample of the sessions it finished. A session's
// report is ready when End returns, so its report time is its session
// time; the sample is fetched for the correctness gate only.
func (in *ingest) timed(d time.Duration, tr *tracer) (*phase, error) {
	deadline := time.Now().Add(d)
	ph, done, err := in.drive(in.srv, func(int64) bool { return time.Now().Before(deadline) }, tr, nil)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewPCG(in.e.opts.seed, streamSample))
	pick := r.Perm(len(done))
	if len(pick) > reportSample {
		pick = pick[:reportSample]
	}
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	for _, i := range pick {
		f := done[i]
		sp := tr.start("serve.report", f.id, 0)
		got, err := getReport(client, "http://"+in.srv.Addr()+"/v1/report?session="+f.id)
		sp.end()
		if err == nil {
			err = checkBytes("report of "+f.id, got, f.s.refHTTP)
		}
		ph.op(err)
	}
	ph.reportMs = ph.sessionMs
	return ph, nil
}

// layers prices the layers under a wire session: the engine fed
// directly, the same sessions against a durable and an in-memory
// daemon, and daemon start-up over an empty and the pre-filled data
// directory.
func (in *ingest) layers(tr *tracer, res *result) error {
	moves := "session_ms_p50 on ingest-durable"
	n := int64(len(in.pool))
	all := func(k int64) bool { return k < n }

	// Engine alone: New, one BranchBatchSoA with the whole session, Finish.
	var newUs, engMs []float64
	var t tally
	var b trace.SoABatch
	for k, idx := range in.order {
		s := in.pool[idx]
		s.soa(&b)
		id := fmt.Sprintf("engine-%02d", k)
		sp := tr.start("layer.engine-session", id, 0)
		nw := tr.start("engine.New", id, sp.id)
		eng, err := engine.New(profileConfig(), engine.Options{Predictor: predictorName})
		newD := nw.end()
		if err != nil {
			return err
		}
		feed := tr.start("engine.BranchBatchSoA", id, sp.id)
		eng.BranchBatchSoA(&b)
		feed.end()
		fin := tr.start("engine.Finish", id, sp.id)
		rep, err := eng.Finish()
		fin.end()
		engMs = append(engMs, ms(sp.end()))
		newUs = append(newUs, float64(newD)/float64(time.Microsecond))
		if err == nil {
			err = checkSummary(id, summaryOf(rep), s.ref)
		}
		t.op(err)
	}
	res.t.add(&t)
	engP50 := median(engMs)
	res.layer("engine.new_us", median(newUs), "us", moves)
	res.layer("engine.session_ms", engP50, "ms", moves)

	// The same sessions against a durable daemon, then an in-memory one.
	dir, err := in.freshDir(true)
	if err != nil {
		return err
	}
	srv, err := startDaemon(daemonConfig(dir, true))
	if err != nil {
		return err
	}
	before, err := dirBytes(dir)
	if err != nil {
		stopDaemon(srv)
		return err
	}
	wt := &wireTimes{}
	durable, _, err := in.drive(srv, all, tr, wt)
	stopDaemon(srv)
	if err != nil {
		return err
	}
	after, err := dirBytes(dir)
	if err != nil {
		return err
	}
	res.t.add(&durable.tally)
	mem, err := startDaemon(daemonConfig("", true))
	if err != nil {
		return err
	}
	inMemory, _, err := in.drive(mem, all, tr, nil)
	stopDaemon(mem)
	if err != nil {
		return err
	}
	res.t.add(&inMemory.tally)
	durP50, memP50 := summarize(durable.sessionMs).p50, summarize(inMemory.sessionMs).p50
	res.layer("wire.begin_ms", median(wt.beginMs), "ms", "session_ms_p50, session_ms_tail on ingest-durable")
	res.layer("wire.send_ns_per_event", float64(wt.send)/float64(wt.events), "ns/event",
		"session_ms_p50, session_ms_tail on ingest-durable")
	res.layer("wire.end_ms", median(wt.endMs), "ms", "session_ms_p50, session_ms_tail on ingest-durable")
	res.layer("wal.session_ms", durP50-memP50, "ms", "session_ms_p50, sessions_per_s on ingest-durable")
	res.layer("wal.bytes_per_event", float64(after-before)/float64(durable.events), "bytes/event",
		"sessions_per_s on ingest-durable")
	res.layer("serve.session_overhead_ms", durP50-engP50-(durP50-memP50), "ms", moves)

	// Daemon start-up over an empty and over the pre-filled data directory.
	var emptyNew, seededNew, emptyStart []float64
	for i := 0; i < startReps; i++ {
		for _, seeded := range []bool{false, true} {
			dir, err := in.freshDir(seeded)
			if err != nil {
				return err
			}
			op := fmt.Sprintf("start-%d", in.dirs)
			sp := tr.start("serve.NewServer", op, 0)
			srv, err := serve.NewServer(daemonConfig(dir, true))
			newD := sp.end()
			if err != nil {
				return err
			}
			st := tr.start("serve.Start", op, 0)
			_, err = srv.Start()
			startD := st.end()
			if err != nil {
				return err
			}
			stopDaemon(srv)
			if seeded {
				seededNew = append(seededNew, newD.Seconds())
			} else {
				emptyNew = append(emptyNew, newD.Seconds())
				emptyStart = append(emptyStart, ms(newD+startD))
			}
		}
	}
	res.layer("wal.recover_s", median(seededNew)-median(emptyNew), "s", "setup_s on ingest-durable")
	res.layer("serve.start_ms", median(emptyStart), "ms", "setup_s on ingest-durable, routed-live")
	return nil
}

// dirBytes is the total size of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, ent := range entries {
		info, err := ent.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

// getReport fetches one report body, failing on any status but 200.
func getReport(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %.200s", url, resp.Status, body)
	}
	return body, nil
}
