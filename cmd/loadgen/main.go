// Command loadgen drives a profiled cluster with thousands of
// concurrent wire-protocol sessions through a profrouter and checks
// the two properties the cluster design promises under load: routed
// session reports stay byte-identical to a single-node profiled over
// the same stream, and the router's memory footprint stays flat (it
// holds no profiling state, only per-session relay bookkeeping).
//
// Usage:
//
//	loadgen -selftest                      # spawn 3 nodes + router, drive, assert
//	loadgen -selftest -sessions 10000
//	loadgen -wire 127.0.0.1:8081 -http 127.0.0.1:8080 -sessions 5000
//
// In -selftest mode loadgen re-execs itself as the cluster members
// (TWODPROF_LOADGEN_ROLE=node|router): real processes, real TCP, so
// the router's heap gauge measures the router alone. The storm opens
// every session, holds them all mid-stream concurrently, samples the
// router heap, then finishes them and verifies sampled reports against
// a reference node outside the cluster.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"twodprof/internal/cluster"
	"twodprof/internal/progs"
	"twodprof/internal/serve"
	"twodprof/internal/trace"
	"twodprof/internal/wire"
)

const (
	roleEnv     = "TWODPROF_LOADGEN_ROLE"
	addrFileEnv = "TWODPROF_LOADGEN_ADDR_FILE"
	nodesEnv    = "TWODPROF_LOADGEN_NODES"
	sliceEnv    = "TWODPROF_LOADGEN_SLICE"
	sessionsEnv = "TWODPROF_LOADGEN_SESSIONS"
	hbEnv       = "TWODPROF_LOADGEN_HEARTBEAT"
)

func main() {
	switch os.Getenv(roleEnv) {
	case "node":
		runNode()
	case "router":
		runRouter()
	}

	var (
		selftest  = flag.Bool("selftest", false, "spawn a 3-node cluster + router as subprocesses and assert identity and flat router memory")
		nNodes    = flag.Int("nodes", 3, "selftest cluster size")
		wireAddr  = flag.String("wire", "", "router wire address to drive (non-selftest mode)")
		httpAddr  = flag.String("http", "", "router HTTP address for reports and /metrics (non-selftest mode)")
		sessions  = flag.Int("sessions", 10000, "concurrent sessions to hold open")
		conns     = flag.Int("conns", 16, "TCP connections the sessions multiplex over")
		perSess   = flag.Int("events", 600, "branch events per session")
		kernel    = flag.String("kernel", "fsm", "VM kernel generating the event stream")
		input     = flag.String("input", "train", "kernel input set")
		sample    = flag.Int("sample", 32, "sessions whose reports are verified against the reference")
		pump      = flag.Int("pump", 1024, "sessions actively sending at any instant (the rest stay open, idle)")
		hb        = flag.Duration("heartbeat", 2*time.Second, "selftest router heartbeat (loose: a storm on one box must not look like node death)")
		slice     = flag.Int64("slice", 200, "selftest node slice size (small so short sessions still produce slices)")
		slack     = flag.Int64("heap-slack", 32<<20, "fixed heap-growth allowance in bytes on top of the per-session budget")
		perBudget = flag.Int64("heap-per-session", 8<<10, "router heap budget per held session, bytes")
	)
	flag.Parse()

	events := kernelEvents(*kernel, *input)
	if len(events) < *perSess {
		fail(fmt.Errorf("kernel %s/%s produced only %d events (< -events %d)", *kernel, *input, len(events), *perSess))
	}
	events = events[:*perSess]

	var refReport []byte
	if *selftest {
		var cleanup func()
		*wireAddr, *httpAddr, refReport, cleanup = bootCluster(*nNodes, *slice, *sessions, *hb, events)
		defer cleanup()
	} else if *wireAddr == "" {
		fail(fmt.Errorf("need -wire (router wire address) or -selftest"))
	}

	st := storm(*wireAddr, *httpAddr, *sessions, *conns, *pump, events)
	fmt.Printf("loadgen: %d sessions held concurrently, %d events each, %.1fs total (%.0f events/s)\n",
		*sessions, *perSess, st.elapsed.Seconds(),
		float64(*sessions)*float64(*perSess)/st.elapsed.Seconds())
	if st.failed > 0 {
		fail(fmt.Errorf("%d of %d sessions failed (first: %v)", st.failed, *sessions, st.firstErr))
	}

	ok := true
	if *httpAddr != "" {
		growth := st.heldHeap - st.baseHeap
		budget := *slack + int64(*sessions)*(*perBudget)
		fmt.Printf("loadgen: router heap base %dMiB, with %d live sessions %dMiB, after %dMiB (budget +%dMiB)\n",
			st.baseHeap>>20, *sessions, st.heldHeap>>20, st.doneHeap>>20, budget>>20)
		if growth > budget {
			fmt.Fprintf(os.Stderr, "loadgen: FAIL router heap grew %dMiB with sessions held, budget %dMiB\n",
				growth>>20, budget>>20)
			ok = false
		}
	}
	if refReport != nil {
		n := *sample
		if n > *sessions {
			n = *sessions
		}
		mismatches := 0
		for i := 0; i < n; i++ {
			id := sessionID(i * (*sessions / n))
			got := httpGet(*httpAddr, "/v1/report?session="+id)
			if !bytes.Equal(got, refReport) {
				mismatches++
				if mismatches == 1 {
					fmt.Fprintf(os.Stderr, "loadgen: FAIL report for %s differs from the single-node reference\n", id)
				}
			}
		}
		if mismatches > 0 {
			fmt.Fprintf(os.Stderr, "loadgen: FAIL %d of %d sampled reports differ from the single-node reference\n", mismatches, n)
			ok = false
		} else {
			fmt.Printf("loadgen: %d sampled routed reports byte-identical to the single-node reference\n", n)
		}
	}
	if !ok {
		os.Exit(1)
	}
	fmt.Println("loadgen: PASS")
}

// stormStats is what one full open-hold-finish cycle measured.
type stormStats struct {
	elapsed  time.Duration
	failed   int64
	firstErr error
	baseHeap int64 // router heap before any session
	heldHeap int64 // router heap with every session open mid-stream
	doneHeap int64 // router heap after all sessions finished
}

func sessionID(i int) string { return fmt.Sprintf("lg-%d", i) }

// storm opens every session, sends the first chunk on each, holds them
// all concurrently while the router heap is sampled, then streams the
// remainder and ends them. A pump semaphore bounds how many sessions
// are actively transferring at any instant — every session stays open
// the whole time, but on a single box an unbounded thundering herd
// measures the scheduler, not the router.
func storm(wireAddr, httpAddr string, sessions, conns, pump int, events []trace.Event) stormStats {
	var st stormStats
	clients := make([]*wire.Client, conns)
	for i := range clients {
		c, err := wire.Dial(wireAddr, 10*time.Second)
		if err != nil {
			fail(fmt.Errorf("dial router: %w", err))
		}
		clients[i] = c
		defer c.Close()
	}
	if httpAddr != "" {
		st.baseHeap = scrapeHeap(httpAddr)
	}

	hold := len(events) / 4
	if hold == 0 {
		hold = len(events)
	}
	if pump <= 0 {
		pump = sessions
	}
	var (
		failed  atomic.Int64
		errOnce sync.Once
		held    sync.WaitGroup
		done    sync.WaitGroup
		release = make(chan struct{})
		sem     = make(chan struct{}, pump)
	)
	start := time.Now()
	for i := 0; i < sessions; i++ {
		held.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			oops := func(err error) {
				failed.Add(1)
				errOnce.Do(func() { st.firstErr = err })
			}
			sem <- struct{}{}
			sess, err := clients[i%len(clients)].Begin(wire.BeginParams{ID: sessionID(i)})
			if err != nil {
				<-sem
				oops(fmt.Errorf("begin: %w", err))
				held.Done()
				return
			}
			err = sess.Send(events[:hold])
			<-sem
			if err != nil {
				oops(fmt.Errorf("send: %w", err))
				held.Done()
				return
			}
			held.Done()
			<-release // every session is open before any finishes
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := sess.Send(events[hold:]); err != nil {
				oops(fmt.Errorf("send: %w", err))
				return
			}
			if sum, err := sess.End(); err != nil {
				oops(fmt.Errorf("end: %w", err))
			} else if sum.State != "done" {
				oops(fmt.Errorf("session ended in state %q: %s", sum.State, sum.Error))
			}
		}(i)
	}
	held.Wait()
	if httpAddr != "" {
		st.heldHeap = scrapeHeap(httpAddr)
	}
	close(release)
	done.Wait()
	st.elapsed = time.Since(start)
	st.failed = failed.Load()
	if httpAddr != "" {
		st.doneHeap = scrapeHeap(httpAddr)
	}
	return st
}

// bootCluster spawns the selftest fleet — n member nodes, one
// reference node outside the ring, one router — and produces the
// reference report by ingesting the storm's exact stream into the
// reference node.
func bootCluster(n int, slice int64, sessions int, hb time.Duration, events []trace.Event) (wireAddr, httpAddr string, refReport []byte, cleanup func()) {
	var procs []*exec.Cmd
	cleanup = func() {
		for _, p := range procs {
			if p.Process != nil {
				p.Process.Kill()
				p.Wait()
			}
		}
	}
	boot := func(role string, extraEnv ...string) (http, wire string) {
		exe, err := os.Executable()
		if err != nil {
			fail(err)
		}
		dir, err := os.MkdirTemp("", "loadgen")
		if err != nil {
			fail(err)
		}
		addrFile := filepath.Join(dir, "addr")
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			roleEnv+"="+role,
			addrFileEnv+"="+addrFile,
			sliceEnv+"="+strconv.FormatInt(slice, 10),
			sessionsEnv+"="+strconv.Itoa(sessions),
			hbEnv+"="+hb.String(),
		)
		cmd.Env = append(cmd.Env, extraEnv...)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			fail(err)
		}
		procs = append(procs, cmd)
		deadline := time.Now().Add(15 * time.Second)
		for {
			if raw, err := os.ReadFile(addrFile); err == nil && len(raw) > 0 {
				parts := strings.Split(strings.TrimSpace(string(raw)), "\n")
				if len(parts) != 2 {
					fail(fmt.Errorf("%s helper published %q", role, raw))
				}
				os.RemoveAll(dir)
				return parts[0], parts[1]
			}
			if time.Now().After(deadline) {
				cleanup()
				fail(fmt.Errorf("%s helper never published its addresses", role))
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	var spec []string
	for i := 0; i < n; i++ {
		h, w := boot("node")
		spec = append(spec, fmt.Sprintf("n%d=%s/%s", i+1, h, w))
	}
	refHTTP, _ := boot("node")
	httpAddr, wireAddr = boot("router", nodesEnv+"="+strings.Join(spec, ","))
	fmt.Printf("loadgen: selftest cluster up — %d nodes + reference, router %s (wire %s)\n",
		n, httpAddr, wireAddr)

	// Reference: the same stream through a lone profiled node.
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		fail(err)
	}
	w.BranchBatch(events)
	if err := w.Close(); err != nil {
		fail(err)
	}
	resp, err := http.Post("http://"+refHTTP+"/v1/ingest?session=ref", "application/octet-stream", &buf)
	if err != nil {
		fail(fmt.Errorf("reference ingest: %w", err))
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fail(fmt.Errorf("reference ingest: HTTP %d", resp.StatusCode))
	}
	refReport = httpGet(refHTTP, "/v1/report?session=ref")
	return wireAddr, httpAddr, refReport, cleanup
}

// runNode is the re-exec'd member (and reference) node role.
func runNode() {
	cfg := serve.DefaultConfig()
	cfg.Addr = "127.0.0.1:0"
	cfg.WireAddr = "127.0.0.1:0"
	if v, err := strconv.ParseInt(os.Getenv(sliceEnv), 10, 64); err == nil && v > 0 {
		cfg.Profile.SliceSize = v
		cfg.Profile.ExecThreshold = 5
	}
	if v, err := strconv.Atoi(os.Getenv(sessionsEnv)); err == nil && v > 0 {
		cfg.MaxSessions = v + 16 // every storm report must stay queryable
	}
	srv, err := serve.NewServer(cfg)
	if err != nil {
		roleFail("node", err)
	}
	if _, err := srv.Start(); err != nil {
		roleFail("node", err)
	}
	publishAddrs(srv.Addr(), srv.WireAddr())
	select {}
}

// runRouter is the re-exec'd router role.
func runRouter() {
	var members []cluster.Node
	for _, entry := range strings.Split(os.Getenv(nodesEnv), ",") {
		name, addrs, ok := strings.Cut(entry, "=")
		httpA, wireA, _ := strings.Cut(addrs, "/")
		if !ok || name == "" || httpA == "" || wireA == "" {
			roleFail("router", fmt.Errorf("bad node spec %q", entry))
		}
		members = append(members, cluster.Node{Name: name, HTTPAddr: httpA, WireAddr: wireA})
	}
	hb, _ := time.ParseDuration(os.Getenv(hbEnv))
	rt, err := cluster.NewRouter(cluster.Config{
		Addr:      "127.0.0.1:0",
		WireAddr:  "127.0.0.1:0",
		Nodes:     members,
		Heartbeat: hb,
	})
	if err != nil {
		roleFail("router", err)
	}
	if _, err := rt.Start(); err != nil {
		roleFail("router", err)
	}
	publishAddrs(rt.Addr(), rt.WireAddr())
	select {}
}

// publishAddrs writes "httpAddr\nwireAddr" atomically for the parent.
func publishAddrs(httpAddr, wireAddr string) {
	addrFile := os.Getenv(addrFileEnv)
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(httpAddr+"\n"+wireAddr), 0o644); err != nil {
		roleFail("helper", err)
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		roleFail("helper", err)
	}
}

func roleFail(role string, err error) {
	fmt.Fprintf(os.Stderr, "loadgen %s helper: %v\n", role, err)
	os.Exit(1)
}

func kernelEvents(kernel, input string) []trace.Event {
	inst, err := progs.StandardInput(kernel, input)
	if err != nil {
		fail(err)
	}
	rec := trace.NewRecorder(0)
	inst.Run(rec)
	return rec.Events
}

func httpGet(addr, path string) []byte {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		fail(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fail(err)
	}
	if resp.StatusCode != http.StatusOK {
		fail(fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, body))
	}
	return body
}

// scrapeHeap reads twodprof_router_heap_bytes off the router's
// /metrics exposition.
func scrapeHeap(addr string) int64 {
	for _, line := range strings.Split(string(httpGet(addr, "/metrics")), "\n") {
		if rest, ok := strings.CutPrefix(line, "twodprof_router_heap_bytes "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				fail(fmt.Errorf("bad heap gauge %q: %w", line, err))
			}
			return int64(v)
		}
	}
	fail(fmt.Errorf("twodprof_router_heap_bytes not found on %s/metrics", addr))
	return 0
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
