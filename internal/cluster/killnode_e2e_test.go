package cluster

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"twodprof/internal/serve"
	"twodprof/internal/wire"
)

// The kill-node test needs nodes it can SIGKILL — processes, not
// goroutines. The test binary re-execs itself: with the helper
// variable set, TestMain boots a profiled node (both fronts) instead
// of running tests and blocks until killed.
const (
	nodeHelperEnv   = "TWODPROF_CLUSTER_NODE"
	nodeHelperAddrF = "TWODPROF_CLUSTER_ADDR_FILE"
)

func TestMain(m *testing.M) {
	if os.Getenv(nodeHelperEnv) == "" {
		os.Exit(m.Run())
	}
	cfg := serve.DefaultConfig()
	cfg.Addr = "127.0.0.1:0"
	cfg.WireAddr = "127.0.0.1:0"
	cfg.Profile = testProfile()
	srv, err := serve.NewServer(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "node helper:", err)
		os.Exit(1)
	}
	if _, err := srv.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "node helper:", err)
		os.Exit(1)
	}
	// Publish both bound addresses atomically (write-temp + rename).
	addrFile := os.Getenv(nodeHelperAddrF)
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(srv.Addr()+"\n"+srv.WireAddr()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "node helper:", err)
		os.Exit(1)
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		fmt.Fprintln(os.Stderr, "node helper:", err)
		os.Exit(1)
	}
	select {} // block until SIGKILLed by the parent
}

// nodeProc is one helper-process node under the parent's control.
type nodeProc struct {
	t        *testing.T
	cmd      *exec.Cmd
	httpAddr string
	wireAddr string
}

func startNodeProc(t *testing.T) *nodeProc {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd := exec.Command(exe, "-test.run=NONE")
	cmd.Env = append(os.Environ(),
		nodeHelperEnv+"=1",
		nodeHelperAddrF+"="+addrFile,
	)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &nodeProc{t: t, cmd: cmd}
	t.Cleanup(func() { p.kill() })

	deadline := time.Now().Add(15 * time.Second)
	for {
		if raw, err := os.ReadFile(addrFile); err == nil && len(raw) > 0 {
			parts := strings.Split(strings.TrimSpace(string(raw)), "\n")
			if len(parts) != 2 {
				t.Fatalf("node helper published %q", raw)
			}
			p.httpAddr, p.wireAddr = parts[0], parts[1]
			return p
		}
		if time.Now().After(deadline) {
			p.kill()
			t.Fatal("node helper never published its addresses")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// kill SIGKILLs the node — no drain, no flush, the crash under test.
func (p *nodeProc) kill() {
	if p.cmd.Process != nil {
		_ = p.cmd.Process.Kill()
		_, _ = p.cmd.Process.Wait()
	}
}

// TestKillNodeMidStream is the resilience acceptance test: SIGKILL one
// node of three while sessions stream through the router over the wire
// protocol. Only the dead node's sessions fail (with a connection
// error, not a hang), the router marks the node down within one
// heartbeat interval, keeps serving, and routes new sessions onto the
// survivors.
func TestKillNodeMidStream(t *testing.T) {
	if testing.Short() {
		t.Skip("kill-node e2e is not short")
	}
	const heartbeat = 200 * time.Millisecond

	procs := make([]*nodeProc, 3)
	members := make([]Node, 3)
	for i := range procs {
		procs[i] = startNodeProc(t)
		members[i] = Node{
			Name:     fmt.Sprintf("n%d", i+1),
			HTTPAddr: procs[i].httpAddr,
			WireAddr: procs[i].wireAddr,
		}
	}
	rt, err := NewRouter(Config{
		Addr:      "127.0.0.1:0",
		WireAddr:  "127.0.0.1:0",
		Nodes:     members,
		Heartbeat: heartbeat,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
	}()

	events := kernelEvents(t, "fsm", "train")
	const nSessions = 12
	victim := "n2"

	// Open one long-lived wire session per id through the router, all
	// on one multiplexed connection, and keep them mid-stream.
	c, err := wire.Dial(rt.WireAddr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type run struct {
		id    string
		owner string
		sess  *wire.Session
	}
	var runs []run
	for i := 0; i < nSessions; i++ {
		id := fmt.Sprintf("k-%d", i)
		owner, _ := rt.ring.Owner(id, nil)
		sess, err := c.Begin(wire.BeginParams{ID: id})
		if err != nil {
			t.Fatalf("begin %s: %v", id, err)
		}
		if err := sess.Send(events[:5000]); err != nil {
			t.Fatalf("first half of %s: %v", id, err)
		}
		runs = append(runs, run{id: id, owner: owner, sess: sess})
	}
	victims, survivors := 0, 0
	for _, r := range runs {
		if r.owner == victim {
			victims++
		} else {
			survivors++
		}
	}
	if victims == 0 || survivors == 0 {
		t.Fatalf("degenerate assignment (victims=%d survivors=%d) — ring changed?", victims, survivors)
	}

	// Kill the victim mid-stream.
	procs[1].kill()
	killedAt := time.Now()

	// Finish every session. Dead-node sessions must fail with an
	// error, not hang; survivor sessions must complete untouched.
	var wg sync.WaitGroup
	errs := make([]error, len(runs))
	for i, r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := r.sess.Send(events[5000:10000]); err != nil {
				errs[i] = err
				return
			}
			if _, err := r.sess.End(); err != nil {
				errs[i] = err
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("sessions hung after node kill")
	}
	for i, r := range runs {
		if r.owner == victim {
			if errs[i] == nil {
				t.Errorf("session %s on killed node completed successfully", r.id)
			}
		} else if errs[i] != nil {
			t.Errorf("session %s on surviving node %s failed: %v", r.id, r.owner, errs[i])
		}
	}

	// The router must notice within one heartbeat interval (allow the
	// probe timeout itself as slack: detection budget = interval for
	// the tick + interval for the probe to time out).
	for rt.reg.Up(victim) {
		if time.Since(killedAt) > 4*heartbeat {
			t.Fatal("router did not mark the killed node down within the heartbeat budget")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if waited := time.Since(killedAt); waited > 3*heartbeat {
		t.Logf("mark-down took %v (heartbeat %v)", waited, heartbeat)
	}

	// Router keeps serving: ready, and new sessions land on survivors.
	resp, err := http.Get("http://" + rt.Addr() + "/healthz/ready")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router not ready after mark-down: %d", resp.StatusCode)
	}
	for i := 0; i < 4; i++ {
		sess, err := c.Begin(wire.BeginParams{ID: fmt.Sprintf("post-%d", i)})
		if err != nil {
			t.Fatalf("post-kill begin: %v", err)
		}
		if err := sess.Send(events[:2000]); err != nil {
			t.Fatalf("post-kill send: %v", err)
		}
		if sum, err := sess.End(); err != nil || sum.State != "done" {
			t.Fatalf("post-kill end: %v (sum %+v)", err, sum)
		}
	}
}
