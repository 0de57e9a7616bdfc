package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"twodprof/internal/core"
	"twodprof/internal/progs"
	"twodprof/internal/serve"
	"twodprof/internal/trace"
	"twodprof/internal/wire"
)

// testProfile is the shared profiling setup: small slices so kernel
// traces produce a few hundred of them.
func testProfile() core.Config {
	cfg := core.DefaultConfig()
	cfg.SliceSize = 5000
	cfg.ExecThreshold = 20
	return cfg
}

// startNode boots one in-process profiled node with both fronts.
func startNode(t testing.TB) *serve.Server {
	t.Helper()
	cfg := serve.DefaultConfig()
	cfg.Addr = "127.0.0.1:0"
	cfg.WireAddr = "127.0.0.1:0"
	cfg.Profile = testProfile()
	cfg.DrainTimeout = 5 * time.Second
	srv, err := serve.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv
}

// startCluster boots n nodes and a router fronting them.
func startCluster(t testing.TB, n int, mutate func(*Config)) (*Router, []*serve.Server) {
	t.Helper()
	nodes := make([]*serve.Server, n)
	members := make([]Node, n)
	for i := range nodes {
		nodes[i] = startNode(t)
		members[i] = Node{
			Name:     fmt.Sprintf("n%d", i+1),
			HTTPAddr: nodes[i].Addr(),
			WireAddr: nodes[i].WireAddr(),
		}
	}
	cfg := Config{
		Addr:      "127.0.0.1:0",
		WireAddr:  "127.0.0.1:0",
		Nodes:     members,
		Heartbeat: 100 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := NewRouter(cfg)
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
	return rt, nodes
}

// kernelEvents runs a bundled kernel and returns its event stream.
func kernelEvents(t testing.TB, kernel, input string) []trace.Event {
	t.Helper()
	inst, err := progs.StandardInput(kernel, input)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(0)
	inst.Run(rec)
	return rec.Events
}

func encodeBTR1(t testing.TB, events []trace.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.BranchBatch(events)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func httpPost(t testing.TB, url string, body []byte) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b, resp.Header
}

func httpGet(t testing.TB, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestClusterRoutesAndReportsVerbatim is the cluster identity claim in
// miniature: sessions ingested through the router produce /v1/report
// bodies byte-identical to a single-node daemon fed the same trace,
// over both fronts, and the report relayed by the router is byte-equal
// to the owning node's own response.
func TestClusterRoutesAndReportsVerbatim(t *testing.T) {
	events := kernelEvents(t, "fsm", "train")
	btr1 := encodeBTR1(t, events)

	// Single-node reference.
	ref := startNode(t)
	if status, body, _ := httpPost(t, "http://"+ref.Addr()+"/v1/ingest?session=ref", btr1); status != http.StatusOK {
		t.Fatalf("reference ingest: %d %s", status, body)
	}
	_, want := httpGet(t, "http://"+ref.Addr()+"/v1/report?session=ref")

	rt, _ := startCluster(t, 3, nil)

	// HTTP ingest through the router.
	if status, body, _ := httpPost(t, "http://"+rt.Addr()+"/v1/ingest?session=via-http", btr1); status != http.StatusOK {
		t.Fatalf("router ingest: %d %s", status, body)
	}
	if _, got := httpGet(t, "http://"+rt.Addr()+"/v1/report?session=via-http"); !bytes.Equal(got, want) {
		t.Errorf("router-http report differs from single-node report (%d vs %d bytes)", len(got), len(want))
	}

	// Wire ingest through the router's wire front.
	c, err := wire.Dial(rt.WireAddr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Begin(wire.BeginParams{ID: "via-wire"})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Send(events); err != nil {
		t.Fatal(err)
	}
	sum, err := sess.End()
	if err != nil {
		t.Fatal(err)
	}
	if sum.State != "done" || sum.Events != int64(len(events)) {
		t.Fatalf("relayed summary: %+v", sum)
	}
	if _, got := httpGet(t, "http://"+rt.Addr()+"/v1/report?session=via-wire"); !bytes.Equal(got, want) {
		t.Errorf("router-wire report differs from single-node report (%d vs %d bytes)", len(got), len(want))
	}

	// The router answer is the owning node's answer, byte for byte.
	owner, ok := rt.ring.Owner("via-http", rt.reg.Up)
	if !ok {
		t.Fatal("no owner for via-http")
	}
	node, _ := rt.reg.Get(owner)
	_, direct := httpGet(t, "http://"+node.HTTPAddr+"/v1/report?session=via-http")
	_, relayed := httpGet(t, "http://"+rt.Addr()+"/v1/report?session=via-http")
	if !bytes.Equal(direct, relayed) {
		t.Error("relayed report is not the owning node's response verbatim")
	}
}

// TestClusterSpreadsSessions checks that many sessions actually land
// on more than one node and the scatter listing sees them all with
// their node tags.
func TestClusterSpreadsSessions(t *testing.T) {
	events := kernelEvents(t, "typesum", "train")
	btr1 := encodeBTR1(t, events[:2000])
	rt, _ := startCluster(t, 3, nil)

	const n = 12
	for i := 0; i < n; i++ {
		url := fmt.Sprintf("http://%s/v1/ingest?session=spread-%d", rt.Addr(), i)
		if status, body, _ := httpPost(t, url, btr1); status != http.StatusOK {
			t.Fatalf("ingest %d: %d %s", i, status, body)
		}
	}

	_, body := httpGet(t, "http://"+rt.Addr()+"/v1/sessions")
	var listed []NodeSession
	if err := json.Unmarshal(body, &listed); err != nil {
		t.Fatal(err)
	}
	byNode := map[string]int{}
	found := 0
	for _, s := range listed {
		if strings.HasPrefix(s.ID, "spread-") {
			byNode[s.Node]++
			found++
		}
	}
	if found != n {
		t.Fatalf("scatter listing shows %d of %d sessions:\n%s", found, n, body)
	}
	if len(byNode) < 2 {
		t.Fatalf("all sessions landed on one node: %v", byNode)
	}

	// Every listed session's report must be reachable through the
	// router.
	for i := 0; i < n; i++ {
		url := fmt.Sprintf("http://%s/v1/report?session=spread-%d", rt.Addr(), i)
		if status, _ := httpGet(t, url); status != http.StatusOK {
			t.Fatalf("report spread-%d status %d", i, status)
		}
	}
}

// TestTenantQuota checks the router's per-tenant admission cap over
// the wire front.
func TestTenantQuota(t *testing.T) {
	rt, _ := startCluster(t, 2, func(c *Config) { c.TenantQuota = 1 })
	c, err := wire.Dial(rt.WireAddr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	hog, err := c.Begin(wire.BeginParams{ID: "q1", Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Begin(wire.BeginParams{ID: "q2", Tenant: "acme"}); err == nil {
		t.Fatal("second acme session admitted over quota")
	} else {
		var werr *wire.Error
		if !errors.As(err, &werr) || werr.Code != wire.CodeUnavailable || werr.RetryAfter <= 0 {
			t.Fatalf("quota refusal: %v", err)
		}
	}
	// Another tenant is unaffected.
	other, err := c.Begin(wire.BeginParams{ID: "q3", Tenant: "globex"})
	if err != nil {
		t.Fatalf("other tenant refused: %v", err)
	}
	if _, err := other.End(); err != nil {
		t.Fatal(err)
	}
	// Ending the hog frees the slot.
	if _, err := hog.End(); err != nil {
		t.Fatal(err)
	}
	again, err := c.Begin(wire.BeginParams{ID: "q4", Tenant: "acme"})
	if err != nil {
		t.Fatalf("acme still blocked after drain: %v", err)
	}
	if _, err := again.End(); err != nil {
		t.Fatal(err)
	}
}

// TestTenantQuotaHTTP checks the 429 + Retry-After shape on the HTTP
// front (the quota holds for the duration of the streamed request).
func TestTenantQuotaHTTP(t *testing.T) {
	rt, _ := startCluster(t, 2, func(c *Config) { c.TenantQuota = 1 })

	// Hold the only slot open with a wire session, then poke HTTP.
	c, err := wire.Dial(rt.WireAddr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hog, err := c.Begin(wire.BeginParams{ID: "h1", Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	status, body, hdr := httpPost(t, "http://"+rt.Addr()+"/v1/ingest?session=h2&tenant=acme", nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("quota status = %d: %s", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("quota refusal missing Retry-After")
	}
	if _, err := hog.End(); err != nil {
		t.Fatal(err)
	}
}

// TestNodeDownFailover: shutting a node down flips it out of the
// routing set within a heartbeat and the router keeps serving; the
// node's sessions are gone, everyone else's remain reachable.
func TestNodeDownFailover(t *testing.T) {
	events := kernelEvents(t, "fsm", "train")
	btr1 := encodeBTR1(t, events[:3000])
	rt, nodes := startCluster(t, 3, nil)

	// Seed sessions across the cluster.
	ownerOf := map[string]string{}
	for i := 0; i < 9; i++ {
		id := fmt.Sprintf("f-%d", i)
		owner, _ := rt.ring.Owner(id, nil)
		ownerOf[id] = owner
		if status, body, _ := httpPost(t, fmt.Sprintf("http://%s/v1/ingest?session=%s", rt.Addr(), id), btr1); status != http.StatusOK {
			t.Fatalf("ingest %s: %d %s", id, status, body)
		}
	}

	// Down node n2 (graceful shutdown here; the process-kill variant
	// lives in the e2e test).
	victim := "n2"
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := nodes[1].Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// The heartbeat must notice within one interval (plus probe
	// round-trip slack).
	deadline := time.Now().Add(1 * time.Second)
	for rt.reg.Up(victim) {
		if time.Now().After(deadline) {
			t.Fatal("node still marked up 10 heartbeats after shutdown")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Router stays ready and keeps admitting sessions.
	if status, body := httpGet(t, "http://"+rt.Addr()+"/healthz/ready"); status != http.StatusOK {
		t.Fatalf("router not ready with one node down: %d %s", status, body)
	}
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("after-%d", i)
		if status, body, _ := httpPost(t, fmt.Sprintf("http://%s/v1/ingest?session=%s", rt.Addr(), id), btr1); status != http.StatusOK {
			t.Fatalf("post-failure ingest %s: %d %s", id, status, body)
		}
	}

	// Surviving nodes' sessions stay reachable; the dead node's are
	// gone with a clean 404 (their state died with the process — the
	// cluster holds no replicas by design).
	for id, owner := range ownerOf {
		status, _ := httpGet(t, fmt.Sprintf("http://%s/v1/report?session=%s", rt.Addr(), id))
		if owner == victim {
			if status != http.StatusNotFound {
				t.Errorf("session %s on dead node: status %d, want 404", id, status)
			}
		} else if status != http.StatusOK {
			t.Errorf("session %s on surviving node %s: status %d", id, owner, status)
		}
	}

	// Metrics reflect the mark-down.
	_, mbody := httpGet(t, "http://"+rt.Addr()+"/metrics")
	if !strings.Contains(string(mbody), `twodprof_router_node_up{node="n2"} 0`) {
		t.Errorf("metrics do not show n2 down:\n%s", mbody)
	}
}

// TestGroupScatterGather merges a PC-disjoint collector group across
// nodes and rejects an overlapping one.
func TestGroupScatterGather(t *testing.T) {
	events := kernelEvents(t, "fsm", "train")
	rt, _ := startCluster(t, 3, nil)

	c, err := wire.Dial(rt.WireAddr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var even, odd []trace.Event
	for _, ev := range events {
		if ev.PC%2 == 0 {
			even = append(even, ev)
		} else {
			odd = append(odd, ev)
		}
	}
	for name, part := range map[string][]trace.Event{"g-even": even, "g-odd": odd} {
		sess, err := c.Begin(wire.BeginParams{ID: name, Group: "par"})
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Send(part); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.End(); err != nil {
			t.Fatal(err)
		}
	}

	status, body := httpGet(t, "http://"+rt.Addr()+"/v1/report?group=par")
	if status != http.StatusOK {
		t.Fatalf("group report status %d: %s", status, body)
	}
	var rep struct {
		Branches []struct {
			PC uint64 `json:"pc"`
		} `json:"branches"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	parities := map[bool]bool{}
	for _, b := range rep.Branches {
		parities[b.PC%2 == 0] = true
	}
	if !parities[true] || !parities[false] {
		t.Fatalf("merged group report missing a member's branches (parities: %v)", parities)
	}

	// Overlapping members are refused, not silently mis-merged.
	for _, name := range []string{"o-1", "o-2"} {
		sess, err := c.Begin(wire.BeginParams{ID: name, Group: "overlap"})
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Send(events[:1000]); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.End(); err != nil {
			t.Fatal(err)
		}
	}
	if status, body := httpGet(t, "http://"+rt.Addr()+"/v1/report?group=overlap"); status != http.StatusConflict {
		t.Fatalf("overlapping group status %d, want 409: %s", status, body)
	}

	// Unknown group.
	if status, _ := httpGet(t, "http://"+rt.Addr()+"/v1/report?group=ghost"); status != http.StatusNotFound {
		t.Fatalf("unknown group status %d", status)
	}
}

// TestRouterEscapesQueryValues proxies reports for session ids and a
// group name that only survive the hop to the owning node if the
// router escapes them: '+' and a space decode to each other, '&' and
// '#' end the value, and '%' starts an escape.
func TestRouterEscapesQueryValues(t *testing.T) {
	events := kernelEvents(t, "fsm", "train")
	btr1 := encodeBTR1(t, events[:3000])
	rt, _ := startCluster(t, 2, nil)
	base := "http://" + rt.Addr()

	for _, id := range []string{"a+b", "a&b", "x#y", "p%41", "a b"} {
		q := url.Values{"session": {id}}.Encode()
		if status, body, _ := httpPost(t, base+"/v1/ingest?"+q, btr1); status != http.StatusOK {
			t.Fatalf("ingest %q: %d %s", id, status, body)
		}
		owner, ok := rt.ring.Owner(id, rt.reg.Up)
		if !ok {
			t.Fatalf("no owner for %q", id)
		}
		node, _ := rt.reg.Get(owner)
		_, direct := httpGet(t, "http://"+node.HTTPAddr+"/v1/report?"+q)
		status, relayed := httpGet(t, base+"/v1/report?"+q)
		if status != http.StatusOK {
			t.Errorf("router report for %q: status %d: %s", id, status, relayed)
		} else if !bytes.Equal(relayed, direct) {
			t.Errorf("router report for %q is not the owning node's response", id)
		}
	}

	var even, odd []trace.Event
	for _, ev := range events {
		if ev.PC%2 == 0 {
			even = append(even, ev)
		} else {
			odd = append(odd, ev)
		}
	}
	for name, part := range map[string][]trace.Event{"amp-even": even, "amp-odd": odd} {
		q := url.Values{"session": {name}, "group": {"g&h"}}.Encode()
		if status, body, _ := httpPost(t, base+"/v1/ingest?"+q, encodeBTR1(t, part)); status != http.StatusOK {
			t.Fatalf("ingest %s: %d %s", name, status, body)
		}
	}
	if status, body := httpGet(t, base+"/v1/report?"+url.Values{"group": {"g&h"}}.Encode()); status != http.StatusOK {
		t.Errorf("router group report for %q: status %d: %s", "g&h", status, body)
	}
}

// TestRouterConfigValidate: NewRouter refuses each invalid field of
// its config with an error that names it.
func TestRouterConfigValidate(t *testing.T) {
	node := func(name, addr string) Node { return Node{Name: name, HTTPAddr: addr} }
	if _, err := NewRouter(Config{Nodes: []Node{node("a", "127.0.0.1:1"), node("b", "127.0.0.1:2")}}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	invalid := []struct {
		name, field string
		nodes       []Node
	}{
		{"no nodes", "Nodes", nil},
		{"empty Name", "Name", []Node{node("a", "127.0.0.1:1"), node("", "127.0.0.1:2")}},
		{"empty HTTPAddr", "HTTPAddr", []Node{node("a", "")}},
		{"duplicate Name", "Name", []Node{node("a", "127.0.0.1:1"), node("a", "127.0.0.1:2")}},
	}
	for _, tc := range invalid {
		t.Run("rejects "+tc.name, func(t *testing.T) {
			_, err := NewRouter(Config{Nodes: tc.nodes})
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("error %q does not name %s", err, tc.field)
			}
		})
	}
}
