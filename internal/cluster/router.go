package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"twodprof/internal/core"
	"twodprof/internal/serve"
	"twodprof/internal/wire"
)

// Config holds the router's knobs.
type Config struct {
	// Addr is the router's HTTP listen address.
	Addr string
	// WireAddr, when non-empty, additionally accepts binary-protocol
	// sessions and relays each one to its owning node's wire port.
	WireAddr string
	// Nodes is the cluster membership. Fixed for the router's lifetime;
	// liveness within the set is tracked by heartbeat.
	Nodes []Node
	// Heartbeat is the health-probe cadence (and the detection budget:
	// one failed probe marks a node down). <= 0 takes DefaultHeartbeat.
	Heartbeat time.Duration
	// VNodes is the ring's virtual-node multiplier (<= 0 takes the
	// default).
	VNodes int
	// TenantQuota caps concurrently streaming sessions per tenant
	// (?tenant= / BeginParams.Tenant). Sessions without a tenant share
	// the "" bucket. <= 0 disables quotas.
	TenantQuota int
}

// Validate reports a non-nil error when the configuration is unusable.
// NewRouter also refuses a node with an empty Name or HTTPAddr, and a
// duplicate Name, when it builds the health registry.
func (c Config) Validate() error {
	if len(c.Nodes) == 0 {
		return fmt.Errorf("cluster: config needs at least one node (Nodes is empty)")
	}
	return nil
}

// Metrics is the router's counter registry (rendered on /metrics in
// the same exposition format the nodes use).
type Metrics struct {
	Shed         atomic.Int64 // sessions refused (quota, no node up, node shed)
	ProxyErrors  atomic.Int64 // routed requests that died on a node connection error
	ScatterNanos atomic.Int64 // cumulative scatter-gather wall time
	ScatterCount atomic.Int64 // scatter-gather operations served
	WireSessions atomic.Int64 // wire sessions currently relayed
	RoutedTotal  atomic.Int64 // sessions routed (both fronts)
}

// Router fronts a profiled cluster. It is stateless: every session
// lives wholly on the node the ring assigns, the router only relays
// and aggregates.
type Router struct {
	cfg     Config
	ring    *Ring
	reg     *Registry
	metrics Metrics

	http     *http.Server
	listener net.Listener
	wire     *wire.Server
	wireLn   net.Listener

	mu      sync.Mutex
	tenants map[string]int // tenant -> active sessions
	nextID  atomic.Int64   // generated session ids
}

// NewRouter builds a router over the node set.
func NewRouter(cfg Config) (*Router, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	reg, err := NewRegistry(cfg.Nodes, cfg.Heartbeat)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(cfg.Nodes))
	for i, n := range cfg.Nodes {
		names[i] = n.Name
	}
	ring, err := NewRing(names, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	rt := &Router{cfg: cfg, ring: ring, reg: reg, tenants: make(map[string]int)}
	rt.http = &http.Server{Addr: cfg.Addr, Handler: rt.Handler()}
	if cfg.WireAddr != "" {
		rt.wire = wire.NewServer(routerWireHandler{rt}, wire.ServerOptions{})
	}
	return rt, nil
}

// Handler returns the router's HTTP mux (exposed for tests).
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/ingest", rt.handleIngest)
	mux.HandleFunc("/v1/report", rt.handleReport)
	mux.HandleFunc("/v1/sessions", rt.handleSessions)
	mux.HandleFunc("/healthz", rt.handleReady)
	mux.HandleFunc("/healthz/live", rt.handleLive)
	mux.HandleFunc("/healthz/ready", rt.handleReady)
	mux.HandleFunc("/metrics", rt.handleMetrics)
	return mux
}

// Start binds the listeners and begins heartbeating.
func (rt *Router) Start() (<-chan error, error) {
	ln, err := net.Listen("tcp", rt.cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listening on %s: %w", rt.cfg.Addr, err)
	}
	rt.listener = ln
	if rt.wire != nil {
		wln, err := net.Listen("tcp", rt.cfg.WireAddr)
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("cluster: listening on wire %s: %w", rt.cfg.WireAddr, err)
		}
		rt.wireLn = wln
		go rt.wire.Serve(wln)
	}
	rt.reg.Start()
	errc := make(chan error, 1)
	go func() {
		if err := rt.http.Serve(ln); err != nil && err != http.ErrServerClosed {
			errc <- err
		}
		close(errc)
	}()
	return errc, nil
}

// Addr returns the bound HTTP address.
func (rt *Router) Addr() string {
	if rt.listener == nil {
		return rt.cfg.Addr
	}
	return rt.listener.Addr().String()
}

// WireAddr returns the bound wire address ("" when disabled).
func (rt *Router) WireAddr() string {
	if rt.wireLn == nil {
		return rt.cfg.WireAddr
	}
	return rt.wireLn.Addr().String()
}

// Shutdown stops the router. In-flight relayed sessions are torn down
// — the router is stateless, nothing needs draining; the nodes keep
// every session's profile.
func (rt *Router) Shutdown(ctx context.Context) error {
	if rt.wire != nil {
		rt.wire.Close()
	}
	err := rt.http.Shutdown(ctx)
	rt.reg.Stop()
	return err
}

// Registry exposes node health (for tests and cmd/profrouter logs).
func (rt *Router) Registry() *Registry { return rt.reg }

// acquireTenant admits one session against the tenant's quota.
func (rt *Router) acquireTenant(tenant string) bool {
	if rt.cfg.TenantQuota <= 0 {
		return true
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.tenants[tenant] >= rt.cfg.TenantQuota {
		return false
	}
	rt.tenants[tenant]++
	return true
}

func (rt *Router) releaseTenant(tenant string) {
	if rt.cfg.TenantQuota <= 0 {
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.tenants[tenant] > 0 {
		rt.tenants[tenant]--
	}
}

// sessionID returns the client's session id, or generates a routable
// one — the ring needs an id before the owning node can be chosen, so
// unlike a single node the router cannot defer generation.
func (rt *Router) sessionID(id string) string {
	if id != "" {
		return id
	}
	return fmt.Sprintf("r-%d", rt.nextID.Add(1))
}

// handleIngest relays POST /v1/ingest to the session's owning node,
// streaming the body straight through (the router never buffers a
// trace).
func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "ingest wants POST", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	id := rt.sessionID(q.Get("session"))
	tenant := q.Get("tenant")
	if !rt.acquireTenant(tenant) {
		rt.metrics.Shed.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, fmt.Sprintf("tenant %q at quota (%d active sessions)", tenant, rt.cfg.TenantQuota),
			http.StatusTooManyRequests)
		return
	}
	defer rt.releaseTenant(tenant)

	owner, ok := rt.ring.Owner(id, rt.reg.Up)
	if !ok {
		rt.metrics.Shed.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "no node available", http.StatusServiceUnavailable)
		return
	}
	node, _ := rt.reg.Get(owner)

	q.Set("session", id)
	target := "http://" + node.HTTPAddr + "/v1/ingest?" + q.Encode()
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, target, r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	req.Header.Set("Content-Type", r.Header.Get("Content-Type"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		rt.metrics.ProxyErrors.Add(1)
		rt.reg.MarkDown(owner, err)
		http.Error(w, fmt.Sprintf("node %s: %v", owner, err), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		rt.metrics.RoutedTotal.Add(1)
		rt.reg.nodes[owner].routed.Add(1)
	} else if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		rt.metrics.Shed.Add(1)
	}
	relayResponse(w, resp)
}

// relayResponse copies a node response to the client verbatim.
func relayResponse(w http.ResponseWriter, resp *http.Response) {
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// nodeGet performs one GET against a node, passively marking it down
// on connection errors.
func (rt *Router) nodeGet(node Node, path string) (*http.Response, error) {
	resp, err := http.Get("http://" + node.HTTPAddr + path)
	if err != nil {
		rt.metrics.ProxyErrors.Add(1)
		rt.reg.MarkDown(node.Name, err)
		return nil, err
	}
	return resp, nil
}

// handleReport serves a session report by proxying the owning node's
// response verbatim (?session=ID), falling back to a scatter across
// the up nodes when the owner misses (a rebalanced or pre-mark-down
// session may live elsewhere); or the merged group report (?group=G)
// via snapshot scatter-gather.
func (rt *Router) handleReport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "report wants GET", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	id, group := q.Get("session"), q.Get("group")
	switch {
	case id != "" && group != "":
		http.Error(w, "report wants ?session or ?group, not both", http.StatusBadRequest)
	case id != "":
		path := "/v1/report?" + url.Values{"session": {id}}.Encode()
		if owner, ok := rt.ring.Owner(id, rt.reg.Up); ok {
			node, _ := rt.reg.Get(owner)
			if resp, err := rt.nodeGet(node, path); err == nil {
				if resp.StatusCode != http.StatusNotFound {
					defer resp.Body.Close()
					relayResponse(w, resp)
					return
				}
				resp.Body.Close()
			}
		}
		// Owner miss: the session may predate a membership change or
		// live on a node that was down when it was routed.
		for _, node := range rt.reg.UpNodes() {
			resp, err := rt.nodeGet(node, path)
			if err != nil {
				continue
			}
			if resp.StatusCode == http.StatusNotFound {
				resp.Body.Close()
				continue
			}
			defer resp.Body.Close()
			relayResponse(w, resp)
			return
		}
		http.Error(w, fmt.Sprintf("unknown session %q", id), http.StatusNotFound)
	case group != "":
		rt.handleGroupReport(w, group)
	default:
		http.Error(w, "report wants ?session=ID or ?group=NAME", http.StatusBadRequest)
	}
}

// handleGroupReport gathers per-node group snapshots and merges them.
// The merge enforces the collector-group contract (same config and
// predictor, PC-disjoint members) and fails with 409 when the group
// violates it — cross-collector interleavings cannot be reconstructed,
// so the router never pretends otherwise (DESIGN.md §3g).
func (rt *Router) handleGroupReport(w http.ResponseWriter, group string) {
	start := time.Now()
	nodes := rt.reg.UpNodes()
	type result struct {
		snap   *core.Snapshot
		err    error
		status int // error status to relay (409 from a node-local merge)
	}
	results := make([]result, len(nodes))
	var wg sync.WaitGroup
	for i, node := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := rt.nodeGet(node, "/v1/snapshot?"+url.Values{"group": {group}}.Encode())
			if err != nil {
				return // down node: its sessions are simply absent
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				var snap core.Snapshot
				if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
					results[i] = result{err: fmt.Errorf("node %s: decoding snapshot: %w", node.Name, err),
						status: http.StatusBadGateway}
					return
				}
				results[i] = result{snap: &snap}
			case http.StatusNotFound:
				// No members of this group on that node.
			default:
				// A node-local merge conflict (409) is the group's own
				// fault and is relayed as such; anything else is a
				// gateway problem.
				status := http.StatusBadGateway
				if resp.StatusCode == http.StatusConflict {
					status = http.StatusConflict
				}
				body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
				results[i] = result{err: fmt.Errorf("node %s: %s: %s", node.Name, resp.Status, body),
					status: status}
			}
		}()
	}
	wg.Wait()
	rt.metrics.ScatterNanos.Add(time.Since(start).Nanoseconds())
	rt.metrics.ScatterCount.Add(1)

	var snaps []*core.Snapshot
	for _, res := range results {
		if res.err != nil {
			http.Error(w, res.err.Error(), res.status)
			return
		}
		if res.snap != nil {
			snaps = append(snaps, res.snap)
		}
	}
	if len(snaps) == 0 {
		http.Error(w, fmt.Sprintf("no sessions in group %q", group), http.StatusNotFound)
		return
	}
	merged, err := core.MergeSnapshots(snaps...)
	if err != nil {
		http.Error(w, fmt.Sprintf("group %q is not mergeable: %v", group, err), http.StatusConflict)
		return
	}
	writeJSON(w, http.StatusOK, merged.Report())
}

// NodeSession is one /v1/sessions entry in the router's cluster-wide
// listing: the node's own entry plus which node holds it.
type NodeSession struct {
	Node string `json:"node"`
	serve.SessionInfo
}

// handleSessions scatters /v1/sessions across the up nodes and
// flattens the result, ordered by node then session id.
func (rt *Router) handleSessions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "sessions wants GET", http.StatusMethodNotAllowed)
		return
	}
	start := time.Now()
	nodes := rt.reg.UpNodes()
	lists := make([][]NodeSession, len(nodes))
	var wg sync.WaitGroup
	for i, node := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := rt.nodeGet(node, "/v1/sessions")
			if err != nil || resp.StatusCode != http.StatusOK {
				if err == nil {
					resp.Body.Close()
				}
				return
			}
			defer resp.Body.Close()
			var infos []serve.SessionInfo
			if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
				return
			}
			out := make([]NodeSession, len(infos))
			for j, info := range infos {
				out[j] = NodeSession{Node: node.Name, SessionInfo: info}
			}
			lists[i] = out
		}()
	}
	wg.Wait()
	rt.metrics.ScatterNanos.Add(time.Since(start).Nanoseconds())
	rt.metrics.ScatterCount.Add(1)

	flat := make([]NodeSession, 0, 64)
	for _, l := range lists {
		flat = append(flat, l...)
	}
	sort.Slice(flat, func(i, j int) bool {
		if flat[i].Node != flat[j].Node {
			return flat[i].Node < flat[j].Node
		}
		return flat[i].ID < flat[j].ID
	})
	writeJSON(w, http.StatusOK, flat)
}

// handleLive: the router process is up.
func (rt *Router) handleLive(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReady: the router can do useful work while at least one node
// is routable.
func (rt *Router) handleReady(w http.ResponseWriter, r *http.Request) {
	if len(rt.reg.UpNodes()) == 0 {
		http.Error(w, "no node available", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleMetrics renders the router counters: shed and proxy-error
// totals, scatter-gather latency, per-node routing and health, and the
// router's own heap (the loadgen selftest asserts it stays flat across
// waves — the router must hold no per-session state).
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "metrics wants GET", http.StatusMethodNotAllowed)
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprintf(w, "twodprof_router_routed_total %d\n", rt.metrics.RoutedTotal.Load())
	fmt.Fprintf(w, "twodprof_router_shed_total %d\n", rt.metrics.Shed.Load())
	fmt.Fprintf(w, "twodprof_router_proxy_errors_total %d\n", rt.metrics.ProxyErrors.Load())
	fmt.Fprintf(w, "twodprof_router_wire_sessions %d\n", rt.metrics.WireSessions.Load())
	fmt.Fprintf(w, "twodprof_router_scatter_gathers_total %d\n", rt.metrics.ScatterCount.Load())
	avg := float64(0)
	if n := rt.metrics.ScatterCount.Load(); n > 0 {
		avg = float64(rt.metrics.ScatterNanos.Load()) / float64(n) / 1e6
	}
	fmt.Fprintf(w, "twodprof_router_scatter_latency_avg_ms %.3f\n", avg)
	fmt.Fprintf(w, "twodprof_router_heap_bytes %d\n", ms.HeapAlloc)
	for _, name := range rt.reg.order {
		st := rt.reg.nodes[name]
		up := 0
		if st.up.Load() {
			up = 1
		}
		fmt.Fprintf(w, "twodprof_router_node_up{node=%s} %d\n", strconv.Quote(name), up)
		fmt.Fprintf(w, "twodprof_router_node_routed_total{node=%s} %d\n", strconv.Quote(name), st.routed.Load())
		fmt.Fprintf(w, "twodprof_router_node_heartbeat_failures_total{node=%s} %d\n", strconv.Quote(name), st.hbFails.Load())
		fmt.Fprintf(w, "twodprof_router_node_markdowns_total{node=%s} %d\n", strconv.Quote(name), st.markDown.Load())
	}
}

// writeJSON mirrors the nodes' response rendering exactly (two-space
// indent, trailing newline) — group reports assembled by the router
// must be byte-compatible with node-rendered reports.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// routerWireHandler relays binary-protocol sessions: each begin opens
// a session on the owning node's wire port over the registry's pooled
// per-node connection, and the stream's chunks flow through untouched.
type routerWireHandler struct{ rt *Router }

// Begin implements wire.Handler.
func (h routerWireHandler) Begin(p wire.BeginParams) (wire.SessionSink, error) {
	rt := h.rt
	p.ID = rt.sessionID(p.ID)
	if !rt.acquireTenant(p.Tenant) {
		rt.metrics.Shed.Add(1)
		return nil, &wire.Error{Code: wire.CodeUnavailable, RetryAfter: time.Second,
			Msg: fmt.Sprintf("tenant %q at quota (%d active sessions)", p.Tenant, rt.cfg.TenantQuota)}
	}
	owner, ok := rt.ring.Owner(p.ID, rt.reg.Up)
	if !ok {
		rt.releaseTenant(p.Tenant)
		rt.metrics.Shed.Add(1)
		return nil, &wire.Error{Code: wire.CodeUnavailable, RetryAfter: time.Second,
			Msg: "no node available"}
	}
	sess, err := rt.reg.wireSession(owner, p)
	if err != nil {
		rt.releaseTenant(p.Tenant)
		var werr *wire.Error
		if errors.As(err, &werr) {
			if werr.Code == wire.CodeUnavailable {
				rt.metrics.Shed.Add(1)
			}
			return nil, werr
		}
		return nil, &wire.Error{Code: wire.CodeUnavailable, RetryAfter: time.Second,
			Msg: fmt.Sprintf("node %s: %v", owner, err)}
	}
	rt.metrics.RoutedTotal.Add(1)
	rt.metrics.WireSessions.Add(1)
	return &relaySink{rt: rt, tenant: p.Tenant, sess: sess, owner: owner}, nil
}

// relaySink forwards one relayed session's stream to the owning node.
type relaySink struct {
	rt     *Router
	tenant string
	sess   *wire.Session
	owner  string
	done   bool
}

func (rs *relaySink) finish() {
	if !rs.done {
		rs.done = true
		rs.rt.releaseTenant(rs.tenant)
		rs.rt.metrics.WireSessions.Add(-1)
	}
}

// Events forwards one chunk body to the node as received; the node's
// session decodes it. SendChunk waits for one of the node's credits,
// so the router acks a client's chunk only once it has gone to the
// node: node backpressure stalls the relay, which stalls the client.
func (rs *relaySink) Events(body []byte) error {
	err := rs.sess.SendChunk(body)
	if err != nil {
		rs.finish()
	}
	return err
}

// End completes the relayed session and hands back the node's summary.
func (rs *relaySink) End() (wire.Summary, error) {
	defer rs.finish()
	return rs.sess.End()
}

// Abort tears the relayed session down on the node.
func (rs *relaySink) Abort(reason error) {
	defer rs.finish()
	rs.sess.Abort()
}
