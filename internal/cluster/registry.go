package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"twodprof/internal/wire"
)

// DefaultHeartbeat is the node health-probe cadence.
const DefaultHeartbeat = 500 * time.Millisecond

// Node names one profiled member of the cluster.
type Node struct {
	// Name is the ring identity. Reusing a name across cluster restarts
	// keeps the session assignment stable even if addresses move.
	Name string
	// HTTPAddr is the node's HTTP host:port (ingest, reports, health).
	HTTPAddr string
	// WireAddr is the node's binary-protocol host:port. Empty means the
	// node is HTTP-only and wire sessions routed to it are refused.
	WireAddr string
}

// nodeState is the router's live view of one node.
type nodeState struct {
	node Node

	up       atomic.Bool
	mu       sync.Mutex
	lastErr  string       // why the node is down, for /metrics debugging
	wc       *wire.Client // pooled wire conn, lazily dialed, dropped on error
	routed   atomic.Int64 // sessions routed to this node
	hbFails  atomic.Int64 // heartbeat probes that failed
	markDown atomic.Int64 // times the node transitioned up -> down
}

// Registry tracks node membership and health. Health is active — a
// probe of every node's /healthz/ready each heartbeat interval — plus
// passive mark-down when a proxied request hits a connection error, so
// a crash is noticed at the next routed request even between probes. A
// single failed probe marks the node down (the interval is the
// detection budget; erring toward routing around a healthy node beats
// streaming sessions into a dead one), and a single good probe brings
// it back.
//
// The probe timeout is deliberately looser than the interval: a dead
// node fails fast (connection refused), so detection speed does not
// depend on the timeout, while a node that is merely saturated by
// ingest load answers slowly and must not be declared dead for it.
type Registry struct {
	interval time.Duration
	client   *http.Client
	nodes    map[string]*nodeState
	order    []string

	stop chan struct{}
	done chan struct{}
}

// NewRegistry builds the node table; Start begins probing.
func NewRegistry(nodes []Node, interval time.Duration) (*Registry, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: registry needs at least one node")
	}
	if interval <= 0 {
		interval = DefaultHeartbeat
	}
	probeTimeout := 2 * interval
	if probeTimeout < time.Second {
		probeTimeout = time.Second
	}
	reg := &Registry{
		interval: interval,
		client:   &http.Client{Timeout: probeTimeout},
		nodes:    make(map[string]*nodeState, len(nodes)),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, n := range nodes {
		if n.Name == "" {
			return nil, fmt.Errorf("cluster: node at %q has an empty Name", n.HTTPAddr)
		}
		if n.HTTPAddr == "" {
			return nil, fmt.Errorf("cluster: node %q has an empty HTTPAddr", n.Name)
		}
		if _, dup := reg.nodes[n.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate node Name %q", n.Name)
		}
		st := &nodeState{node: n}
		st.up.Store(true) // optimistic: first probe corrects within one interval
		reg.nodes[n.Name] = st
		reg.order = append(reg.order, n.Name)
	}
	return reg, nil
}

// Start probes every node once synchronously (so callers observe real
// liveness immediately) and then keeps probing in the background.
func (reg *Registry) Start() {
	reg.probeAll()
	go func() {
		defer close(reg.done)
		t := time.NewTicker(reg.interval)
		defer t.Stop()
		for {
			select {
			case <-reg.stop:
				return
			case <-t.C:
				reg.probeAll()
			}
		}
	}()
}

// Stop ends probing and closes pooled node connections.
func (reg *Registry) Stop() {
	close(reg.stop)
	<-reg.done
	for _, st := range reg.nodes {
		st.mu.Lock()
		if st.wc != nil {
			st.wc.Close()
			st.wc = nil
		}
		st.mu.Unlock()
	}
}

// probeAll checks every node's readiness in parallel (a hung node must
// not delay detection on its siblings).
func (reg *Registry) probeAll() {
	var wg sync.WaitGroup
	for _, name := range reg.order {
		st := reg.nodes[name]
		wg.Add(1)
		go func() {
			defer wg.Done()
			reg.probe(st)
		}()
	}
	wg.Wait()
}

func (reg *Registry) probe(st *nodeState) {
	resp, err := reg.client.Get("http://" + st.node.HTTPAddr + "/healthz/ready")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			st.up.Store(true)
			return
		}
		err = fmt.Errorf("readiness %s", resp.Status)
	}
	st.hbFails.Add(1)
	reg.markDown(st, err)
}

// MarkDown records a passive failure observation (proxy connection
// error) against a node.
func (reg *Registry) MarkDown(name string, err error) {
	if st := reg.nodes[name]; st != nil {
		reg.markDown(st, err)
	}
}

func (reg *Registry) markDown(st *nodeState, err error) {
	if st.up.CompareAndSwap(true, false) {
		st.markDown.Add(1)
	}
	st.mu.Lock()
	st.lastErr = err.Error()
	st.mu.Unlock()
	// The pooled wire connection is left alone: a mark-down triggered by
	// a slow probe must not tear down healthy in-flight sessions. If the
	// node really died, the conn's relays fail on their own and
	// dropConn retires it at the next begin.
}

// dropConn retires a pooled wire connection observed broken, so the
// next session dials fresh.
func (reg *Registry) dropConn(st *nodeState, wc *wire.Client) {
	st.mu.Lock()
	if st.wc == wc && wc != nil {
		wc.Close()
		st.wc = nil
	}
	st.mu.Unlock()
}

// Up reports whether a node is currently routable.
func (reg *Registry) Up(name string) bool {
	st := reg.nodes[name]
	return st != nil && st.up.Load()
}

// Get returns a node's record.
func (reg *Registry) Get(name string) (Node, bool) {
	st := reg.nodes[name]
	if st == nil {
		return Node{}, false
	}
	return st.node, true
}

// UpNodes returns the currently-routable nodes in membership order.
func (reg *Registry) UpNodes() []Node {
	var out []Node
	for _, name := range reg.order {
		if st := reg.nodes[name]; st.up.Load() {
			out = append(out, st.node)
		}
	}
	return out
}

// wireSession leases the node's pooled wire client and opens one
// session on it. Dial errors and begin-time connection errors mark the
// node down passively.
func (reg *Registry) wireSession(name string, p wire.BeginParams) (*wire.Session, error) {
	st := reg.nodes[name]
	if st == nil {
		return nil, fmt.Errorf("cluster: unknown node %q", name)
	}
	if st.node.WireAddr == "" {
		return nil, &wire.Error{Code: wire.CodeUnavailable,
			Msg: fmt.Sprintf("node %s has no wire listener", name)}
	}
	st.mu.Lock()
	wc := st.wc
	if wc == nil {
		var err error
		wc, err = wire.Dial(st.node.WireAddr, reg.interval)
		if err != nil {
			st.mu.Unlock()
			reg.markDown(st, err)
			return nil, err
		}
		st.wc = wc
	}
	st.mu.Unlock()

	sess, err := wc.Begin(p)
	if err != nil {
		// A typed refusal (shed, duplicate id, bad params) is the node
		// answering normally; anything else is the connection dying.
		var werr *wire.Error
		if !errors.As(err, &werr) {
			reg.dropConn(st, wc)
			reg.markDown(st, err)
		}
		return nil, err
	}
	st.routed.Add(1)
	return sess, nil
}
