package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"twodprof/internal/trace"
	"twodprof/internal/wal"
	"twodprof/internal/wire"
)

// Session log record types (DESIGN.md §3f): one wire chunk body as
// received, and the failed session's terminal record.
const (
	walChunk = 7
	walFail  = 4
)

// Wire message types (internal/wire/msg.go), for a test that speaks
// the protocol frame by frame.
const (
	msgHello    = 1
	msgHelloAck = 2
	msgBegin    = 3
	msgBeginAck = 4
	msgChunk    = 5
	msgError    = 9
)

// rawConn is a wire client that writes frames as given, so a test can
// send what wire.Session refuses to.
type rawConn struct {
	t *testing.T
	c net.Conn
}

// dialRaw connects to a wire port and completes the handshake.
func dialRaw(t *testing.T, addr string) rawConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	rc := rawConn{t, c}
	rc.write(msgHello, 0, binary.AppendUvarint([]byte("2DWP"), wire.Version))
	rc.expect(msgHelloAck)
	return rc
}

// write sends one frame: len[4] crc[4] type[1] stream[uvarint] body.
func (rc rawConn) write(typ byte, stream uint64, body []byte) {
	rc.t.Helper()
	payload := append(binary.AppendUvarint([]byte{typ}, stream), body...)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	if _, err := rc.c.Write(append(frame, payload...)); err != nil {
		rc.t.Fatal(err)
	}
}

// expect reads one frame and checks its type.
func (rc rawConn) expect(typ byte) wire.Frame {
	rc.t.Helper()
	_ = rc.c.SetReadDeadline(time.Now().Add(10 * time.Second))
	hdr := make([]byte, 8)
	if _, err := io.ReadFull(rc.c, hdr); err != nil {
		rc.t.Fatal(err)
	}
	frame := append(hdr, make([]byte, binary.LittleEndian.Uint32(hdr))...)
	if _, err := io.ReadFull(rc.c, frame[8:]); err != nil {
		rc.t.Fatal(err)
	}
	f, _, err := wire.DecodeFrame(frame)
	if err != nil {
		rc.t.Fatal(err)
	}
	if f.Type != typ {
		rc.t.Fatalf("frame of type %d, want %d", f.Type, typ)
	}
	return f
}

// chunkBody encodes events, all of context 0, as one wire chunk body:
// `uvarint count | uvarint ctx | uvarint basePC | deltas`.
func chunkBody(t testing.TB, events []trace.Event) []byte {
	t.Helper()
	b := binary.AppendUvarint(nil, uint64(len(events)))
	b = binary.AppendUvarint(b, 0)
	b = binary.AppendUvarint(b, uint64(events[0].PC))
	b, err := trace.AppendEventDeltas(b, events[0].PC, events)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBadChunkFailsOnlyItsStream: a chunk body that does not decode
// fails its own session as a bad request, straight to a node and
// through the router, whose connection to the node carries other
// sessions too. A sibling session on the same connection finishes with
// all its events, and the failed session's log keeps nothing of the
// bad body: its byte total is the valid chunk's alone. A body too long
// for any chunk fails its session the same way through the router,
// however many sessions its pooled node connection has carried.
func TestBadChunkFailsOnlyItsStream(t *testing.T) {
	events := kernelEvents(t, "fsm", "train")[:20000]
	good := chunkBody(t, events[:1000])
	dir := t.TempDir()
	node := startNode(t, dir)
	rt := startRouter(t, []Node{{Name: "n1", HTTPAddr: node.Addr(), WireAddr: node.WireAddr()}}, nil)

	for _, tc := range []struct{ name, addr string }{
		{"direct", node.WireAddr()},
		{"routed", rt.WireAddr()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := wire.Dial(tc.addr, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			bad, err := c.Begin(wire.BeginParams{ID: tc.name + "-bad"})
			if err != nil {
				t.Fatal(err)
			}
			sibling, err := c.Begin(wire.BeginParams{ID: tc.name + "-sibling"})
			if err != nil {
				t.Fatal(err)
			}
			half := len(events) / 2
			if err := sibling.Send(events[:half]); err != nil {
				t.Fatal(err)
			}
			for _, body := range [][]byte{good, {0xff, 0xff, 0xff}} {
				if err := bad.SendChunk(body); err != nil {
					t.Fatal(err)
				}
			}
			if err := sibling.Send(events[half:]); err != nil {
				t.Fatalf("sibling send after the bad chunk: %v", err)
			}
			var werr *wire.Error
			if _, err := bad.End(); !errors.As(err, &werr) || werr.Code != wire.CodeBadRequest {
				t.Fatalf("End after a bad chunk = %v, want a *wire.Error with code %s", err, wire.CodeBadRequest)
			}
			sum, err := sibling.End()
			if err != nil {
				t.Fatalf("sibling End: %v", err)
			}
			if sum.State != "done" || sum.Events != int64(len(events)) {
				t.Fatalf("sibling summary %+v, want done with %d events", sum, len(events))
			}

			recs, _, err := wal.ReadAll(filepath.Join(dir, tc.name+"-bad.wal"))
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 3 || recs[2].Type != walFail {
				t.Fatalf("failed session's log holds %d records, want begin + checkpoint + fail", len(recs))
			}
			var term struct{ Events, Bytes int64 }
			if err := json.Unmarshal(recs[2].Payload, &term); err != nil {
				t.Fatal(err)
			}
			if term.Events != 1000 || term.Bytes != int64(len(good)) {
				t.Fatalf("failed session's totals %+v, want the valid chunk's 1000 events and %d bytes", term, len(good))
			}
		})
	}

	// The largest body a client frame on stream 1 carries: past stream
	// id 127 the router's pooled connection to the node spends one more
	// byte on the stream id, so the body relayed as is would overrun the
	// node's frame limit and take that connection, and every session on
	// it, down.
	t.Run("routed-oversized", func(t *testing.T) {
		c, err := wire.Dial(rt.WireAddr(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for i := range 128 {
			warm, err := c.Begin(wire.BeginParams{ID: fmt.Sprintf("warm-%d", i)})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := warm.End(); err != nil {
				t.Fatal(err)
			}
		}
		sibling, err := c.Begin(wire.BeginParams{ID: "oversized-sibling"})
		if err != nil {
			t.Fatal(err)
		}
		half := len(events) / 2
		if err := sibling.Send(events[:half]); err != nil {
			t.Fatal(err)
		}
		raw := dialRaw(t, rt.WireAddr())
		params, _ := json.Marshal(wire.BeginParams{ID: "oversized"})
		raw.write(msgBegin, 1, params)
		raw.expect(msgBeginAck)
		raw.write(msgChunk, 1, make([]byte, wire.MaxFrame-2))
		if f := raw.expect(msgError); len(f.Body) == 0 || wire.Code(f.Body[0]) != wire.CodeBadRequest {
			t.Fatalf("error reply %q, want code %s", f.Body, wire.CodeBadRequest)
		}
		if err := sibling.Send(events[half:]); err != nil {
			t.Fatalf("sibling send after the oversized chunk: %v", err)
		}
		sum, err := sibling.End()
		if err != nil {
			t.Fatalf("sibling End: %v", err)
		}
		if sum.State != "done" || sum.Events != int64(len(events)) {
			t.Fatalf("sibling summary %+v, want done with %d events", sum, len(events))
		}
	})
}

// TestRelayForwardsChunkBodies: the router forwards a chunk body as
// received. One chunk of MaxChunkEvents events, more than a Send puts
// in a chunk, reaches a durable node's live log as one record holding
// the client's bytes.
func TestRelayForwardsChunkBodies(t *testing.T) {
	events := kernelEvents(t, "fsm", "train")[:wire.MaxChunkEvents]
	body := chunkBody(t, events)
	dir := t.TempDir()
	node := startNode(t, dir)
	rt := startRouter(t, []Node{{Name: "n1", HTTPAddr: node.Addr(), WireAddr: node.WireAddr()}}, nil)

	c, err := wire.Dial(rt.WireAddr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Begin(wire.BeginParams{ID: "whole"})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.SendChunk(body); err != nil {
		t.Fatal(err)
	}
	// Wait until the live log's chunk records hold every event sent.
	var input []wal.Record
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		recs, _, err := wal.ReadAll(filepath.Join(dir, "whole.wal"))
		if err != nil {
			t.Fatal(err)
		}
		input = recs[min(1, len(recs)):]
		logged := 0
		var b trace.SoABatch
		for _, rec := range input {
			if rec.Type != walChunk {
				t.Fatalf("live log record of type %d, want %d", rec.Type, walChunk)
			}
			if err := wire.DecodeChunk(&b, rec.Payload); err != nil {
				t.Fatal(err)
			}
			logged += b.Len()
		}
		if logged == len(events) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the live log holds %d of %d events", logged, len(events))
		}
	}
	if len(input) != 1 || !bytes.Equal(input[0].Payload, body) {
		t.Fatalf("the live log holds %d chunk records, want one holding the client's %d-byte body", len(input), len(body))
	}
	sum, err := sess.End()
	if err != nil {
		t.Fatal(err)
	}
	if sum.State != "done" || sum.Events != int64(len(events)) {
		t.Fatalf("summary %+v, want done with %d events", sum, len(events))
	}
}

// holdingNode is the wire side of a fake node: one type serving as
// handler and as every session's sink. Events counts each chunk and
// then holds it until release is closed.
type holdingNode struct {
	release chan struct{}
	chunks  *atomic.Int64
}

func (h holdingNode) Begin(wire.BeginParams) (wire.SessionSink, error) { return h, nil }
func (h holdingNode) Events([]byte) error {
	h.chunks.Add(1)
	<-h.release
	return nil
}
func (holdingNode) End() (wire.Summary, error) { return wire.Summary{State: "done"}, nil }
func (holdingNode) Abort(error)                {}

// TestRelayBackpressure: the relay keeps flow control end to end.
// While the node's sink holds the session's chunks, a client Send of
// more chunks than the router's and the node's credit windows hold
// blocks, and it completes once the sink lets go.
func TestRelayBackpressure(t *testing.T) {
	ready := http.NewServeMux()
	ready.HandleFunc("/healthz/ready", func(http.ResponseWriter, *http.Request) {})
	hs := httptest.NewServer(ready)
	t.Cleanup(hs.Close)
	node := holdingNode{release: make(chan struct{}), chunks: new(atomic.Int64)}
	srv := wire.NewServer(node, wire.ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(node.release) }) }
	t.Cleanup(release) // before srv.Close, whose stream goroutines wait in Events
	rt := startRouter(t, []Node{{Name: "fake", HTTPAddr: strings.TrimPrefix(hs.URL, "http://"), WireAddr: ln.Addr().String()}}, nil)

	c, err := wire.Dial(rt.WireAddr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Begin(wire.BeginParams{ID: "held"})
	if err != nil {
		t.Fatal(err)
	}
	// Send cuts 4096-event chunks: three windows' worth is more than
	// the two windows plus the chunk the router holds in its relay.
	const chunks = 3 * wire.DefaultWindow
	events := make([]trace.Event, chunks*4096)
	for i := range events {
		events[i] = trace.Event{PC: trace.PC(0x1000 + 4*(i%97)), Taken: i%3 == 0}
	}
	sent := make(chan error, 1)
	go func() { sent <- sess.Send(events) }()
	select {
	case err := <-sent:
		t.Fatalf("Send returned (%v) while the node held its chunks", err)
	case <-time.After(300 * time.Millisecond):
	}
	release()
	select {
	case err := <-sent:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Send never completed after the node let its chunks go")
	}
	if sum, err := sess.End(); err != nil || sum.State != "done" {
		t.Fatalf("End = %+v, %v", sum, err)
	}
	if n := node.chunks.Load(); n != chunks {
		t.Fatalf("the node received %d chunks, want %d", n, chunks)
	}
}
