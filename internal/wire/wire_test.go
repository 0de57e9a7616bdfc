package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"twodprof/internal/trace"
)

// testSink records everything a stream delivers.
type testSink struct {
	mu      sync.Mutex
	events  []trace.Event
	bytes   int64
	ended   bool
	aborted error
	endErr  error
	// block, when non-nil, is held closed by Events to simulate engine
	// backpressure.
	block chan struct{}
}

func (ts *testSink) Events(b *trace.SoABatch, rawBytes int) error {
	if ts.block != nil {
		<-ts.block
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.events = b.AppendEvents(ts.events)
	ts.bytes += int64(rawBytes)
	return nil
}

func (ts *testSink) End() (Summary, error) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.endErr != nil {
		return Summary{}, ts.endErr
	}
	ts.ended = true
	return Summary{Session: "t", State: "done", Events: int64(len(ts.events))}, nil
}

func (ts *testSink) Abort(reason error) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.aborted = reason
}

// testHandler hands out sinks by session id and can refuse begins.
type testHandler struct {
	mu     sync.Mutex
	sinks  map[string]*testSink
	reject error
}

func (th *testHandler) Begin(p BeginParams) (SessionSink, error) {
	th.mu.Lock()
	defer th.mu.Unlock()
	if th.reject != nil {
		return nil, th.reject
	}
	ts := &testSink{}
	if th.sinks == nil {
		th.sinks = make(map[string]*testSink)
	}
	th.sinks[p.ID] = ts
	return ts, nil
}

func (th *testHandler) sink(id string) *testSink {
	th.mu.Lock()
	defer th.mu.Unlock()
	return th.sinks[id]
}

// startWire boots a server on loopback and returns its address plus the
// handler.
func startWire(t *testing.T, opts ServerOptions) (*testHandler, string, *Server) {
	t.Helper()
	th := &testHandler{}
	srv := NewServer(th, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return th, ln.Addr().String(), srv
}

func testEvents(n int) []trace.Event {
	events := make([]trace.Event, n)
	for i := range events {
		events[i] = trace.Event{PC: trace.PC(i%97) * 3, Taken: i%3 == 0}
	}
	return events
}

func TestFrameRoundTrip(t *testing.T) {
	cases := []Frame{
		{Type: msgHello, Stream: 0, Body: []byte("2DWP\x01")},
		{Type: msgChunk, Stream: 1 << 40, Body: make([]byte, 10000)},
		{Type: msgEnd, Stream: 7, Body: nil},
	}
	var buf []byte
	for _, c := range cases {
		buf = appendFrame(buf, c.Type, c.Stream, c.Body)
	}
	for _, c := range cases {
		f, n, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if f.Type != c.Type || f.Stream != c.Stream || len(f.Body) != len(c.Body) {
			t.Fatalf("frame mismatch: got %+v want %+v", f, c)
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes", len(buf))
	}
}

func TestFrameCorruption(t *testing.T) {
	frame := appendFrame(nil, msgChunk, 3, []byte("payload"))
	// Truncations → short frame.
	for i := 0; i < len(frame); i++ {
		if _, _, err := DecodeFrame(frame[:i]); !errors.Is(err, ErrShortFrame) {
			t.Fatalf("truncated at %d: err = %v, want ErrShortFrame", i, err)
		}
	}
	// Any single corrupted byte must fail checksum (or size) validation,
	// never decode silently.
	for i := 0; i < len(frame); i++ {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x40
		f, _, err := DecodeFrame(mut)
		if err == nil && (f.Type != msgChunk || f.Stream != 3 || string(f.Body) != "payload") {
			t.Fatalf("byte %d corrupted: decoded to different frame without error", i)
		}
		if i >= frameHeader && err == nil {
			t.Fatalf("byte %d (payload) corrupted: no checksum error", i)
		}
	}
}

// chunkBody is appendChunk for events whose PC deltas the encoding
// holds.
func chunkBody(ctx trace.Context, events []trace.Event) []byte {
	body, err := appendChunk(nil, ctx, events)
	if err != nil {
		panic(err)
	}
	return body
}

// decodeChunkEvents decodes a chunk body and converts it back to
// events for comparison.
func decodeChunkEvents(body []byte) ([]trace.Event, error) {
	var b trace.SoABatch
	if err := decodeChunk(&b, body); err != nil {
		return nil, err
	}
	return b.AppendEvents(nil), nil
}

func TestChunkRoundTrip(t *testing.T) {
	for _, ctx := range []trace.Context{0, 7} {
		events := testEvents(1000)
		for i := range events {
			events[i].Ctx = ctx
		}
		body, err := appendChunk(nil, ctx, events)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeChunkEvents(body)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(events) {
			t.Fatalf("ctx %d: decoded %d events, want %d", ctx, len(got), len(events))
		}
		for i := range got {
			if got[i] != events[i] {
				t.Fatalf("ctx %d, event %d: got %+v want %+v", ctx, i, got[i], events[i])
			}
		}
	}
}

func TestClientServerSession(t *testing.T) {
	th, addr, _ := startWire(t, ServerOptions{})
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	s, err := c.Begin(BeginParams{ID: "sess-1", Metric: "bias"})
	if err != nil {
		t.Fatal(err)
	}
	events := testEvents(20000)
	if err := s.Send(events); err != nil {
		t.Fatal(err)
	}
	sum, err := s.End()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Events != int64(len(events)) {
		t.Fatalf("summary events %d, want %d", sum.Events, len(events))
	}
	ts := th.sink("sess-1")
	if len(ts.events) != len(events) {
		t.Fatalf("sink got %d events, want %d", len(ts.events), len(events))
	}
	for i := range events {
		if ts.events[i] != events[i] {
			t.Fatalf("event %d: got %+v want %+v", i, ts.events[i], events[i])
		}
	}
	if !ts.ended {
		t.Fatal("sink never saw End")
	}
	if ts.bytes <= 0 {
		t.Fatal("sink saw no raw bytes")
	}
}

func TestMultiplexedSessions(t *testing.T) {
	th, addr, _ := startWire(t, ServerOptions{})
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := c.Begin(BeginParams{ID: fmt.Sprintf("m-%d", i)})
			if err != nil {
				errs[i] = err
				return
			}
			if err := s.Send(testEvents(5000)); err != nil {
				errs[i] = err
				return
			}
			if _, err := s.End(); err != nil {
				errs[i] = err
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		ts := th.sink(fmt.Sprintf("m-%d", i))
		if ts == nil || len(ts.events) != 5000 {
			t.Fatalf("session m-%d incomplete on the server", i)
		}
	}
}

// TestBlockedStreamDoesNotStallSiblings: one stream's sink blocks (a
// saturated engine); another session on the same connection must still
// complete — the per-stream inbox decouples them from the shared
// reader.
func TestBlockedStreamDoesNotStallSiblings(t *testing.T) {
	th, addr, _ := startWire(t, ServerOptions{})
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	slow, err := c.Begin(BeginParams{ID: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	th.sink("slow").block = block
	if err := slow.Send(testEvents(100)); err != nil {
		t.Fatal(err) // one chunk fits the window; Send itself need not block
	}

	fast, err := c.Begin(BeginParams{ID: "fast"})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		if err := fast.Send(testEvents(50000)); err != nil {
			done <- err
			return
		}
		_, err := fast.End()
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fast session stalled behind the blocked one")
	}
	close(block)
	if _, err := slow.End(); err != nil {
		t.Fatal(err)
	}
}

// TestCreditBackpressure: with the sink blocked, a client can have at
// most window chunks in flight; Send on the window+1'th chunk must
// block until the sink drains.
func TestCreditBackpressure(t *testing.T) {
	th, addr, _ := startWire(t, ServerOptions{Window: 2})
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Window() != 2 {
		t.Fatalf("window = %d, want 2", c.Window())
	}

	s, err := c.Begin(BeginParams{ID: "bp"})
	if err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	th.sink("bp").block = block

	sent := make(chan struct{})
	go func() {
		// 3 full chunks: the third must wait for an ack that cannot come
		// while the sink blocks.
		_ = s.Send(testEvents(3 * clientChunkEvents))
		close(sent)
	}()
	select {
	case <-sent:
		t.Fatal("Send returned while the window was exhausted and the sink blocked")
	case <-time.After(300 * time.Millisecond):
	}
	close(block)
	select {
	case <-sent:
	case <-time.After(10 * time.Second):
		t.Fatal("Send never unblocked after the sink drained")
	}
	if _, err := s.End(); err != nil {
		t.Fatal(err)
	}
}

func TestBeginRejected(t *testing.T) {
	th, addr, _ := startWire(t, ServerOptions{})
	th.reject = &Error{Code: CodeUnavailable, RetryAfter: 1500 * time.Millisecond, Msg: "at capacity"}
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Begin(BeginParams{ID: "nope"})
	var we *Error
	if !errors.As(err, &we) {
		t.Fatalf("Begin error = %v, want *wire.Error", err)
	}
	if we.Code != CodeUnavailable || we.RetryAfter != 1500*time.Millisecond || we.Msg != "at capacity" {
		t.Fatalf("error round trip: %+v", we)
	}

	// The connection survives a rejection: clear the refusal and begin
	// again.
	th.reject = nil
	s, err := c.Begin(BeginParams{ID: "yes"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.End(); err != nil {
		t.Fatal(err)
	}
}

func TestAbortReachesSink(t *testing.T) {
	th, addr, _ := startWire(t, ServerOptions{})
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.Begin(BeginParams{ID: "ab"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Send(testEvents(10)); err != nil {
		t.Fatal(err)
	}
	s.Abort()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ts := th.sink("ab")
		ts.mu.Lock()
		aborted := ts.aborted
		ts.mu.Unlock()
		if aborted != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sink never saw Abort")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSendRejectsUnencodableDelta: a PC delta of 2^62 or more does not
// fit the chunk encoding. Send fails with trace.ErrPCDelta before the
// chunk holding it is written and aborts the stream, so the server
// keeps exactly the events sent before it and never sees a corrupted
// PC.
func TestSendRejectsUnencodableDelta(t *testing.T) {
	th, addr, _ := startWire(t, ServerOptions{})
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.Begin(BeginParams{ID: "far"})
	if err != nil {
		t.Fatal(err)
	}
	sent := testEvents(10)
	if err := s.Send(sent); err != nil {
		t.Fatal(err)
	}
	far := []trace.Event{{PC: 0x10}, {PC: 0xC000000000000010}, {PC: 0x20}}
	if err := s.Send(far); !errors.Is(err, trace.ErrPCDelta) {
		t.Fatalf("Send = %v, want an error wrapping trace.ErrPCDelta", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		ts := th.sink("far")
		ts.mu.Lock()
		aborted, got := ts.aborted, append([]trace.Event(nil), ts.events...)
		ts.mu.Unlock()
		if aborted != nil {
			if len(got) != len(sent) {
				t.Fatalf("server applied %d events, want the %d sent before the bad chunk", len(got), len(sent))
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sink never saw the stream aborted")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// failingSink refuses every chunk, as a node's ingest does when its
// session fails mid-stream.
type failingSink struct{}

func (failingSink) Events(*trace.SoABatch, int) error { return errors.New("sink failed") }
func (failingSink) End() (Summary, error)             { return Summary{}, nil }
func (failingSink) Abort(error)                       {}

// failingHandler hands session "bad" a failingSink and every other
// session a recording one.
type failingHandler struct{ testHandler }

func (h *failingHandler) Begin(p BeginParams) (SessionSink, error) {
	if p.ID == "bad" {
		return failingSink{}, nil
	}
	return h.testHandler.Begin(p)
}

// TestLateFramesForFinishedStreamDropped: once the server has failed a
// stream, the client's frames already in flight for it arrive late.
// The server drops them; a sibling stream on the same connection
// completes.
func TestLateFramesForFinishedStreamDropped(t *testing.T) {
	srv := NewServer(&failingHandler{}, ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	send := func(typ byte, stream uint64, body []byte) {
		t.Helper()
		if _, err := conn.Write(appendFrame(nil, typ, stream, body)); err != nil {
			t.Fatal(err)
		}
	}
	// next reads frames until one of type typ on stream, skipping acks.
	next := func(typ byte, stream uint64) {
		t.Helper()
		for {
			f, err := readFrame(br)
			if err != nil {
				t.Fatalf("waiting for message %d on stream %d: %v", typ, stream, err)
			}
			if f.Type == typ && f.Stream == stream {
				return
			}
			if f.Type != msgAck && f.Type != msgBeginAck {
				t.Fatalf("unexpected message %d on stream %d", f.Type, f.Stream)
			}
		}
	}
	send(msgHello, 0, appendHello(nil))
	next(msgHelloAck, 0)
	send(msgBegin, 1, marshalJSON(BeginParams{ID: "bad"}))
	send(msgBegin, 2, marshalJSON(BeginParams{ID: "good"}))
	chunk := chunkBody(0, testEvents(10))
	send(msgChunk, 1, chunk)
	next(msgError, 1)
	deadline := time.Now().Add(5 * time.Second)
	for live := true; live; {
		srv.mu.Lock()
		live = false
		for sc := range srv.conns {
			sc.smu.Lock()
			_, ok := sc.streams[1]
			sc.smu.Unlock()
			live = live || ok
		}
		srv.mu.Unlock()
		if live && time.Now().After(deadline) {
			t.Fatal("server never retired the failed stream")
		}
		time.Sleep(time.Millisecond)
	}
	send(msgChunk, 1, chunk) // in flight when the client read the error
	send(msgChunk, 2, chunk)
	send(msgEnd, 2, nil)
	next(msgDone, 2)
}

// TestConnDropAbortsSessions: cutting the TCP connection mid-stream
// aborts the server-side sink and fails the client session with a
// connection error, never a hang.
func TestConnDropAbortsSessions(t *testing.T) {
	th, addr, _ := startWire(t, ServerOptions{})
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Begin(BeginParams{ID: "drop"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Send(testEvents(10)); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := s.End(); err == nil {
		t.Fatal("End succeeded over a closed connection")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		ts := th.sink("drop")
		ts.mu.Lock()
		aborted := ts.aborted
		ts.mu.Unlock()
		if aborted != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server sink never saw the connection drop")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestGarbageConnection: a peer that speaks anything but a valid hello
// is refused without panicking the server.
func TestGarbageConnection(t *testing.T) {
	_, addr, _ := startWire(t, ServerOptions{})
	for _, garbage := range [][]byte{
		[]byte("GET / HTTP/1.1\r\n\r\n"),
		{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}, // oversized length
		appendFrame(nil, msgChunk, 1, []byte("no hello")),
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.Write(garbage)
		buf := make([]byte, 64)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		// The server must close on us (EOF) rather than answer.
		if n, _ := conn.Read(buf); n != 0 {
			t.Fatalf("server answered %d bytes to garbage %q", n, garbage[:8])
		}
		conn.Close()
	}
	// And a clean session still works afterwards.
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.Begin(BeginParams{ID: "after"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.End(); err != nil {
		t.Fatal(err)
	}
}

func TestServerCloseFailsClients(t *testing.T) {
	_, addr, srv := startWire(t, ServerOptions{})
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.Begin(BeginParams{ID: "victim"})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	// Everything now fails with a connection error; nothing hangs.
	err = s.Send(testEvents(clientChunkEvents * 64))
	if err == nil {
		_, err = s.End()
	}
	if err == nil {
		t.Fatal("session survived server close")
	}
}
