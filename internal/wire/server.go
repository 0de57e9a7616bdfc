package wire

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"twodprof/internal/trace"
)

// Stats is the wire server's counter block. The embedding service
// exposes it on /metrics.
type Stats struct {
	Conns        atomic.Int64 // connections currently open
	ConnsTotal   atomic.Int64 // connections ever accepted
	Streams      atomic.Int64 // session streams currently open
	StreamsTotal atomic.Int64 // session streams ever begun
	Bytes        atomic.Int64 // chunk payload bytes received
	Rejects      atomic.Int64 // begins refused by the handler
	ConnErrors   atomic.Int64 // connections torn down on a protocol or I/O error
}

// ServerOptions tune a wire server. The zero value is usable.
type ServerOptions struct {
	// Window is the per-stream credit window in chunks (default
	// DefaultWindow).
	Window int
	// ReadTimeout bounds each read while at least one stream is active:
	// a peer that stalls longer mid-session has the connection torn
	// down, failing its streams. Idle connections (no streams) are not
	// bounded — the router keeps pooled connections open indefinitely.
	// Zero disables the bound.
	ReadTimeout time.Duration
	// Stats, when non-nil, receives the server's counters.
	Stats *Stats
}

// Server accepts wire connections and feeds every session stream into a
// Handler. One goroutine per connection reads and demultiplexes frames;
// one goroutine per stream decodes chunks and drives the handler's
// SessionSink, so a stream blocked on engine backpressure never stalls
// its siblings on the same connection.
type Server struct {
	h    Handler
	opts ServerOptions

	mu     sync.Mutex
	ln     net.Listener
	conns  map[*serverConn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer assembles a server around a handler.
func NewServer(h Handler, opts ServerOptions) *Server {
	if opts.Window <= 0 {
		opts.Window = DefaultWindow
	}
	if opts.Stats == nil {
		opts.Stats = &Stats{}
	}
	return &Server{h: h, opts: opts, conns: make(map[*serverConn]struct{})}
}

// Serve accepts connections on ln until Close. It returns nil after a
// Close-initiated shutdown, the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("wire: serve on closed server")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("wire: accept: %w", err)
		}
		sc := &serverConn{srv: s, c: c, br: bufio.NewReaderSize(c, 1<<16),
			streams: make(map[uint64]*serverStream), die: make(chan struct{})}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.conns[sc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.opts.Stats.Conns.Add(1)
		s.opts.Stats.ConnsTotal.Add(1)
		go sc.run()
	}
}

// Close stops accepting, tears down every connection (aborting the
// streams in flight) and waits for the per-connection goroutines.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]*serverConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, sc := range conns {
		sc.c.Close()
	}
	s.wg.Wait()
	return nil
}

// errConnClosed is the abort reason streams see when their connection
// dies under them.
var errConnClosed = errors.New("wire: connection closed")

// serverConn is one accepted connection: the demultiplexing reader plus
// the shared write side.
type serverConn struct {
	srv *Server
	c   net.Conn
	br  *bufio.Reader

	wmu  sync.Mutex
	wbuf []byte

	smu     sync.Mutex
	streams map[uint64]*serverStream

	die     chan struct{} // closed exactly once when the connection is dead
	dieOnce sync.Once
}

// streamMsg is one unit of work handed from the reader to a stream
// goroutine.
type streamMsg struct {
	typ  byte // msgChunk, msgEnd or msgAbort
	body []byte
}

// serverStream is one session stream's state.
type serverStream struct {
	id     uint64
	params BeginParams
	// inbox carries raw chunk/end/abort messages from the reader. Its
	// capacity (window+2) is what lets the reader never block: credit
	// accounting bounds unacked chunks at window, plus one end or abort
	// marker. An overfull inbox is a credit overrun — a protocol
	// violation that kills the connection.
	inbox chan streamMsg
}

// run is the connection's reader goroutine: handshake, then
// demultiplex frames until the connection dies.
func (sc *serverConn) run() {
	defer sc.srv.wg.Done()
	defer func() {
		sc.srv.mu.Lock()
		delete(sc.srv.conns, sc)
		sc.srv.mu.Unlock()
		sc.srv.opts.Stats.Conns.Add(-1)
	}()
	if err := sc.loop(); err != nil && !errors.Is(err, io.EOF) {
		sc.srv.opts.Stats.ConnErrors.Add(1)
	}
	sc.teardown()
}

// teardown kills the connection and releases every stream goroutine
// (each aborts its sink when it observes die).
func (sc *serverConn) teardown() {
	sc.dieOnce.Do(func() { close(sc.die) })
	sc.c.Close()
}

func (sc *serverConn) loop() error {
	// Handshake: the very first frame must be hello on stream 0.
	if sc.srv.opts.ReadTimeout > 0 {
		_ = sc.c.SetReadDeadline(time.Now().Add(sc.srv.opts.ReadTimeout))
	}
	f, err := readFrame(sc.br)
	if err != nil {
		return err
	}
	if f.Type != msgHello || f.Stream != 0 {
		return fmt.Errorf("%w: expected hello", ErrBadFrame)
	}
	if err := parseHello(f.Body); err != nil {
		return err
	}
	if err := sc.writeFrame(msgHelloAck, 0, appendHelloAck(nil, sc.srv.opts.Window)); err != nil {
		return err
	}

	for {
		// The read deadline only arms while streams are in flight: a
		// stalled mid-session peer is failed, an idle pooled connection
		// lives forever.
		sc.smu.Lock()
		active := len(sc.streams) > 0
		sc.smu.Unlock()
		var deadline time.Time
		if active && sc.srv.opts.ReadTimeout > 0 {
			deadline = time.Now().Add(sc.srv.opts.ReadTimeout)
		}
		_ = sc.c.SetReadDeadline(deadline)

		f, err := readFrame(sc.br)
		if err != nil {
			return err
		}
		switch f.Type {
		case msgBegin:
			if err := sc.beginStream(f); err != nil {
				return err
			}
		case msgChunk, msgEnd, msgAbort:
			sc.smu.Lock()
			st := sc.streams[f.Stream]
			sc.smu.Unlock()
			if st == nil {
				// A stream the server already finished (its sink failed,
				// say) still has the client's in-flight frames behind it:
				// the client sends up to its credit window before it
				// reads the error. Drop them — killing the connection
				// would fail every sibling session multiplexed on it.
				continue
			}
			select {
			case st.inbox <- streamMsg{typ: f.Type, body: f.Body}:
			default:
				return fmt.Errorf("%w: stream %d overran its credit window", ErrBadFrame, f.Stream)
			}
		default:
			return fmt.Errorf("%w: unexpected message type %d", ErrBadFrame, f.Type)
		}
	}
}

// beginStream registers a new stream and starts its goroutine.
func (sc *serverConn) beginStream(f Frame) error {
	var p BeginParams
	if err := json.Unmarshal(f.Body, &p); err != nil {
		return fmt.Errorf("%w: begin params: %v", ErrBadFrame, err)
	}
	if f.Stream == 0 {
		return fmt.Errorf("%w: begin on the control stream", ErrBadFrame)
	}
	sc.smu.Lock()
	if _, dup := sc.streams[f.Stream]; dup {
		sc.smu.Unlock()
		return fmt.Errorf("%w: begin reuses live stream %d", ErrBadFrame, f.Stream)
	}
	st := &serverStream{
		id:     f.Stream,
		params: p,
		inbox:  make(chan streamMsg, sc.srv.opts.Window+2),
	}
	sc.streams[f.Stream] = st
	sc.smu.Unlock()
	sc.srv.wg.Add(1)
	go sc.runStream(st)
	return nil
}

// removeStream forgets a finished stream.
func (sc *serverConn) removeStream(id uint64) {
	sc.smu.Lock()
	delete(sc.streams, id)
	sc.smu.Unlock()
}

// runStream is one stream's goroutine: open the handler session, then
// decode and apply chunks until end/abort, acking each applied chunk so
// the client's credits — and therefore the engine's backpressure —
// track what the profiler has actually consumed.
func (sc *serverConn) runStream(st *serverStream) {
	defer sc.srv.wg.Done()
	defer sc.removeStream(st.id)

	sink, err := sc.srv.h.Begin(st.params)
	if err != nil {
		sc.srv.opts.Stats.Rejects.Add(1)
		_ = sc.writeFrame(msgError, st.id, appendError(nil, toWireError(err)))
		return
	}
	sc.srv.opts.Stats.Streams.Add(1)
	sc.srv.opts.Stats.StreamsTotal.Add(1)
	defer sc.srv.opts.Stats.Streams.Add(-1)
	if err := sc.writeFrame(msgBeginAck, st.id, nil); err != nil {
		sink.Abort(errConnClosed)
		return
	}

	var batch trace.SoABatch
	for {
		select {
		case <-sc.die:
			sink.Abort(errConnClosed)
			return
		case m := <-st.inbox:
			switch m.typ {
			case msgChunk:
				if derr := DecodeChunk(&batch, m.body); derr != nil {
					sink.Abort(derr)
					_ = sc.writeFrame(msgError, st.id, appendError(nil, toWireError(derr)))
					sc.teardown() // framing is poisoned; no resynchronisation
					return
				}
				sc.srv.opts.Stats.Bytes.Add(int64(len(m.body)))
				if aerr := sink.Events(&batch, m.body); aerr != nil {
					_ = sc.writeFrame(msgError, st.id, appendError(nil, toWireError(aerr)))
					return
				}
				if aerr := sc.writeFrame(msgAck, st.id, appendAck(nil, 1)); aerr != nil {
					sink.Abort(errConnClosed)
					return
				}
			case msgEnd:
				sum, serr := sink.End()
				if serr != nil {
					_ = sc.writeFrame(msgError, st.id, appendError(nil, toWireError(serr)))
					return
				}
				_ = sc.writeFrame(msgDone, st.id, marshalJSON(sum))
				return
			case msgAbort:
				sink.Abort(errors.New("wire: stream aborted by client"))
				return
			}
		}
	}
}

// writeFrame frames and writes one message under the connection's write
// lock (stream goroutines interleave whole frames, never bytes).
func (sc *serverConn) writeFrame(typ byte, stream uint64, body []byte) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	sc.wbuf = appendFrame(sc.wbuf[:0], typ, stream, body)
	_, err := sc.c.Write(sc.wbuf)
	return err
}
