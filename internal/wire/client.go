package wire

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"twodprof/internal/trace"
)

// clientChunkEvents is how many events a Send packs per chunk frame.
// Well under MaxChunkEvents: the window times this is the per-stream
// buffering on the server side.
const clientChunkEvents = 4096

// Client is one wire connection multiplexing any number of concurrent
// sessions. A Client is safe for concurrent use; each Session belongs
// to one goroutine (its Send/End/Abort must not be called
// concurrently), matching the engine's single-feeder contract.
type Client struct {
	c      net.Conn
	window int

	wmu  sync.Mutex
	wbuf []byte
	body []byte

	mu      sync.Mutex
	streams map[uint64]*Session
	nextID  uint64
	err     error
	closed  bool

	done chan struct{} // closed when the reader goroutine exits
}

// Dial connects, performs the version handshake and starts the
// demultiplexing reader. timeout bounds the dial and the handshake
// (zero means no bound).
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("wire: dialing %s: %w", addr, err)
	}
	if timeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(timeout))
	}
	c := &Client{
		c:       conn,
		streams: make(map[uint64]*Session),
		done:    make(chan struct{}),
	}
	if err := c.writeFrame(msgHello, 0, appendHello(nil)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire: handshake: %w", err)
	}
	br := bufio.NewReaderSize(conn, 1<<16)
	f, err := readFrame(br)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire: handshake: %w", err)
	}
	if f.Type != msgHelloAck || f.Stream != 0 {
		conn.Close()
		return nil, fmt.Errorf("wire: handshake: unexpected reply type %d", f.Type)
	}
	w, err := parseHelloAck(f.Body)
	if err != nil {
		conn.Close()
		return nil, err
	}
	c.window = w
	_ = conn.SetDeadline(time.Time{})
	go c.read(br)
	return c, nil
}

// Window returns the server-announced per-stream credit window.
func (c *Client) Window() int { return c.window }

// Close tears the connection down; sessions in flight fail with a
// connection error.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.done
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.c.Close()
	<-c.done
	return err
}

// read is the demultiplexing reader: it routes every frame to its
// session's receive channel until the connection dies, then fails all
// registered sessions by closing their channels.
func (c *Client) read(br *bufio.Reader) {
	defer close(c.done)
	var rerr error
	for {
		f, err := readFrame(br)
		if err != nil {
			rerr = err
			break
		}
		c.mu.Lock()
		s := c.streams[f.Stream]
		c.mu.Unlock()
		if s == nil {
			// Late messages for a stream the session side already
			// abandoned (an ack racing an Abort) are expected; drop them.
			continue
		}
		body := make([]byte, len(f.Body))
		copy(body, f.Body)
		select {
		case s.recv <- recvMsg{typ: f.Type, body: body}:
		default:
			// The server overran the bounded per-session channel — a
			// protocol violation; kill the connection rather than stall
			// the reader for every other session on it.
			rerr = fmt.Errorf("%w: session %d flooded", ErrBadFrame, f.Stream)
			goto out
		}
	}
out:
	c.mu.Lock()
	if c.err == nil {
		c.err = rerr
	}
	sessions := make([]*Session, 0, len(c.streams))
	for _, s := range c.streams {
		sessions = append(sessions, s)
	}
	c.streams = make(map[uint64]*Session)
	c.mu.Unlock()
	c.c.Close()
	for _, s := range sessions {
		close(s.recv)
	}
}

// connErr names the connection's terminal error.
func (c *Client) connErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return fmt.Errorf("wire: connection failed: %w", c.err)
	}
	return errConnClosed
}

// writeFrame frames and writes one message under the write lock.
func (c *Client) writeFrame(typ byte, stream uint64, body []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = appendFrame(c.wbuf[:0], typ, stream, body)
	_, err := c.c.Write(c.wbuf)
	return err
}

// writeChunk encodes and writes one chunk frame, reusing the shared
// scratch buffers under the write lock. All events must belong to ctx.
func (c *Client) writeChunk(stream uint64, ctx trace.Context, events []trace.Event) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	body, err := appendChunk(c.body[:0], ctx, events)
	c.body = body
	if err != nil {
		return err
	}
	c.wbuf = appendFrame(c.wbuf[:0], msgChunk, stream, c.body)
	_, err = c.c.Write(c.wbuf)
	return err
}

// recvMsg is one server→client message routed to a session.
type recvMsg struct {
	typ  byte
	body []byte
}

// Session is one profiling session multiplexed over a Client.
type Session struct {
	c  *Client
	id uint64
	// recv carries this stream's server messages. Capacity bounds what a
	// correct server can have outstanding: beginAck + up to window acks
	// + done/error, with headroom.
	recv    chan recvMsg
	credits int
	dead    error // set once the stream has failed or finished
}

// Begin opens a session stream and waits for the server to accept it.
// A refusal surfaces as *Error (CodeUnavailable carries the server's
// Retry-After).
func (c *Client) Begin(p BeginParams) (*Session, error) {
	c.mu.Lock()
	if c.closed || c.err != nil {
		c.mu.Unlock()
		return nil, c.connErr()
	}
	c.nextID++
	s := &Session{
		c:       c,
		id:      c.nextID,
		recv:    make(chan recvMsg, c.window+8),
		credits: c.window,
	}
	c.streams[s.id] = s
	c.mu.Unlock()

	if err := c.writeFrame(msgBegin, s.id, marshalJSON(p)); err != nil {
		c.forget(s.id)
		return nil, fmt.Errorf("wire: sending begin: %w", err)
	}
	m, ok := <-s.recv
	if !ok {
		return nil, c.connErr()
	}
	switch m.typ {
	case msgBeginAck:
		return s, nil
	case msgError:
		c.forget(s.id)
		we, perr := parseError(m.body)
		if perr != nil {
			return nil, perr
		}
		return nil, we
	default:
		c.forget(s.id)
		return nil, fmt.Errorf("%w: unexpected begin reply type %d", ErrBadFrame, m.typ)
	}
}

// forget unregisters a stream (its late frames are dropped by the
// reader).
func (c *Client) forget(id uint64) {
	c.mu.Lock()
	delete(c.streams, id)
	c.mu.Unlock()
}

// handle folds one received message into the session during Send:
// acks refill credits, an error kills the stream.
func (s *Session) handle(m recvMsg) error {
	switch m.typ {
	case msgAck:
		n, err := parseAck(m.body)
		if err != nil {
			return err
		}
		s.credits += n
		return nil
	case msgError:
		we, perr := parseError(m.body)
		if perr != nil {
			return perr
		}
		return we
	default:
		return fmt.Errorf("%w: unexpected mid-stream message type %d", ErrBadFrame, m.typ)
	}
}

// Send streams a batch of events, chunking as needed. A chunk frame
// carries exactly one execution context, so besides the size cap Send
// splits at context boundaries; single-context streams (every event
// Ctx 0) chunk exactly as before. It blocks when the credit window is
// exhausted — that is how the owning node's engine backpressure
// reaches the producer. A non-nil error means the session is dead
// (*Error for a server-reported failure). A PC delta the chunk encoding
// cannot hold fails Send with an error wrapping trace.ErrPCDelta
// before that chunk is written, and aborts the stream.
func (s *Session) Send(events []trace.Event) error {
	if s.dead != nil {
		return s.dead
	}
	for len(events) > 0 {
		ctx := events[0].Ctx
		n := 1
		for n < len(events) && n < clientChunkEvents && events[n].Ctx == ctx {
			n++
		}
		// Refill credits from any acks already delivered, then block
		// until at least one credit is free.
		for {
			select {
			case m, ok := <-s.recv:
				if !ok {
					return s.fail(s.c.connErr())
				}
				if err := s.handle(m); err != nil {
					return s.fail(err)
				}
				continue
			default:
			}
			break
		}
		for s.credits == 0 {
			m, ok := <-s.recv
			if !ok {
				return s.fail(s.c.connErr())
			}
			if err := s.handle(m); err != nil {
				return s.fail(err)
			}
		}
		if err := s.c.writeChunk(s.id, ctx, events[:n]); err != nil {
			if errors.Is(err, trace.ErrPCDelta) {
				// Nothing of the chunk was written: abandon the stream so
				// the server fails the session instead of waiting on it.
				s.Abort()
			}
			return s.fail(fmt.Errorf("wire: sending chunk: %w", err))
		}
		s.credits--
		events = events[n:]
	}
	return nil
}

// End completes the stream and returns the server's final session
// summary.
func (s *Session) End() (Summary, error) {
	if s.dead != nil {
		return Summary{}, s.dead
	}
	if err := s.c.writeFrame(msgEnd, s.id, nil); err != nil {
		return Summary{}, s.fail(fmt.Errorf("wire: sending end: %w", err))
	}
	for {
		m, ok := <-s.recv
		if !ok {
			return Summary{}, s.fail(s.c.connErr())
		}
		switch m.typ {
		case msgAck:
			// Trailing acks for the last chunks; nothing left to send.
		case msgDone:
			s.c.forget(s.id)
			s.dead = fmt.Errorf("wire: session already completed")
			var sum Summary
			if err := json.Unmarshal(m.body, &sum); err != nil {
				return Summary{}, fmt.Errorf("wire: decoding summary: %w", err)
			}
			return sum, nil
		case msgError:
			we, perr := parseError(m.body)
			if perr != nil {
				return Summary{}, s.fail(perr)
			}
			return Summary{}, s.fail(we)
		default:
			return Summary{}, s.fail(fmt.Errorf("%w: unexpected end reply type %d", ErrBadFrame, m.typ))
		}
	}
}

// Abort abandons the stream; the server tears the session down as
// failed. Safe to call after an error.
func (s *Session) Abort() {
	if s.dead != nil {
		return
	}
	s.dead = fmt.Errorf("wire: session aborted")
	_ = s.c.writeFrame(msgAbort, s.id, nil)
	s.c.forget(s.id)
}

// fail marks the session dead and unregisters it.
func (s *Session) fail(err error) error {
	s.dead = err
	s.c.forget(s.id)
	return err
}
