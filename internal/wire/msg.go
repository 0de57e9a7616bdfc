package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"time"

	"twodprof/internal/trace"
)

// Message types. Stream 0 is the connection control stream (hello /
// helloAck only); every other message names the session stream it
// belongs to.
const (
	msgHello    byte = 1  // client→server  magic + protocol version
	msgHelloAck byte = 2  // server→client  version + per-stream credit window
	msgBegin    byte = 3  // client→server  open a session stream (JSON BeginParams)
	msgBeginAck byte = 4  // server→client  stream accepted
	msgChunk    byte = 5  // client→server  one event chunk (costs one credit)
	msgAck      byte = 6  // server→client  credits returned after chunks applied
	msgEnd      byte = 7  // client→server  clean end of stream
	msgDone     byte = 8  // server→client  final session summary (JSON Summary)
	msgError    byte = 9  // server→client  typed error; the stream is dead
	msgAbort    byte = 10 // client→server  abandon the stream mid-flight
)

// handshakeMagic opens every connection inside the msgHello body, so a
// stray client speaking the wrong protocol is refused at the first
// frame instead of misparsed.
const handshakeMagic = "2DWP"

// Version is the protocol version exchanged in the handshake. Peers
// refuse a mismatch outright — with a single implementation on both
// ends there is nothing to negotiate yet. Version 2 added the
// execution-context field to chunk frames and the aggregation begin
// parameter.
const Version = 2

// DefaultWindow is the per-stream credit window in chunks: a client may
// have this many chunks unacknowledged before it must wait. The window
// bounds per-stream server memory (window × chunk size) and is what
// carries engine backpressure to the client — a stalled session stops
// the acks, which stops the sends.
const DefaultWindow = 8

// MaxChunkEvents caps the events in a single chunk frame.
const MaxChunkEvents = 1 << 16

// maxChunkBody bounds every body DecodeChunk accepts (three header and
// MaxChunkEvents event uvarints). Framed on any stream id it stays far
// below MaxFrame, so a body SendChunk writes never breaks the framing.
const maxChunkBody = (3 + MaxChunkEvents) * binary.MaxVarintLen64

// appendHello encodes the msgHello body.
func appendHello(dst []byte) []byte {
	dst = append(dst, handshakeMagic...)
	return binary.AppendUvarint(dst, Version)
}

// parseHello validates a msgHello body.
func parseHello(body []byte) error {
	if len(body) < len(handshakeMagic) || string(body[:len(handshakeMagic)]) != handshakeMagic {
		return fmt.Errorf("%w: missing handshake magic", ErrBadFrame)
	}
	v, n := binary.Uvarint(body[len(handshakeMagic):])
	if n <= 0 {
		return fmt.Errorf("%w: bad handshake version", ErrBadFrame)
	}
	if v != Version {
		return fmt.Errorf("wire: protocol version %d, want %d", v, Version)
	}
	return nil
}

// appendHelloAck encodes the msgHelloAck body: version + credit window.
func appendHelloAck(dst []byte, window int) []byte {
	dst = binary.AppendUvarint(dst, Version)
	return binary.AppendUvarint(dst, uint64(window))
}

// parseHelloAck returns the server-announced credit window.
func parseHelloAck(body []byte) (int, error) {
	v, n := binary.Uvarint(body)
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad helloAck version", ErrBadFrame)
	}
	if v != Version {
		return 0, fmt.Errorf("wire: server speaks protocol version %d, want %d", v, Version)
	}
	w, m := binary.Uvarint(body[n:])
	if m <= 0 || w == 0 || w > 1<<16 {
		return 0, fmt.Errorf("%w: bad credit window", ErrBadFrame)
	}
	return int(w), nil
}

// appendChunk encodes a msgChunk body: `uvarint count | uvarint ctx |
// uvarint basePC | deltas`, where deltas is the shared BTR-family
// per-event varint stream (trace.AppendEventDeltas — byte-identical to
// a raw BTR2 chunk payload). A chunk belongs to exactly one execution
// context — Send splits at context boundaries — so the tag is one
// varint per frame, not per event. The error wraps trace.ErrPCDelta.
func appendChunk(dst []byte, ctx trace.Context, events []trace.Event) ([]byte, error) {
	basePC := events[0].PC
	dst = binary.AppendUvarint(dst, uint64(len(events)))
	dst = binary.AppendUvarint(dst, uint64(ctx))
	dst = binary.AppendUvarint(dst, uint64(basePC))
	return trace.AppendEventDeltas(dst, basePC, events)
}

// DecodeChunk decodes a msgChunk body into b, replacing its contents,
// with the context lane filled when the chunk's context is not 0.
// Decoding rides trace.Chunk.DecodeSoA, the same 8-wide kernel BTR2
// replay uses. The daemon's session decodes every chunk here, and so
// does its crash recovery over the logged bodies.
func DecodeChunk(b *trace.SoABatch, body []byte) error {
	count, n := binary.Uvarint(body)
	if n <= 0 {
		return fmt.Errorf("%w: bad chunk count", ErrBadFrame)
	}
	if count == 0 || count > MaxChunkEvents {
		return fmt.Errorf("%w: chunk count %d out of range", ErrBadFrame, count)
	}
	ctx, cn := binary.Uvarint(body[n:])
	if cn <= 0 || ctx > 1<<32-1 {
		return fmt.Errorf("%w: bad chunk context", ErrBadFrame)
	}
	n += cn
	basePC, m := binary.Uvarint(body[n:])
	if m <= 0 {
		return fmt.Errorf("%w: bad chunk base PC", ErrBadFrame)
	}
	c := trace.Chunk{
		Count:   int(count),
		BasePC:  trace.PC(basePC),
		Codec:   trace.CodecRaw,
		Payload: body[n+m:],
	}
	if err := c.DecodeSoA(b); err != nil {
		return fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	if ctx != 0 {
		b.GrowCtxs()
		for i := range b.Ctxs {
			b.Ctxs[i] = trace.Context(ctx)
		}
	}
	return nil
}

// appendAck encodes a msgAck body returning n credits.
func appendAck(dst []byte, n int) []byte {
	return binary.AppendUvarint(dst, uint64(n))
}

// parseAck returns the credits granted by a msgAck body.
func parseAck(body []byte) (int, error) {
	n, sz := binary.Uvarint(body)
	if sz <= 0 || n == 0 || n > 1<<20 {
		return 0, fmt.Errorf("%w: bad ack count", ErrBadFrame)
	}
	return int(n), nil
}

// Code classifies a protocol-level error, so clients (and the router in
// front of them) can map failures onto retry behaviour without string
// matching.
type Code uint32

const (
	// CodeBadRequest: the begin parameters or stream contents were
	// invalid; retrying the same request cannot succeed.
	CodeBadRequest Code = 1
	// CodeConflict: the session id is already taken.
	CodeConflict Code = 2
	// CodeUnavailable: the server is draining or at capacity; retry
	// after the advertised delay.
	CodeUnavailable Code = 3
	// CodeInternal: the server failed; the session is dead.
	CodeInternal Code = 4
	// CodeAborted: the stream failed mid-flight (peer crash, connection
	// cut); the session's partial state is on the owning node.
	CodeAborted Code = 5
)

// String names the code.
func (c Code) String() string {
	switch c {
	case CodeBadRequest:
		return "bad-request"
	case CodeConflict:
		return "conflict"
	case CodeUnavailable:
		return "unavailable"
	case CodeInternal:
		return "internal"
	case CodeAborted:
		return "aborted"
	default:
		return fmt.Sprintf("code-%d", uint32(c))
	}
}

// Error is a typed protocol error. Handlers return *Error to pick the
// code the client sees (anything else maps to CodeInternal); clients
// receive *Error from Begin/Send/End when the server refused or killed
// the stream. RetryAfter is only meaningful with CodeUnavailable — it
// is the binary twin of HTTP's 429 + Retry-After.
type Error struct {
	Code       Code
	RetryAfter time.Duration
	Msg        string
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("wire: %s: %s", e.Code, e.Msg)
}

// appendError encodes a msgError body: `uvarint code | uvarint
// retryAfterMillis | message`.
func appendError(dst []byte, e *Error) []byte {
	dst = binary.AppendUvarint(dst, uint64(e.Code))
	dst = binary.AppendUvarint(dst, uint64(e.RetryAfter.Milliseconds()))
	return append(dst, e.Msg...)
}

// parseError decodes a msgError body.
func parseError(body []byte) (*Error, error) {
	code, n := binary.Uvarint(body)
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad error code", ErrBadFrame)
	}
	ra, m := binary.Uvarint(body[n:])
	if m <= 0 {
		return nil, fmt.Errorf("%w: bad error retry-after", ErrBadFrame)
	}
	return &Error{
		Code:       Code(code),
		RetryAfter: time.Duration(ra) * time.Millisecond,
		Msg:        string(body[n+m:]),
	}, nil
}

// toWireError coerces any handler error into a typed protocol error.
func toWireError(err error) *Error {
	if we, ok := err.(*Error); ok {
		return we
	}
	return &Error{Code: CodeInternal, Msg: err.Error()}
}

// BeginParams opens a session stream. The zero value of every field is
// a valid "use the server default". Encoded as JSON inside msgBegin —
// the begin/done control messages run once per session, so their
// encoding is chosen for evolvability, not size; the per-event hot path
// (msgChunk) is fully binary.
type BeginParams struct {
	// ID is the client-chosen session id ("" lets the server assign
	// one). The router hashes it to pick the owning node.
	ID string `json:"id,omitempty"`
	// Tenant attributes the session for the router's per-tenant quotas.
	Tenant string `json:"tenant,omitempty"`
	// Group tags the session for group scatter-gather aggregation
	// (/v1/report?group=...).
	Group string `json:"group,omitempty"`
	// Metric overrides the profiling metric: "accuracy" or "bias".
	Metric string `json:"metric,omitempty"`
	// Predictor overrides the accuracy-metric branch predictor.
	Predictor string `json:"predictor,omitempty"`
	// SliceSize overrides the profiling slice size.
	SliceSize int64 `json:"sliceSize,omitempty"`
	// Aggregation selects the multi-context aggregation mode ("shared"
	// or "private"; "" means shared).
	Aggregation string `json:"aggregation,omitempty"`
	// Kernel names the bundled program behind the stream for the static
	// prefilter column.
	Kernel string `json:"kernel,omitempty"`
}

// Summary is the terminal session summary delivered in msgDone. It
// mirrors the JSON body HTTP ingest returns, field for field.
type Summary struct {
	Session        string  `json:"session"`
	State          string  `json:"state"`
	Events         int64   `json:"events"`
	Bytes          int64   `json:"bytes"`
	Slices         int64   `json:"slices"`
	Branches       int     `json:"branches"`
	Overall        float64 `json:"overall"`
	InputDependent int     `json:"inputDependent"`
	Error          string  `json:"error,omitempty"`
}

// marshalJSON panics only on unmarshalable types, which these fixed
// structs are not.
func marshalJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// SessionSink consumes one session stream on the server side. The wire
// server calls it from the stream's own goroutine: Events for each
// chunk (in stream order; blocking here is the backpressure path that
// stops the client), then exactly one of End or Abort.
type SessionSink interface {
	// Events takes one chunk body as received: a node's session decodes
	// it, a router forwards it. A body that does not decode is answered
	// with an *Error of CodeBadRequest. An error ends this stream only;
	// its siblings on the connection go on.
	Events(body []byte) error
	// End completes the session and returns its final summary.
	End() (Summary, error)
	// Abort tears the session down after a mid-stream failure.
	Abort(reason error)
}

// Handler accepts session streams; internal/serve implements it with
// its ingest engine, and the router implements it by forwarding to the
// owning node.
type Handler interface {
	// Begin opens a session. Returning *Error picks the refusal code the
	// client sees; any other error maps to CodeInternal.
	Begin(p BeginParams) (SessionSink, error)
}
