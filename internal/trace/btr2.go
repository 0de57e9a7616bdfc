package trace

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Chunked binary trace format ("BTR2").
//
// BTR1 is a single delta-encoded varint stream: decoding is strictly
// sequential because every event's PC depends on the previous event's.
// BTR2 keeps the same per-event encoding but frames the stream into
// self-contained chunks so decoding parallelises:
//
//	header:  magic "BTR2" | uvarint flags (reserved, 0)
//	chunk:   uvarint count (> 0)     events in this chunk
//	         uvarint startIndex      global index of the chunk's first event
//	         uvarint basePC          absolute PC the chunk's deltas start from
//	         byte    codec           0 = raw, 1 = DEFLATE
//	         uvarint payloadLen      payload bytes that follow
//	         payload                 `count` BTR1-style event varints,
//	                                 delta-encoded against basePC
//	footer:  uvarint 0               sentinel (a data chunk never has count 0)
//	         uvarint nChunks
//	         nChunks × (uvarint offsetDelta | uvarint count)
//	                                 file offsets of the chunk frames,
//	                                 delta-encoded, and their event counts
//	         uvarint totalEvents
//	         8 bytes LE              file offset of the footer sentinel
//	         magic "2RTB"
//
// Each chunk carries its absolute base PC, event count and starting
// global event index, so a worker can decode any chunk without seeing
// any other — that is what the parallel replay pipeline exploits. The
// trailing footer is a seekable index: a reader with random access
// reads the last 12 bytes, jumps to the index and can then fetch
// arbitrary chunks, while purely sequential readers (pipes, HTTP
// bodies) just consume the frames in order and skip the footer.

var (
	magic2       = [4]byte{'B', 'T', 'R', '2'}
	footerMagic2 = [4]byte{'2', 'R', 'T', 'B'}
)

// Chunk payload codecs.
const (
	CodecRaw   byte = 0 // payload is the bare event varint stream
	CodecFlate byte = 1 // payload is DEFLATE-compressed
)

// DefaultChunkEvents is the default number of events per BTR2 chunk: big
// enough that per-chunk framing and scheduling overhead is noise, small
// enough that a few chunks per core exist on short traces.
const DefaultChunkEvents = 1 << 16

// ErrBadMagic2 is returned when a stream does not start with the BTR2
// magic number.
var ErrBadMagic2 = errors.New("trace: bad magic (not a BTR2 trace stream)")

// errCorruptChunk covers structurally invalid BTR2 frames.
var errCorruptChunk = errors.New("trace: corrupt BTR2 chunk")

// BTR2Options configure a BTR2 writer.
type BTR2Options struct {
	// ChunkEvents is the number of events per chunk (default
	// DefaultChunkEvents). Smaller chunks increase parallelism on short
	// traces at the cost of framing overhead.
	ChunkEvents int
	// Compress DEFLATE-compresses each chunk payload independently, so
	// compressed traces stay chunk-parallel (unlike gzip-wrapped BTR1,
	// whose single stream must be inflated sequentially).
	Compress bool
}

// BTR2Writer streams branch events into an io.Writer in BTR2 format.
// Close must be called to emit the trailing chunk and the footer index.
// The same machinery, at version 3, backs BTR3Writer (btr3.go): the
// only differences are the magics and the per-chunk context-run table.
type BTR2Writer struct {
	w    io.Writer
	opts BTR2Options
	ver  byte // 2 = BTR2, 3 = BTR3

	events  []Event  // current chunk under construction
	scratch []byte   // encoded payload reuse buffer
	runs    []CtxRun // per-chunk context-run scratch (BTR3)
	flate   *flate.Writer
	flateB  bytes.Buffer

	total  int64 // events written across all chunks
	offset int64 // bytes emitted so far (= next frame's file offset)
	index  []chunkMeta
	err    error
}

type chunkMeta struct {
	offset int64
	count  int64
}

// errCtxUnsupported reports a non-zero execution context reaching a
// writer whose format cannot encode contexts.
var errCtxUnsupported = errors.New("trace: BTR2 cannot encode execution contexts (write BTR3 instead)")

// NewBTR2Writer writes a BTR2 header and returns a writer. The
// underlying io.Writer is never closed.
func NewBTR2Writer(w io.Writer, opts BTR2Options) (*BTR2Writer, error) {
	bw := new(BTR2Writer)
	if err := initChunkWriter(bw, w, opts, 2); err != nil {
		return nil, err
	}
	return bw, nil
}

// initChunkWriter shares writer construction between BTR2 and BTR3:
// same framing, different magic and (for BTR3) a context-run table per
// chunk.
func initChunkWriter(bw *BTR2Writer, w io.Writer, opts BTR2Options, ver byte) error {
	if opts.ChunkEvents <= 0 {
		opts.ChunkEvents = DefaultChunkEvents
	}
	bw.w = w
	bw.opts = opts
	bw.ver = ver
	bw.events = make([]Event, 0, opts.ChunkEvents)
	var hdr []byte
	if ver == 3 {
		hdr = append(hdr, magic3[:]...)
	} else {
		hdr = append(hdr, magic2[:]...)
	}
	hdr = binary.AppendUvarint(hdr, 0) // flags
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("trace: writing BTR%d header: %w", ver, err)
	}
	bw.offset = int64(len(hdr))
	return nil
}

// Branch implements Sink, buffering one event into the current chunk.
func (b *BTR2Writer) Branch(pc PC, taken bool) {
	b.events = append(b.events, Event{PC: pc, Taken: taken})
	if len(b.events) >= b.opts.ChunkEvents {
		b.flushChunk()
	}
}

// BranchCtx implements CtxSink, buffering one context-tagged event.
// Only a version-3 (BTR3) writer can encode a non-zero context; a BTR2
// writer fails at the next flush.
func (b *BTR2Writer) BranchCtx(ctx Context, pc PC, taken bool) {
	b.events = append(b.events, Event{PC: pc, Ctx: ctx, Taken: taken})
	if len(b.events) >= b.opts.ChunkEvents {
		b.flushChunk()
	}
}

// BranchBatch buffers a run of events in one call.
func (b *BTR2Writer) BranchBatch(events []Event) {
	for len(events) > 0 {
		n := b.opts.ChunkEvents - len(b.events)
		if n > len(events) {
			n = len(events)
		}
		b.events = append(b.events, events[:n]...)
		events = events[n:]
		if len(b.events) >= b.opts.ChunkEvents {
			b.flushChunk()
		}
	}
}

// Count returns the number of events written so far.
func (b *BTR2Writer) Count() int64 { return b.total + int64(len(b.events)) }

// AppendEventDeltas appends the BTR-family per-event varint encoding of
// events to dst and returns the extended slice: each event becomes one
// uvarint word `|delta|<<2 | sign<<1 | taken`, with the PC delta taken
// against the previous event (basePC for the first). This is the exact
// payload encoding of a BTR2 chunk with CodecRaw — Chunk.Decode inverts
// it — and the daemon's binary wire protocol (internal/wire) reuses it
// for its chunk frames. A delta the word cannot hold stops the
// encoding with an error wrapping ErrPCDelta.
func AppendEventDeltas(dst []byte, basePC PC, events []Event) ([]byte, error) {
	last := basePC
	for i, e := range events {
		word, ok := eventWord(last, e.PC, e.Taken)
		if !ok {
			return dst, fmt.Errorf("trace: event %d of the run: %#x after %#x: %w", i, uint64(e.PC), uint64(last), ErrPCDelta)
		}
		dst = binary.AppendUvarint(dst, word)
		last = e.PC
	}
	return dst, nil
}

// flushChunk encodes and emits the buffered events as one chunk frame.
func (b *BTR2Writer) flushChunk() {
	if len(b.events) == 0 || b.err != nil {
		b.events = b.events[:0]
		return
	}
	// The context-run table covers the whole chunk; computing it also
	// catches non-zero contexts reaching a format that cannot carry
	// them.
	b.runs = appendCtxRuns(b.runs[:0], b.events)
	if b.ver < 3 && (len(b.runs) > 1 || b.runs[0].Ctx != 0) {
		b.err = errCtxUnsupported
		b.events = b.events[:0]
		return
	}
	basePC := b.events[0].PC
	payload, err := AppendEventDeltas(b.scratch[:0], basePC, b.events)
	b.scratch = payload
	if err != nil {
		b.err = fmt.Errorf("trace: BTR%d chunk at event %d: %w", b.ver, b.total, err)
		b.events = b.events[:0]
		return
	}

	codec := CodecRaw
	if b.opts.Compress {
		b.flateB.Reset()
		if b.flate == nil {
			// Error is impossible for a valid fixed level.
			b.flate, _ = flate.NewWriter(&b.flateB, flate.DefaultCompression)
		} else {
			b.flate.Reset(&b.flateB)
		}
		if _, err := b.flate.Write(payload); err == nil {
			if err := b.flate.Close(); err == nil {
				codec = CodecFlate
				payload = b.flateB.Bytes()
			}
		}
	}

	var frame []byte
	frame = binary.AppendUvarint(frame, uint64(len(b.events)))
	frame = binary.AppendUvarint(frame, uint64(b.total))
	frame = binary.AppendUvarint(frame, uint64(basePC))
	if b.ver >= 3 {
		frame = binary.AppendUvarint(frame, uint64(len(b.runs)))
		for _, run := range b.runs {
			frame = binary.AppendUvarint(frame, uint64(run.Ctx))
			frame = binary.AppendUvarint(frame, uint64(run.N))
		}
	}
	frame = append(frame, codec)
	frame = binary.AppendUvarint(frame, uint64(len(payload)))
	frame = append(frame, payload...)

	if _, err := b.w.Write(frame); err != nil {
		b.err = fmt.Errorf("trace: writing BTR%d chunk: %w", b.ver, err)
	}
	b.index = append(b.index, chunkMeta{offset: b.offset, count: int64(len(b.events))})
	b.offset += int64(len(frame))
	b.total += int64(len(b.events))
	b.events = b.events[:0]
}

// Close flushes the trailing partial chunk and writes the footer index.
// It surfaces the first write or encoding (ErrPCDelta) error
// encountered anywhere in the stream.
// The underlying io.Writer is not closed.
func (b *BTR2Writer) Close() error {
	b.flushChunk()
	if b.err != nil {
		return b.err
	}
	footerAt := b.offset
	var f []byte
	f = binary.AppendUvarint(f, 0) // sentinel: not a data chunk
	f = binary.AppendUvarint(f, uint64(len(b.index)))
	prev := int64(0)
	for _, c := range b.index {
		f = binary.AppendUvarint(f, uint64(c.offset-prev))
		f = binary.AppendUvarint(f, uint64(c.count))
		prev = c.offset
	}
	f = binary.AppendUvarint(f, uint64(b.total))
	f = binary.LittleEndian.AppendUint64(f, uint64(footerAt))
	if b.ver >= 3 {
		f = append(f, footerMagic3[:]...)
	} else {
		f = append(f, footerMagic2[:]...)
	}
	if _, err := b.w.Write(f); err != nil {
		return fmt.Errorf("trace: writing BTR%d footer: %w", b.ver, err)
	}
	return nil
}

// Chunk is one self-contained BTR2/BTR3 chunk frame: metadata plus the
// still encoded (and possibly compressed) payload. Decoding a chunk
// needs no state from any other chunk.
type Chunk struct {
	Index      int64 // chunk ordinal within the stream (0-based)
	StartIndex int64 // global index of the chunk's first event
	Count      int   // events in the chunk
	BasePC     PC    // absolute PC the deltas start from
	Codec      byte  // CodecRaw or CodecFlate
	Payload    []byte

	// CtxRuns is the chunk's execution-context run table (BTR3 only;
	// empty for BTR2/BTR1-sourced chunks, meaning the whole chunk is
	// context 0). The runs cover the chunk exactly: their lengths sum
	// to Count, and event i belongs to the run containing index i. The
	// table lives outside the delta payload so the 8-wide varint kernel
	// decodes BTR3 payloads unchanged.
	CtxRuns []CtxRun
}

// CtxRun tags a run of N consecutive chunk events with one execution
// context.
type CtxRun struct {
	Ctx Context
	N   int
}

// appendCtxRuns appends the run-length encoding of the events' context
// lane to dst. Every event slice yields at least one run.
func appendCtxRuns(dst []CtxRun, events []Event) []CtxRun {
	for i := 0; i < len(events); {
		ctx := events[i].Ctx
		j := i + 1
		for j < len(events) && events[j].Ctx == ctx {
			j++
		}
		dst = append(dst, CtxRun{Ctx: ctx, N: j - i})
		i = j
	}
	return dst
}

// plainCtx reports whether the chunk's events are all context 0.
func (c *Chunk) plainCtx() bool {
	for _, run := range c.CtxRuns {
		if run.Ctx != 0 {
			return false
		}
	}
	return true
}

// inflated returns the raw event varint stream behind the payload,
// inflating CodecFlate chunks.
func (c *Chunk) inflated() ([]byte, error) {
	switch c.Codec {
	case CodecRaw:
		return c.Payload, nil
	case CodecFlate:
		fr := flate.NewReader(bytes.NewReader(c.Payload))
		raw, err := io.ReadAll(fr)
		if err != nil {
			return nil, fmt.Errorf("trace: inflating BTR2 chunk %d at index %d: %w", c.Index, c.StartIndex, err)
		}
		return raw, nil
	default:
		return nil, fmt.Errorf("%w: unknown codec %d", errCorruptChunk, c.Codec)
	}
}

// eventErr classifies a failed varint read at payload offset pos while
// decoding event i of the chunk: an exhausted buffer means the stream
// was cut mid-varint (TruncatedError, which locates the cut by chunk
// ordinal and payload byte offset); a negative size means an over-long
// varint, which is corruption rather than truncation.
func (c *Chunk) eventErr(i, pos, sz int) error {
	if sz == 0 {
		return &TruncatedError{Chunk: c.Index, Event: c.StartIndex + int64(i), Offset: int64(pos)}
	}
	return fmt.Errorf("%w: over-long varint at event %d of %d (chunk %d, payload byte %d)",
		errCorruptChunk, i, c.Count, c.Index, pos)
}

// Decode appends the chunk's events to dst and returns the extended
// slice. It is the scalar reference decoder: every reader decodes
// through DecodeSoA, and the fuzz targets and the hot-path bench pin
// DecodeSoA against this loop. The chunk's payload is not modified;
// Decode is safe to call from any goroutine as long as each call has
// its own dst.
func (c *Chunk) Decode(dst []Event) ([]Event, error) {
	base := len(dst)
	payload, err := c.inflated()
	if err != nil {
		return dst, err
	}
	last := int64(c.BasePC)
	pos := 0
	for i := 0; i < c.Count; i++ {
		word, sz := binary.Uvarint(payload[pos:])
		if sz <= 0 {
			return dst, c.eventErr(i, pos, sz)
		}
		pos += sz
		delta := int64(word >> 2)
		if word&2 != 0 {
			delta = -delta
		}
		last += delta
		dst = append(dst, Event{PC: PC(last), Taken: word&1 != 0})
	}
	if pos != len(payload) {
		return dst, fmt.Errorf("%w: %d trailing payload bytes", errCorruptChunk, len(payload)-pos)
	}
	// Apply the context-run table (BTR3). Runs were validated against
	// Count at frame-read time, so this is a straight fill.
	i := base
	for _, run := range c.CtxRuns {
		if run.Ctx != 0 {
			for k := i; k < i+run.N; k++ {
				dst[k].Ctx = run.Ctx
			}
		}
		i += run.N
	}
	return dst, nil
}

// msbMask has the continuation bit of every byte lane set: a 64-bit
// window with no lane's continuation bit set is eight complete
// single-byte varints.
const msbMask = 0x8080808080808080

// unpacker is the state of one delta-varint decode into SoA lanes: the
// destination PCs and outcome bitmap, the events decoded so far and the
// running PC. Both the BTR1 reader and the BTR2/BTR3 chunk decoder run
// it, once per buffered window or chunk.
type unpacker struct {
	pcs  []PC
	bits []uint64
	n    int
	last int64
}

// run decodes events from buf until limit events are decoded or the
// next one would start past safe, the last offset at which a scalar
// varint is known to be complete. Its kernel is 8 wide: branch deltas
// have strong spatial locality, so almost every event encodes as a
// single varint byte, and a 64-bit load whose continuation bits are
// all clear yields eight events with branchless unpacking (DESIGN.md
// §3h). A window holding a multi-byte varint decodes one event the
// scalar way and the kernel retries one event later; the scalar loop
// finishes the tail. run returns the bytes consumed and, for a varint
// binary.Uvarint refused, the size it reported (0: cut short;
// negative: over-long); sz > 0 otherwise.
func (u *unpacker) run(buf []byte, safe, limit int) (pos, sz int) {
	pcs, bits, n, last := u.pcs, u.bits, u.n, u.last
	// Window loads stay inside buf and start no later than safe. The
	// 8-wide loop tests only this and limit: a wider loop condition
	// costs the kernel registers it needs.
	wideEnd := min(len(buf)-8, safe)
	for n+8 <= limit && pos <= wideEnd {
		w := binary.LittleEndian.Uint64(buf[pos:])
		if w&msbMask != 0 {
			word, m := binary.Uvarint(buf[pos:])
			if m <= 0 {
				break // the scalar loop reports it
			}
			pos += m
			s := -int64(word >> 1 & 1)
			last += (int64(word>>2) ^ s) - s
			pcs[n] = PC(last)
			bits[n>>6] |= (word & 1) << uint(n&63)
			n++
			continue
		}
		pos += 8
		// delta = byte>>2, sign = byte&2, taken = byte&1, all unpacked
		// without a conditional: the conditional negate is (d^s)-s
		// with s = 0 or -1.
		var tk uint64
		for k := 0; k < 8; k++ {
			bb := w & 0xff
			w >>= 8
			s := -int64(bb >> 1 & 1)
			last += (int64(bb>>2) ^ s) - s
			pcs[n+k] = PC(last)
			tk |= (bb & 1) << uint(k)
		}
		off := uint(n & 63)
		bits[n>>6] |= tk << off
		if off > 56 {
			bits[(n>>6)+1] |= tk >> (64 - off)
		}
		n += 8
	}
	sz = 1
	for pos <= safe && n < limit {
		var word uint64
		if word, sz = binary.Uvarint(buf[pos:]); sz <= 0 {
			break
		}
		pos += sz
		s := -int64(word >> 1 & 1)
		last += (int64(word>>2) ^ s) - s
		pcs[n] = PC(last)
		bits[n>>6] |= (word & 1) << uint(n&63)
		n++
	}
	u.n, u.last = n, last
	return pos, sz
}

// DecodeSoA decodes the chunk into b in struct-of-arrays layout,
// replacing b's previous contents (the backing arrays are reused). It
// produces exactly the events Decode produces, through the 8-wide
// unpacker kernel.
func (c *Chunk) DecodeSoA(b *SoABatch) error {
	payload, err := c.inflated()
	if err != nil {
		return err
	}
	// Every event costs at least one payload byte, so an implausible
	// Count is refused before Grow commits memory to it.
	if c.Count > len(payload) {
		return &TruncatedError{Chunk: c.Index, Event: c.StartIndex + int64(len(payload)), Offset: int64(len(payload))}
	}
	b.Grow(c.Count)
	u := unpacker{pcs: b.PCs, bits: b.Taken, last: int64(c.BasePC)}
	// The payload is all there is: a varint at any offset is complete
	// or cut by the payload's end, which binary.Uvarint reports.
	pos, sz := u.run(payload, len(payload)-1, c.Count)
	if u.n < c.Count {
		// A refused varint, or the payload ran out: a cut either way
		// unless the varint was over-long.
		return c.eventErr(u.n, pos, min(sz, 0))
	}
	if pos != len(payload) {
		return fmt.Errorf("%w: %d trailing payload bytes", errCorruptChunk, len(payload)-pos)
	}
	// Context lane: materialised only when the chunk actually carries a
	// non-zero context (BTR3), so single-context decoding stays on the
	// two-lane fast shape.
	if !c.plainCtx() {
		b.GrowCtxs()
		ctxs := b.Ctxs
		i := 0
		for _, run := range c.CtxRuns {
			if run.Ctx != 0 {
				for k := i; k < i+run.N; k++ {
					ctxs[k] = run.Ctx
				}
			}
			i += run.N
		}
	}
	return nil
}

// BTR2Reader decodes a BTR2 stream sequentially. It implements
// EventReader; ParallelReplay (btr2_parallel.go) is its concurrent
// counterpart. At version 3 the same machinery decodes BTR3 streams
// (see BTR3Reader in btr3.go): the chunk frames additionally carry a
// context-run table between the base PC and the codec byte.
type BTR2Reader struct {
	br  *bufio.Reader
	ver byte // 2 = BTR2, 3 = BTR3 (zero value behaves as 2)

	nextIndex int64 // expected StartIndex of the next chunk
	chunks    int64 // data chunks consumed so far
	done      bool  // footer seen

	// Steady-state scratch: the sequential paths (ReadBatch/Replay)
	// reuse one chunk frame (payload backing array included) and one SoA
	// batch across the whole stream, so decoding allocates only while the
	// buffers grow to the chunk size and is allocation-free thereafter.
	scratch Chunk
	soa     SoABatch
}

// NewBTR2Reader validates the header and returns a sequential reader.
// The same ErrEmpty/ErrTruncated taxonomy as NewReader applies.
func NewBTR2Reader(r io.Reader) (*BTR2Reader, error) {
	br := new(BTR2Reader)
	if err := initChunkReader(br, r, 2); err != nil {
		return nil, err
	}
	return br, nil
}

// initChunkReader shares header validation between BTR2 and BTR3.
func initChunkReader(cr *BTR2Reader, r io.Reader, ver byte) error {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	want, badMagic := magic2, ErrBadMagic2
	if ver == 3 {
		want, badMagic = magic3, ErrBadMagic3
	}
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		switch err {
		case io.EOF:
			return ErrEmpty
		case io.ErrUnexpectedEOF:
			return ErrTruncated
		default:
			return fmt.Errorf("trace: reading BTR%d header: %w", ver, err)
		}
	}
	if m != want {
		return badMagic
	}
	if _, err := binary.ReadUvarint(br); err != nil { // flags
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return ErrTruncated
		}
		return fmt.Errorf("trace: reading BTR%d header flags: %w", ver, err)
	}
	cr.br = br
	cr.ver = ver
	return nil
}

// NextChunk returns the next chunk frame without decoding its events,
// or io.EOF once the footer (or a bare end of stream) is reached. The
// returned chunk owns its payload.
func (r *BTR2Reader) NextChunk() (*Chunk, error) {
	c := new(Chunk)
	if err := r.ReadChunkInto(c); err != nil {
		return nil, err
	}
	return c, nil
}

// ReadChunkInto reads the next chunk frame into c, reusing c's payload
// backing array when it is large enough — the allocation-free
// counterpart of NextChunk for steady-state streaming loops. It
// returns io.EOF once the footer (or a bare end of stream) is reached,
// leaving c unspecified.
func (r *BTR2Reader) ReadChunkInto(c *Chunk) error {
	if r.done {
		return io.EOF
	}
	count, err := binary.ReadUvarint(r.br)
	if err != nil {
		if err == io.EOF {
			// A stream truncated before its footer: the data chunks read
			// so far are all intact, so treat it as a clean end. This is
			// what lets `head -c`-style prefixes and still-streaming pipes
			// replay their complete chunks.
			r.done = true
			return io.EOF
		}
		return fmt.Errorf("trace: reading BTR2 chunk count: %w", err)
	}
	if count == 0 {
		// Footer: consume the index so a concatenated reader ends at a
		// clean stream boundary, and cross-check the totals.
		if err := r.readFooter(); err != nil {
			return err
		}
		r.done = true
		return io.EOF
	}
	const maxChunkEvents = 1 << 28 // backstop against corrupt counts
	if count > maxChunkEvents {
		return fmt.Errorf("%w: implausible event count %d", errCorruptChunk, count)
	}
	start, err := binary.ReadUvarint(r.br)
	if err != nil {
		return fmt.Errorf("trace: reading BTR2 chunk start index: %w", eofToCorrupt(err))
	}
	basePC, err := binary.ReadUvarint(r.br)
	if err != nil {
		return fmt.Errorf("trace: reading BTR2 chunk base PC: %w", eofToCorrupt(err))
	}
	c.CtxRuns = c.CtxRuns[:0]
	if r.ver >= 3 {
		// Context-run table: nRuns pairs of (ctx, runLen); the runs must
		// tile the chunk exactly. Each run covers at least one event, so
		// nRuns > count is structurally impossible.
		nRuns, err := binary.ReadUvarint(r.br)
		if err != nil {
			return fmt.Errorf("trace: reading BTR3 chunk context runs: %w", eofToCorrupt(err))
		}
		if nRuns == 0 || nRuns > count {
			return fmt.Errorf("%w: %d context runs for %d events", errCorruptChunk, nRuns, count)
		}
		covered := uint64(0)
		for i := uint64(0); i < nRuns; i++ {
			ctx, err := binary.ReadUvarint(r.br)
			if err != nil {
				return fmt.Errorf("trace: reading BTR3 context run: %w", eofToCorrupt(err))
			}
			if ctx > uint64(^Context(0)) {
				return fmt.Errorf("%w: context id %d overflows uint32", errCorruptChunk, ctx)
			}
			n, err := binary.ReadUvarint(r.br)
			if err != nil {
				return fmt.Errorf("trace: reading BTR3 context run: %w", eofToCorrupt(err))
			}
			if n == 0 || n > count-covered {
				return fmt.Errorf("%w: context run of %d events overflows chunk of %d", errCorruptChunk, n, count)
			}
			covered += n
			c.CtxRuns = append(c.CtxRuns, CtxRun{Ctx: Context(ctx), N: int(n)})
		}
		if covered != count {
			return fmt.Errorf("%w: context runs cover %d of %d events", errCorruptChunk, covered, count)
		}
	}
	codec, err := r.br.ReadByte()
	if err != nil {
		return fmt.Errorf("trace: reading BTR2 chunk codec: %w", eofToCorrupt(err))
	}
	plen, err := binary.ReadUvarint(r.br)
	if err != nil {
		return fmt.Errorf("trace: reading BTR2 chunk payload length: %w", eofToCorrupt(err))
	}
	const maxChunkPayload = 1 << 30
	if plen > maxChunkPayload {
		return fmt.Errorf("%w: implausible payload length %d", errCorruptChunk, plen)
	}
	if int64(start) != r.nextIndex {
		return fmt.Errorf("%w: start index %d, want %d", errCorruptChunk, start, r.nextIndex)
	}
	if uint64(cap(c.Payload)) < plen {
		c.Payload = make([]byte, plen)
	} else {
		c.Payload = c.Payload[:plen]
	}
	if _, err := io.ReadFull(r.br, c.Payload); err != nil {
		return fmt.Errorf("trace: reading BTR2 chunk payload: %w", eofToCorrupt(err))
	}
	c.Index = r.chunks
	c.StartIndex = int64(start)
	c.Count = int(count)
	c.BasePC = PC(basePC)
	c.Codec = codec
	r.nextIndex += int64(count)
	r.chunks++
	return nil
}

// readFooter consumes the footer index that follows its count-0
// sentinel and validates the event total against the chunks read. A
// stream cut mid-footer is tolerated: every data chunk validated its
// own framing already, so a truncated footer loses nothing but the
// (redundant) seek index.
func (r *BTR2Reader) readFooter() error {
	isEOF := func(err error) bool { return err == io.EOF || err == io.ErrUnexpectedEOF }
	n, err := binary.ReadUvarint(r.br)
	if err != nil {
		if isEOF(err) {
			return nil
		}
		return fmt.Errorf("trace: reading BTR2 footer: %w", err)
	}
	if n > 1<<40 {
		return fmt.Errorf("%w: implausible footer chunk count %d", errCorruptChunk, n)
	}
	for i := uint64(0); i < 2*n; i++ {
		if _, err := binary.ReadUvarint(r.br); err != nil {
			if isEOF(err) {
				return nil
			}
			return fmt.Errorf("trace: reading BTR2 footer index: %w", err)
		}
	}
	total, err := binary.ReadUvarint(r.br)
	if err != nil {
		if isEOF(err) {
			return nil
		}
		return fmt.Errorf("trace: reading BTR2 footer total: %w", err)
	}
	var tail [12]byte
	if _, err := io.ReadFull(r.br, tail[:]); err != nil {
		if isEOF(err) {
			return nil
		}
		return fmt.Errorf("trace: reading BTR2 footer tail: %w", err)
	}
	want := footerMagic2
	if r.ver >= 3 {
		want = footerMagic3
	}
	if [4]byte(tail[8:12]) != want {
		return fmt.Errorf("%w: bad footer magic", errCorruptChunk)
	}
	if int64(total) != r.nextIndex {
		return fmt.Errorf("%w: footer records %d events, stream carried %d",
			errCorruptChunk, total, r.nextIndex)
	}
	return nil
}

func eofToCorrupt(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return errCorruptChunk
	}
	return err
}

// ReadBatch decodes the next chunk into b through the 8-wide kernel.
// A chunk that fails to decode leaves b empty.
func (r *BTR2Reader) ReadBatch(b *SoABatch) error {
	err := r.ReadChunkInto(&r.scratch)
	if err == nil {
		err = r.scratch.DecodeSoA(b)
	}
	if err != nil {
		b.Reset()
	}
	return err
}

// Replay feeds all remaining events into sink and returns the number of
// events delivered. Chunk frames are read into a reused buffer and
// decoded 8 events per iteration into a reused SoA batch — zero
// allocations per chunk once the scratch buffers have grown to the
// stream's chunk size.
func (r *BTR2Reader) Replay(sink Sink) (int64, error) {
	var n int64
	for {
		if err := r.ReadBatch(&r.soa); err != nil {
			if err == io.EOF {
				return n, nil
			}
			return n, err
		}
		deliverSoA(sink, &r.soa)
		n += int64(r.soa.Len())
	}
}

// BTR2Index is the decoded footer index of a seekable BTR2 (or BTR3)
// file: the frame offset and event range of every chunk.
type BTR2Index struct {
	Chunks []BTR2ChunkInfo
	Total  int64 // total events in the file
	ver    byte  // frame version the chunks decode at
}

// BTR2ChunkInfo locates one chunk inside a BTR2 file.
type BTR2ChunkInfo struct {
	Offset     int64 // file offset of the chunk frame
	StartIndex int64 // global index of the chunk's first event
	Count      int64 // events in the chunk
}

// ReadBTR2Index reads the footer index of a seekable BTR2 file of the
// given size, enabling random chunk access without scanning the stream.
func ReadBTR2Index(r io.ReaderAt, size int64) (*BTR2Index, error) {
	return readChunkIndex(r, size, 2)
}

func readChunkIndex(r io.ReaderAt, size int64, ver byte) (*BTR2Index, error) {
	fmagic := footerMagic2
	if ver == 3 {
		fmagic = footerMagic3
	}
	if size < int64(len(magic2))+1+12 {
		return nil, ErrTruncated
	}
	var tail [12]byte
	if _, err := r.ReadAt(tail[:], size-12); err != nil {
		return nil, fmt.Errorf("trace: reading BTR2 footer tail: %w", err)
	}
	if [4]byte(tail[8:12]) != fmagic {
		return nil, fmt.Errorf("%w: missing footer magic (unfinished stream?)", errCorruptChunk)
	}
	footerAt := int64(binary.LittleEndian.Uint64(tail[:8]))
	if footerAt < 0 || footerAt >= size-12 {
		return nil, fmt.Errorf("%w: footer offset %d out of range", errCorruptChunk, footerAt)
	}
	buf := make([]byte, size-12-footerAt)
	if _, err := r.ReadAt(buf, footerAt); err != nil {
		return nil, fmt.Errorf("trace: reading BTR2 footer: %w", err)
	}
	next := func() (uint64, error) {
		v, sz := binary.Uvarint(buf)
		if sz <= 0 {
			return 0, fmt.Errorf("%w: footer varint", errCorruptChunk)
		}
		buf = buf[sz:]
		return v, nil
	}
	sentinel, err := next()
	if err != nil {
		return nil, err
	}
	if sentinel != 0 {
		return nil, fmt.Errorf("%w: footer sentinel %d", errCorruptChunk, sentinel)
	}
	n, err := next()
	if err != nil {
		return nil, err
	}
	if n > uint64(size) { // each chunk frame is at least several bytes
		return nil, fmt.Errorf("%w: implausible footer chunk count %d", errCorruptChunk, n)
	}
	ix := &BTR2Index{Chunks: make([]BTR2ChunkInfo, 0, n), ver: ver}
	var off, start int64
	for i := uint64(0); i < n; i++ {
		d, err := next()
		if err != nil {
			return nil, err
		}
		count, err := next()
		if err != nil {
			return nil, err
		}
		off += int64(d)
		ix.Chunks = append(ix.Chunks, BTR2ChunkInfo{Offset: off, StartIndex: start, Count: int64(count)})
		start += int64(count)
	}
	total, err := next()
	if err != nil {
		return nil, err
	}
	ix.Total = int64(total)
	if ix.Total != start {
		return nil, fmt.Errorf("%w: footer total %d, index sums to %d", errCorruptChunk, total, start)
	}
	return ix, nil
}

// ReadChunk fetches and frames chunk i via random access.
func (ix *BTR2Index) ReadChunk(r io.ReaderAt, i int) (*Chunk, error) {
	if i < 0 || i >= len(ix.Chunks) {
		return nil, fmt.Errorf("trace: BTR2 chunk %d out of range [0,%d)", i, len(ix.Chunks))
	}
	info := ix.Chunks[i]
	sr := bufio.NewReader(io.NewSectionReader(r, info.Offset, 1<<62-info.Offset))
	br := &BTR2Reader{br: sr, ver: ix.ver, nextIndex: info.StartIndex, chunks: int64(i)}
	return br.NextChunk()
}
