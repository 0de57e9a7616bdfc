package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary trace format ("BTR1"):
//
//	header:  magic "BTR1" | uvarint eventCount (0 = unknown/streamed)
//	events:  one uvarint per event: (pcDelta<<2) | sign<<1 | taken
//
// PCs are delta-encoded against the previous event's PC (sign bit set
// when the delta is negative) because real branch streams have strong
// spatial locality; the common "same hot loop" case costs one byte per
// event.

var magic = [4]byte{'B', 'T', 'R', '1'}

// ErrBadMagic is returned when a trace file does not start with the BTR1
// magic number.
var ErrBadMagic = errors.New("trace: bad magic (not a BTR1 trace file)")

// ErrEmpty is returned when a trace stream contains no bytes at all.
var ErrEmpty = errors.New("trace: empty input (expected a BTR1 or gzip-compressed BTR1 stream)")

// ErrTruncated is returned when a trace stream ends inside the header:
// the input is recognisably incomplete rather than simply not a trace.
var ErrTruncated = errors.New("trace: truncated input (stream ends inside the BTR1 header)")

// ErrPCDelta is returned, wrapped, by a BTR1/BTR2/BTR3 writer's Close
// and by the wire client's Send when two consecutive PCs of one
// delta-encoded run are 2^62 or more apart: the event word keeps
// |delta| in the 62 bits above the sign and taken bits, so such a
// delta would lose its top bits and decode to a different PC.
var ErrPCDelta = errors.New("trace: PC delta of 2^62 or more does not fit the event encoding")

// eventWord is the BTR-family encoding of one event against the
// previous PC: the uvarint word `|delta|<<2 | sign<<1 | taken`. ok is
// false when |delta| does not fit in 62 bits. Every event encoder
// (Writer.Branch, AppendEventDeltas) goes through it.
func eventWord(prev, pc PC, taken bool) (word uint64, ok bool) {
	delta := int64(pc - prev)
	mag := uint64(delta)
	if delta < 0 {
		mag = -mag
		word = 2
	}
	if taken {
		word |= 1
	}
	return word | mag<<2, mag < 1<<62
}

// Writer streams branch events into an io.Writer in BTR1 format. Close
// must be called to flush buffered data.
type Writer struct {
	bw     *bufio.Writer
	lastPC PC
	count  int64
	err    error
	buf    [binary.MaxVarintLen64]byte
}

// NewWriter writes a BTR1 header and returns a Writer. The event count
// in the header is written as zero (unknown); readers count events by
// reading to EOF.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	tw := &Writer{bw: bw}
	tw.putUvarint(0)
	return tw, tw.err
}

func (w *Writer) putUvarint(v uint64) {
	if w.err != nil {
		return
	}
	n := binary.PutUvarint(w.buf[:], v)
	if _, err := w.bw.Write(w.buf[:n]); err != nil {
		// Record the first failure with context; every later Branch is a
		// no-op and Close surfaces this error.
		w.err = fmt.Errorf("trace: writing event %d: %w", w.count, err)
	}
}

// Branch implements Sink, encoding one event. A PC the encoding cannot
// reach from the previous one (ErrPCDelta) stops the stream; Close
// reports it.
func (w *Writer) Branch(pc PC, taken bool) {
	word, ok := eventWord(w.lastPC, pc, taken)
	if !ok && w.err == nil {
		w.err = fmt.Errorf("trace: event %d: %#x after %#x: %w", w.count, uint64(pc), uint64(w.lastPC), ErrPCDelta)
	}
	w.putUvarint(word)
	w.lastPC = pc
	w.count++
}

// BranchBatch encodes a run of events in one call.
func (w *Writer) BranchBatch(events []Event) {
	for _, e := range events {
		w.Branch(e.PC, e.Taken)
	}
}

// Count returns the number of events written so far.
func (w *Writer) Count() int64 { return w.count }

// Close flushes the writer and surfaces the first write or encoding
// (ErrPCDelta) error seen anywhere in the stream — Branch cannot
// report errors itself (it is a Sink), so a caller that skips Close's
// error would silently persist a truncated trace. The underlying
// io.Writer is not closed.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if err := w.bw.Flush(); err != nil {
		w.err = fmt.Errorf("trace: flushing %d-event trace: %w", w.count, err)
		return w.err
	}
	return nil
}

// EventReader is the decoding side of a trace stream, independent of
// the on-disk format. *Reader (BTR1), *BTR2Reader and *BTR3Reader all
// implement it; OpenReader returns whichever matches the stream's
// magic.
type EventReader interface {
	// Next returns the next event, or io.EOF at end of stream.
	Next() (Event, error)
	// ReadBatch replaces b's contents with the next run of events: up
	// to ReadBatchEvents of a BTR1 stream, one chunk of a BTR2/BTR3
	// stream. At end of stream it returns io.EOF with b empty; on any
	// other error b holds the events decoded before it.
	ReadBatch(b *SoABatch) error
	// Replay feeds all remaining events into sink and returns how many
	// were delivered.
	Replay(sink Sink) (int64, error)
}

// ReadBatchEvents is the BTR1 decode granularity of ReadBatch and
// Replay: 4 K events is 32 KB of PCs, big enough to amortise the
// per-batch bookkeeping of every consumer and well under a slice.
const ReadBatchEvents = 4096

// ParallelReplayer is the subset of readers whose streams decode
// chunk-parallel: BTR2 and BTR3. Callers with a worker budget assert
// this interface instead of the concrete reader types.
type ParallelReplayer interface {
	EventReader
	// ParallelReplay is Replay across a bounded decode pool — same
	// events, same order, same count.
	ParallelReplay(workers int, sink Sink) (int64, error)
}

// Reader decodes a BTR1 stream.
type Reader struct {
	br     *bufio.Reader
	lastPC PC
	off    int64    // event-stream bytes consumed so far (header excluded)
	events int64    // events decoded so far
	batch  SoABatch // Next/Replay decode buffer
}

// NewReader validates the header and returns a Reader. Empty input
// yields ErrEmpty and input that ends mid-header yields ErrTruncated,
// so callers surface a clear diagnosis instead of a bare EOF.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		switch err {
		case io.EOF:
			return nil, ErrEmpty
		case io.ErrUnexpectedEOF:
			return nil, ErrTruncated
		default:
			return nil, fmt.Errorf("trace: reading header: %w", err)
		}
	}
	if m != magic {
		return nil, ErrBadMagic
	}
	if _, err := binary.ReadUvarint(br); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, ErrTruncated
		}
		return nil, fmt.Errorf("trace: reading header count: %w", err)
	}
	return &Reader{br: br}, nil
}

// Next returns the next event, or io.EOF at end of stream. It is a
// one-event read, so the reader's position accounting (for truncation
// diagnostics) stays exact however the stream is drained.
func (r *Reader) Next() (Event, error) {
	if err := r.read(&r.batch, 1); r.batch.Len() == 0 {
		return Event{}, err
	}
	return Event{PC: r.batch.PCs[0], Taken: r.batch.TakenBit(0)}, nil
}

// maxEventLen is the longest possible encoded event (one uvarint).
const maxEventLen = binary.MaxVarintLen64

// ReadBatch decodes up to ReadBatchEvents events into b. A short
// batch with a nil error just means the underlying reader delivered a
// short buffer (common on network bodies).
func (r *Reader) ReadBatch(b *SoABatch) error { return r.read(b, ReadBatchEvents) }

// read decodes up to limit events into b. Decoding runs over the
// buffered bytes directly instead of paying the per-byte ReadByte
// interface path, through the same 8-wide unpacker kernel as the BTR2
// chunk decoder, once per buffered window.
func (r *Reader) read(b *SoABatch, limit int) error {
	b.Grow(limit)
	u := unpacker{pcs: b.PCs, bits: b.Taken, last: int64(r.lastPC)}
	sz := 1
	var peekErr error
	for u.n < limit && sz > 0 {
		// Ensure a full varint of lookahead when the stream has one;
		// this is also the refill point.
		var head []byte
		if head, peekErr = r.br.Peek(maxEventLen); len(head) == 0 {
			break
		}
		// Widen to everything buffered: every event that starts at
		// least maxEventLen before the window's end is complete inside
		// it. A shorter window means the underlying reader hit EOF or
		// an error, so its bytes are all there is.
		buf, safe := head, len(head)-1
		if len(head) == maxEventLen {
			buf, _ = r.br.Peek(r.br.Buffered())
			safe = len(buf) - maxEventLen
		}
		var used int
		used, sz = u.run(buf, safe, limit)
		r.br.Discard(used)
		r.off += int64(used)
	}
	r.lastPC = PC(u.last)
	r.events += int64(u.n)
	b.PCs, b.Taken = u.pcs[:u.n], u.bits[:(u.n+63)/64]
	switch {
	case sz == 0 && peekErr != nil && peekErr != io.EOF:
		// A varint cut by a read error, not by the end of the stream.
		return fmt.Errorf("trace: reading event: %w", peekErr)
	case sz <= 0:
		return fmt.Errorf("trace: reading event: %w", r.eventErr(sz))
	case u.n > 0:
		return nil
	case peekErr == io.EOF:
		return io.EOF
	}
	return fmt.Errorf("trace: reading event: %w", peekErr)
}

// eventErr classifies a failed varint read at the reader's current
// position: an exhausted buffer is a mid-varint cut (TruncatedError
// carries the event index and the byte offset past the header, and
// unwraps to ErrTruncated); a negative size is an over-long varint —
// corruption, not truncation.
func (r *Reader) eventErr(sz int) error {
	if sz == 0 {
		return &TruncatedError{Chunk: -1, Event: r.events, Offset: r.off}
	}
	return errCorruptEvent
}

var errCorruptEvent = errors.New("trace: corrupt event varint (over-long encoding)")

// Replay feeds all remaining events into sink and returns the number of
// events delivered, ReadBatchEvents at a time.
func (r *Reader) Replay(sink Sink) (int64, error) {
	var n int64
	for {
		err := r.ReadBatch(&r.batch)
		if r.batch.Len() > 0 {
			deliverSoA(sink, &r.batch)
			n += int64(r.batch.Len())
		}
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}
