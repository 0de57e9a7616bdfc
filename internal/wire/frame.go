// Package wire implements the profiling daemon's compact binary ingest
// protocol: length-prefixed, CRC-checksummed frames over a raw TCP
// connection, multiplexing many concurrent profiling sessions as
// independent streams (DESIGN.md §3g).
//
// The frame layer mirrors the WAL's record framing (internal/wal):
//
//	frame   := len[4] crc[4] payload[len]
//	payload := type[1] stream[uvarint] body
//
// len and crc are little-endian uint32; len covers the whole payload
// (type byte, stream id and body), crc is CRC-32C (Castagnoli) over the
// same bytes. MaxFrame bounds len so a corrupt or hostile length field
// can never make the peer allocate garbage-controlled amounts of
// memory.
//
// The failure model follows wal's torn-tail rules: a frame is either
// fully present and checksum-valid or the connection is broken. There
// is no resynchronisation — a bad length, a checksum mismatch or a
// malformed payload poisons every later offset, so the peer tears the
// connection down (sessions in flight on it fail with a connection
// error; nothing is silently skipped).
//
// On top of the frames sits a small message set (msg.go): a version
// handshake, session begin/end, BTR2-style event chunks, credit-based
// flow control and typed errors. Client (client.go) and Server
// (server.go) implement the two ends. The server hands chunk bodies
// undecoded to any Handler: internal/serve decodes them into its ingest
// engine, and the router in internal/cluster forwards them to a node.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// MaxFrame bounds a single frame's payload length. The cap is far above
// anything the protocol emits (chunk frames carry at most
// MaxChunkEvents varint-encoded events) and exists purely as a
// corruption backstop, like wal.MaxRecord.
const MaxFrame = 1 << 24 // 16 MiB

const frameHeader = 8 // len[4] + crc[4]

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Frame decoding errors. ErrShortFrame is the streaming analogue of
// wal's "torn record": the bytes end before the frame does.
var (
	ErrShortFrame = errors.New("wire: short frame")
	ErrFrameSize  = errors.New("wire: oversized frame")
	ErrChecksum   = errors.New("wire: frame checksum mismatch")
	ErrBadFrame   = errors.New("wire: malformed frame payload")
)

// Frame is one decoded protocol frame: a message type, the stream it
// belongs to (0 is the connection control stream) and the message body.
type Frame struct {
	Type   byte
	Stream uint64
	Body   []byte
}

// appendFrame appends the encoded frame to dst and returns the extended
// slice.
func appendFrame(dst []byte, typ byte, stream uint64, body []byte) []byte {
	var sbuf [binary.MaxVarintLen64]byte
	sn := binary.PutUvarint(sbuf[:], stream)
	plen := 1 + sn + len(body)

	dst = binary.LittleEndian.AppendUint32(dst, uint32(plen))
	crc := crc32.Checksum([]byte{typ}, castagnoli)
	crc = crc32.Update(crc, castagnoli, sbuf[:sn])
	crc = crc32.Update(crc, castagnoli, body)
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	dst = append(dst, typ)
	dst = append(dst, sbuf[:sn]...)
	dst = append(dst, body...)
	return dst
}

// parsePayload splits a checksum-validated payload into its frame
// fields. The returned body aliases payload.
func parsePayload(payload []byte) (Frame, error) {
	if len(payload) == 0 {
		return Frame{}, fmt.Errorf("%w: empty payload", ErrBadFrame)
	}
	stream, n := binary.Uvarint(payload[1:])
	if n <= 0 {
		return Frame{}, fmt.Errorf("%w: bad stream id", ErrBadFrame)
	}
	return Frame{Type: payload[0], Stream: stream, Body: payload[1+n:]}, nil
}

// DecodeFrame decodes the first frame in b, returning the frame and the
// number of bytes it occupied. It never panics on arbitrary input:
// incomplete bytes yield ErrShortFrame, an implausible length
// ErrFrameSize, a checksum failure ErrChecksum and a malformed payload
// ErrBadFrame. The returned frame's Body aliases b.
func DecodeFrame(b []byte) (Frame, int, error) {
	if len(b) < frameHeader {
		return Frame{}, 0, ErrShortFrame
	}
	plen := binary.LittleEndian.Uint32(b[0:4])
	if plen < 1 || plen > MaxFrame {
		return Frame{}, 0, fmt.Errorf("%w: payload length %d", ErrFrameSize, plen)
	}
	if uint32(len(b)-frameHeader) < plen {
		return Frame{}, 0, ErrShortFrame
	}
	payload := b[frameHeader : frameHeader+int(plen)]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(b[4:8]) {
		return Frame{}, 0, ErrChecksum
	}
	f, err := parsePayload(payload)
	if err != nil {
		return Frame{}, 0, err
	}
	return f, frameHeader + int(plen), nil
}

// readFrame reads one frame from a stream. The returned frame owns its
// body. io.EOF is returned untouched at a clean frame boundary so
// callers can distinguish an orderly close from a torn one
// (io.ErrUnexpectedEOF).
func readFrame(br *bufio.Reader) (Frame, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return Frame{}, fmt.Errorf("%w: connection cut mid-header", ErrShortFrame)
		}
		return Frame{}, err
	}
	plen := binary.LittleEndian.Uint32(hdr[0:4])
	if plen < 1 || plen > MaxFrame {
		return Frame{}, fmt.Errorf("%w: payload length %d", ErrFrameSize, plen)
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(br, payload); err != nil {
		return Frame{}, fmt.Errorf("%w: connection cut mid-frame", ErrShortFrame)
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return Frame{}, ErrChecksum
	}
	return parsePayload(payload)
}
