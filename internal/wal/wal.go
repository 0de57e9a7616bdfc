// Package wal implements the write-ahead log underneath the profiling
// daemon's durable sessions (DESIGN.md §3f). A log is a flat file of
// length-prefixed, CRC-checksummed records:
//
//	file   := header record*
//	header := magic[6]                       ("2DWAL" + format version)
//	record := len[4] crc[4] type[1] body[len-1]
//
// len and crc are little-endian uint32; len covers the type byte plus
// the body, crc is CRC-32C (Castagnoli) over the same bytes. Record
// types are opaque to this package — internal/serve defines the session
// schema on top.
//
// The failure model is a crashed writer, not a hostile disk: a record
// is either fully present and checksum-valid or it is part of the torn
// tail. ReadAll scans records until the first frame that is short,
// oversized or checksum-corrupt and returns the valid prefix; nothing
// after a bad frame is trusted — a corrupt length field makes every
// later offset meaningless. A log is never repaired in place: a reader
// that wants the torn tail gone rewrites the valid prefix (or what it
// derives from it) with Rewrite, which replaces the file atomically.
//
// Durability is a per-log SyncPolicy: SyncAlways fsyncs after every
// append (each acknowledged record survives a machine crash),
// SyncInterval fsyncs from a background goroutine at a fixed cadence
// (bounded data-loss window, near-SyncNever throughput), SyncNever
// leaves flushing to the OS (process crashes lose nothing, machine
// crashes may). Reading only the valid prefix makes all three safe to
// recover from.
package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// magic identifies a WAL file and pins the format version.
const magic = "2DWAL1"

// MaxRecord bounds a single record's length field. Anything larger is
// treated as corruption: the framing layer must never allocate
// attacker- or garbage-controlled amounts of memory.
const MaxRecord = 1 << 26 // 64 MiB

const frameHeader = 8 // len[4] + crc[4]

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SyncMode selects when appended records reach stable storage.
type SyncMode int

const (
	// SyncInterval flushes and fsyncs from a background goroutine every
	// Interval; an append is durable at most one interval after it
	// returns.
	SyncInterval SyncMode = iota
	// SyncAlways flushes and fsyncs before every Append returns.
	SyncAlways
	// SyncNever never fsyncs; the OS writes pages back at its leisure.
	SyncNever
)

// SyncPolicy is a SyncMode plus the cadence SyncInterval uses.
type SyncPolicy struct {
	Mode     SyncMode
	Interval time.Duration
}

// DefaultSyncInterval is the flush cadence ParseSyncPolicy's "interval"
// spelling resolves to.
const DefaultSyncInterval = 100 * time.Millisecond

// ParseSyncPolicy parses a -fsync flag value: "always", "never",
// "interval" (the default cadence) or a Go duration naming an explicit
// cadence ("250ms").
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncPolicy{Mode: SyncAlways}, nil
	case "never":
		return SyncPolicy{Mode: SyncNever}, nil
	case "interval", "":
		return SyncPolicy{Mode: SyncInterval, Interval: DefaultSyncInterval}, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return SyncPolicy{}, fmt.Errorf("wal: bad fsync policy %q (want always, never, interval or a positive duration)", s)
	}
	return SyncPolicy{Mode: SyncInterval, Interval: d}, nil
}

// String renders the policy in the spelling ParseSyncPolicy accepts.
func (p SyncPolicy) String() string {
	switch p.Mode {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	default:
		if p.Interval <= 0 {
			return "interval"
		}
		return p.Interval.String()
	}
}

// Validate reports a non-nil error when the policy is unusable.
func (p SyncPolicy) Validate() error {
	switch p.Mode {
	case SyncAlways, SyncNever:
		return nil
	case SyncInterval:
		if p.Interval <= 0 {
			return fmt.Errorf("wal: invalid SyncPolicy: Interval must be positive with SyncInterval (got %v)", p.Interval)
		}
		return nil
	default:
		return fmt.Errorf("wal: invalid SyncPolicy: unknown Mode %d", p.Mode)
	}
}

// Record is one framed log entry: a type tag plus an opaque payload.
type Record struct {
	Type    byte
	Payload []byte
}

// RepairInfo describes the invalid tail ReadAll found after a log's
// valid prefix.
type RepairInfo struct {
	// Offset is the file offset of the last valid record boundary; the
	// bytes from Offset to the end are not part of the log.
	Offset int64
	// DroppedBytes is how many trailing bytes were invalid.
	DroppedBytes int64
	// Reason says what ended the scan: "torn record", "checksum
	// mismatch", "oversized record", "bad header".
	Reason string
}

// Log is an append-only record log. Append and Close are safe for
// concurrent use; the background interval flusher shares the same lock.
type Log struct {
	mu     sync.Mutex
	f      *os.File
	w      *bufio.Writer
	hdr    [frameHeader + 1]byte // Append's frame-header scratch, under mu
	policy SyncPolicy
	dirty  bool
	closed bool
	// err is the first failed background sync. After a failed fsync
	// the kernel may mark the dirty pages clean, so a later fsync can
	// succeed although data was lost: the log stops syncing, and every
	// later Append and Close returns err.
	err  error
	stop chan struct{}
	done chan struct{}
}

// Create creates a new, empty log at path. It fails if the file already
// exists — one session, one log, never silently overwritten.
func Create(path string, policy SyncPolicy) (*Log, error) {
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", path, err)
	}
	l := newLog(f, policy)
	if _, err := l.w.WriteString(magic); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: writing header: %w", err)
	}
	l.dirty = true
	return l, nil
}

// ReadAll scans a log read-only and returns its valid records plus a
// description of the invalid tail after them (nil when the log is
// clean; Reason "bad header", with no records, when the file is not a
// log at all). The file is not modified.
func ReadAll(path string) ([]Record, *RepairInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	defer f.Close()
	recs, repair, err := scan(f)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: scanning %s: %w", path, err)
	}
	return recs, repair, nil
}

// newLog assembles the writer state and starts the interval flusher
// when the policy asks for one.
func newLog(f *os.File, policy SyncPolicy) *Log {
	l := &Log{
		f:      f,
		w:      bufio.NewWriterSize(f, 1<<16),
		policy: policy,
	}
	if policy.Mode == SyncInterval {
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.flusher()
	}
	return l
}

// flusher is the SyncInterval background goroutine: fsync when dirty,
// every Interval, until Close.
func (l *Log) flusher() {
	defer close(l.done)
	t := time.NewTicker(l.policy.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			if l.dirty && !l.closed && l.err == nil {
				if err := l.syncLocked(); err != nil {
					l.err = fmt.Errorf("wal: background sync: %w", err)
				}
			}
			l.mu.Unlock()
		}
	}
}

// Append frames and writes one record. Under SyncAlways it is durable
// when Append returns; under SyncInterval within one interval; under
// SyncNever when the OS gets around to it. After a failed background
// sync it writes nothing and returns that error. The frame header is
// built in the log's own scratch, so a steady stream of appends
// allocates nothing.
func (l *Log) Append(typ byte, payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: append to closed log")
	}
	if l.err != nil {
		return l.err
	}
	if err := writeRecord(l.w, &l.hdr, typ, payload); err != nil {
		return err
	}
	l.dirty = true
	if l.policy.Mode == SyncAlways {
		return l.syncLocked()
	}
	return nil
}

// writeRecord frames one record into w — len[4] crc[4] type[1], then
// the payload — building the header in hdr. Append and Rewrite both
// frame through it, so a rewritten log holds the bytes Append wrote.
func writeRecord(w *bufio.Writer, hdr *[frameHeader + 1]byte, typ byte, payload []byte) error {
	if len(payload)+1 > MaxRecord {
		return fmt.Errorf("wal: record of %d bytes exceeds MaxRecord", len(payload))
	}
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)+1))
	hdr[8] = typ
	crc := crc32.Update(0, castagnoli, hdr[8:])
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Update(crc, castagnoli, payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func (l *Log) syncLocked() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.dirty = false
	return nil
}

// Close flushes, fsyncs and closes the log, and returns the first
// failed background sync ahead of its own errors. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	err := l.err
	if ferr := l.w.Flush(); err == nil {
		err = ferr
	}
	if serr := l.f.Sync(); err == nil {
		err = serr
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.mu.Unlock()
	if l.stop != nil {
		close(l.stop)
		<-l.done
	}
	return err
}

// rewriteTemp is the name pattern of Rewrite's temp file, created
// beside the log it replaces.
const rewriteTemp = ".rewrite-*.tmp"

// Rewrite atomically replaces the log at path with one containing
// exactly recs: write to a temp file in the same directory, fsync,
// rename over, fsync the directory. A crash at any point leaves either
// the old or the new log, never a mix — at worst it also leaves the
// temp file, which IsRewriteTemp recognises.
func Rewrite(path string, recs []Record) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+rewriteTemp)
	if err != nil {
		return fmt.Errorf("wal: rewrite temp: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	// CreateTemp makes the file 0600; keep the mode of the log it replaces.
	if st, err := os.Stat(path); err == nil {
		if err := tmp.Chmod(st.Mode().Perm()); err != nil {
			tmp.Close()
			return err
		}
	}
	w := bufio.NewWriterSize(tmp, 1<<16)
	if _, err := w.WriteString(magic); err != nil {
		tmp.Close()
		return err
	}
	var hdr [frameHeader + 1]byte
	for _, rec := range recs {
		if err := writeRecord(w, &hdr, rec.Type, rec.Payload); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("wal: rewrite rename: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// IsRewriteTemp reports whether a directory entry's name is a temp
// file of Rewrite, left behind by a crash between its create and its
// rename. Such a file never holds the only copy of anything: the log
// it was to replace is still in place.
func IsRewriteTemp(name string) bool {
	ok, _ := filepath.Match("*"+rewriteTemp, name)
	return ok
}

// scan reads records from the start of f. It returns the valid prefix
// plus a RepairInfo when the tail is torn or corrupt; an error is only
// returned for real I/O failures.
func scan(f *os.File) ([]Record, *RepairInfo, error) {
	r := bufio.NewReaderSize(io.NewSectionReader(f, 0, 1<<62), 1<<16)
	var hdr [len(magic)]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, &RepairInfo{Reason: "bad header"}, nil
	}
	if string(hdr[:]) != magic {
		return nil, &RepairInfo{Reason: "bad header"}, nil
	}
	var (
		recs   []Record
		offset = int64(len(magic))
		frame  [frameHeader]byte
	)
	stop := func(reason string) ([]Record, *RepairInfo, error) {
		st, err := f.Stat()
		if err != nil {
			return nil, nil, err
		}
		return recs, &RepairInfo{
			Offset:       offset,
			DroppedBytes: st.Size() - offset,
			Reason:       reason,
		}, nil
	}
	for {
		if _, err := io.ReadFull(r, frame[:]); err != nil {
			if err == io.EOF {
				return recs, nil, nil // clean end
			}
			return stop("torn record")
		}
		n := binary.LittleEndian.Uint32(frame[0:4])
		want := binary.LittleEndian.Uint32(frame[4:8])
		if n < 1 || n > MaxRecord {
			return stop("oversized record")
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(r, body); err != nil {
			return stop("torn record")
		}
		if crc32.Checksum(body, castagnoli) != want {
			return stop("checksum mismatch")
		}
		recs = append(recs, Record{Type: body[0], Payload: body[1:]})
		offset += int64(frameHeader) + int64(n)
	}
}
