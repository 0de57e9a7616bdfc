package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Spans of the traced run. The benchmark records one span around each
// of its own calls into a layer: name, start, end, the span that
// caused it, and the job or session it belongs to. Spans stay in
// memory and are written out when the run ends. Untraced runs time the
// same calls through a nil *tracer, which records nothing.

// span is one recorded call.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Op     string `json:"op,omitempty"` // job or session id
	Start  int64  `json:"start_ns"`     // since the tracer started
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer collects spans; a nil *tracer records nothing.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a span being timed.
type openSpan struct {
	tr     *tracer
	id     int64
	parent int64
	name   string
	op     string
	start  time.Time
}

// start opens a span. parent is the enclosing span's id (0 for none).
func (t *tracer) start(name, op string, parent int64) openSpan {
	o := openSpan{tr: t, parent: parent, name: name, op: op}
	if t != nil {
		o.id = t.nextID.Add(1)
	}
	o.start = time.Now()
	return o
}

// end closes the span, records it when tracing, and returns its
// duration.
func (o openSpan) end() time.Duration {
	now := time.Now()
	d := now.Sub(o.start)
	if t := o.tr; t != nil {
		s := span{ID: o.id, Parent: o.parent, Name: o.name, Op: o.op,
			Start: int64(o.start.Sub(t.t0)), End: int64(now.Sub(t.t0))}
		t.mu.Lock()
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	}
	return d
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines in path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	name  string
	count int
	total time.Duration
	self  time.Duration
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the part of it that its child spans cover.
func selfTimes(spans []span) []spanStat {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*spanStat)
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{name: s.Name}
			byName[s.Name] = st
		}
		st.count++
		st.total += s.dur()
		st.self += s.dur() - covered(s, children[s.ID])
	}
	out := make([]spanStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, reach int64
	reach = parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, reach), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			reach = hi
		}
	}
	return time.Duration(total)
}

// printSelfTimes writes the per-name span table.
func printSelfTimes(w io.Writer, spans []span) {
	fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, st := range selfTimes(spans) {
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f\n", st.name, st.count, ms(st.total), ms(st.self))
	}
}
