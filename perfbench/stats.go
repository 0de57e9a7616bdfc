package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie beyond a reported tail: the
// tail is the highest percentile that still has this many samples
// above it, so it is never a single outlier.
const tailBeyond = 10

// failedMs stands for a failed or refused operation in a latency
// sample: it sorts beyond any measured latency.
var failedMs = math.Inf(1)

// latency summarises one latency sample: the median and the tail.
type latency struct {
	n      int     // samples, failed operations included
	p50    float64 // median (failedMs when more than half failed)
	tail   float64 // value of the tail sample
	tailP  float64 // its percentile: the share of samples at or below it
	beyond int     // samples strictly above the tail sample's rank
}

// summarize computes the median and the tail of ms. The tail is sample
// n-1-tailBeyond of the sorted sample; with tailBeyond or fewer samples
// no percentile has that many beyond it, and the maximum is reported
// with beyond < tailBeyond.
func summarize(ms []float64) latency {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	l := latency{n: len(s)}
	if l.n == 0 {
		return l
	}
	l.p50 = quantile(s, 0.5)
	i := l.n - 1 - tailBeyond
	if i < 0 {
		i = l.n - 1
	}
	l.tail = s[i]
	l.tailP = 100 * float64(i+1) / float64(l.n)
	l.beyond = l.n - 1 - i
	return l
}

// String renders the tail's percentile and sample counts.
func (l latency) String() string {
	return fmt.Sprintf("p%.1f, n=%d, %d beyond", l.tailP, l.n, l.beyond)
}

// quantile interpolates the q-quantile of an ascending sample. An
// infinite neighbour (a failed operation) makes the result infinite.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	f := pos - float64(i)
	if f == 0 {
		return s[i]
	}
	if math.IsInf(s[i+1], 1) {
		return s[i+1]
	}
	return s[i] + f*(s[i+1]-s[i])
}

// median of xs (NaN when empty).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// poll is one open-loop operation's timeline.
type poll struct {
	due, sent, done time.Time
	err             error
}

// latencyMs is the poll's latency as an open loop counts it: from when
// it was due, so a stall also charges the polls queued behind it.
// Failed polls count as beyond any latency.
func (p poll) latencyMs() float64 {
	if p.err != nil {
		return failedMs
	}
	return ms(p.done.Sub(p.due))
}

// lateMs is how late the generator sent the poll against its schedule.
func (p poll) lateMs() float64 { return ms(p.sent.Sub(p.due)) }

// clock is the time source of an open loop; tests substitute a fake.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// openLoop issues do on a fixed schedule — one every interval from
// start — from a single goroutine until the next due time reaches end.
// do returns when its response was complete and whether it was
// correct; checking it may take longer. A poll that runs long delays
// the ones due behind it; each keeps its own due time, so the delay
// shows in their latencies rather than vanishing from the sample.
func openLoop(c clock, start, end time.Time, interval time.Duration, do func() (done time.Time, err error)) []poll {
	var polls []poll
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if !due.Before(end) {
			return polls
		}
		if d := due.Sub(c.Now()); d > 0 {
			c.Sleep(d)
		}
		p := poll{due: due, sent: c.Now()}
		p.done, p.err = do()
		polls = append(polls, p)
	}
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
