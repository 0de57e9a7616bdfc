package main

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"
)

func TestSummarizeMedianAndTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	rand.New(rand.NewPCG(1, 2)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	l := summarize(xs)
	if l.n != 100 || l.p50 != 50.5 {
		t.Fatalf("n %d p50 %v, want 100 and 50.5", l.n, l.p50)
	}
	// The tail is the highest sample with ten beyond it: 90 of 1..100.
	if l.tail != 90 || l.tailP != 90 || l.beyond != 10 {
		t.Fatalf("tail %v at p%v with %d beyond, want 90 at p90 with 10", l.tail, l.tailP, l.beyond)
	}
	if got := l.String(); got != "p90.0, n=100, 10 beyond" {
		t.Fatalf("String() = %q", got)
	}

	// With 12 samples only the second lowest has ten beyond it.
	l = summarize([]float64{3, 1, 2, 5, 4, 6, 7, 8, 9, 10, 11, 12})
	if l.tail != 2 || l.beyond != 10 {
		t.Fatalf("n=12: tail %v with %d beyond, want 2 with 10", l.tail, l.beyond)
	}
}

func TestSummarizeFewSamplesReportsMax(t *testing.T) {
	l := summarize([]float64{4, 2, 8, 6})
	if l.tail != 8 || l.beyond != 0 || l.tailP != 100 {
		t.Fatalf("tail %v at p%v with %d beyond, want the maximum 8 at p100 with 0", l.tail, l.tailP, l.beyond)
	}
	if l.p50 != 5 {
		t.Fatalf("p50 %v, want 5", l.p50)
	}
}

func TestFailuresCountBeyondAnyLatency(t *testing.T) {
	var xs []float64
	for i := 1; i <= 20; i++ {
		xs = append(xs, float64(i))
	}
	for i := 0; i < 11; i++ {
		xs = append(xs, failedMs)
	}
	l := summarize(xs)
	if !math.IsInf(l.tail, 1) {
		t.Fatalf("with 11 of 31 operations failed the tail is %v, want +Inf", l.tail)
	}
	if l.p50 != 16 {
		t.Fatalf("p50 %v, want 16 (failures rank above every latency)", l.p50)
	}
	mostlyFailed := []float64{1, 2, 3, failedMs, failedMs, failedMs, failedMs}
	if l := summarize(mostlyFailed); !math.IsInf(l.p50, 1) {
		t.Fatalf("with most operations failed the median is %v, want +Inf", l.p50)
	}
	if got := (poll{err: errMismatch}).latencyMs(); !math.IsInf(got, 1) {
		t.Fatalf("a failed poll's latency is %v, want +Inf", got)
	}
}

// fakeClock advances only when slept on or told to.
type fakeClock struct{ t time.Time }

func (c *fakeClock) Now() time.Time        { return c.t }
func (c *fakeClock) Sleep(d time.Duration) { c.t = c.t.Add(d) }

func TestOpenLoopChargesStallToQueuedPolls(t *testing.T) {
	const iv = 10 * time.Millisecond
	c := &fakeClock{t: time.Unix(1000, 0)}
	start := c.t
	k := 0
	polls := openLoop(c, start, start.Add(12*iv), iv, func() (time.Time, error) {
		service := 5 * time.Millisecond
		if k == 2 {
			service = 45 * time.Millisecond // the stall
		}
		k++
		c.Sleep(service)
		return c.Now(), nil
	})
	if len(polls) != 12 {
		t.Fatalf("%d polls, want 12", len(polls))
	}
	// Poll 2 is due at 20ms and done at 65ms. The polls due at 30, 40,
	// ... ms wait behind it; each is timed from its own due time.
	want := []float64{5, 5, 45, 40, 35, 30, 25, 20, 15, 10, 5, 5}
	late := []float64{0, 0, 0, 35, 30, 25, 20, 15, 10, 5, 0, 0}
	for i, p := range polls {
		if got := p.latencyMs(); got != want[i] {
			t.Errorf("poll %d latency %vms, want %vms", i, got, want[i])
		}
		if got := p.lateMs(); got != late[i] {
			t.Errorf("poll %d sent %vms late, want %vms", i, got, late[i])
		}
	}
}
