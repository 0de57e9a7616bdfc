package engine

import (
	"bytes"
	"io"
	"testing"

	"twodprof/internal/bpred"
	"twodprof/internal/core"
	"twodprof/internal/trace"
)

// The zero-alloc contract: once a session is warmed up — scratch
// buffers grown to the stream's chunk size and every hot PC interned to
// its record — the steady-state ingest path allocates nothing per
// batch, wherever the PCs sit in the address space. The only two
// places allocation is permitted are session setup (engine/reader/
// record construction, buffer and record-index growth on the first
// pass) and Finish/Report (report assembly). The tests below pin that
// contract with testing.AllocsPerRun, over a compact PC layout and the
// same stream spread over 4 MiB of text, so a stray per-batch
// allocation fails CI rather than quietly eating 20% of throughput.

// allocLayouts are the PC layouts every zero-alloc test runs over.
var allocLayouts = []struct {
	name string
	wide bool
}{{"compact", false}, {"wide", true}}

// allocStream builds a deterministic branchy event stream over 64
// sites (so the warm-up pass creates every record the measured pass
// will touch): 4 bytes apart, or with wide, the same sites spread over
// 4 MiB (an odd multiplier keeps them distinct).
func allocStream(n int, wide bool) []trace.Event {
	ev := make([]trace.Event, n)
	state := uint64(0x9e3779b97f4a7c15)
	for i := range ev {
		state = state*6364136223846793005 + 1442695040888963407
		site := state >> 52 & 0x3f
		if wide {
			site = site * 0x9e3779b1 & (1<<20 - 1)
		}
		ev[i] = trace.Event{
			PC:    trace.PC(0x400000 + 4*site),
			Taken: state>>40&1 == 1,
		}
	}
	return ev
}

// btr2Bytes encodes events as an uncompressed BTR2 stream.
func btr2Bytes(t *testing.T, events []trace.Event, chunkEvents int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewBTR2Writer(&buf, trace.BTR2Options{ChunkEvents: chunkEvents})
	if err != nil {
		t.Fatalf("NewBTR2Writer: %v", err)
	}
	w.BranchBatch(events)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

func newAllocEngine(t *testing.T, metric core.Metric) *Engine {
	t.Helper()
	cfg := testConfig(metric)
	opts := Options{Workers: 1}
	if metric == core.MetricAccuracy {
		opts.Predictor = bpred.NameGshare4KB
	}
	eng, err := New(cfg, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return eng
}

// TestBTR2ReplayIngestZeroAlloc replays pre-read BTR2 chunks through
// the full decode→predict→route→profile pipeline (the exact loop body
// of BTR2Reader.Replay's SoA fast path) and asserts the steady state
// allocates nothing.
func TestBTR2ReplayIngestZeroAlloc(t *testing.T) {
	for _, metric := range []core.Metric{core.MetricAccuracy, core.MetricBias} {
		t.Run(metric.String(), func(t *testing.T) {
			for _, l := range allocLayouts {
				t.Run(l.name, func(t *testing.T) {
					data := btr2Bytes(t, allocStream(20000, l.wide), 4096)
					r, err := trace.NewBTR2Reader(bytes.NewReader(data))
					if err != nil {
						t.Fatalf("NewBTR2Reader: %v", err)
					}
					var chunks []*trace.Chunk
					for {
						c, err := r.NextChunk()
						if err == io.EOF {
							break
						}
						if err != nil {
							t.Fatalf("NextChunk: %v", err)
						}
						chunks = append(chunks, c)
					}

					eng := newAllocEngine(t, metric)
					var soa trace.SoABatch
					replay := func() {
						for _, c := range chunks {
							if err := c.DecodeSoA(&soa); err != nil {
								t.Fatalf("DecodeSoA: %v", err)
							}
							eng.BranchBatchSoA(&soa)
						}
					}
					replay() // warm-up: session setup is where allocation is allowed

					if allocs := testing.AllocsPerRun(10, replay); allocs != 0 {
						t.Fatalf("steady-state BTR2 replay ingest: %v allocs/run, want 0", allocs)
					}
					if _, err := eng.Finish(); err != nil {
						t.Fatalf("Finish: %v", err)
					}
				})
			}
		})
	}
}

// TestEngineSpanRoutingZeroAlloc drives a warmed stream through the
// engine's two ingress paths — SoA span routing (slice clock, inline
// apply) and the per-event Branch buffer — and asserts zero
// steady-state allocations.
func TestEngineSpanRoutingZeroAlloc(t *testing.T) {
	for _, metric := range []core.Metric{core.MetricAccuracy, core.MetricBias} {
		t.Run(metric.String(), func(t *testing.T) {
			t.Run("BranchBatchSoA", func(t *testing.T) {
				for _, l := range allocLayouts {
					t.Run(l.name, func(t *testing.T) {
						var soa trace.SoABatch
						soa.FromEvents(allocStream(10000, l.wide))
						eng := newAllocEngine(t, metric)
						eng.BranchBatchSoA(&soa) // warm-up
						if allocs := testing.AllocsPerRun(10, func() {
							eng.BranchBatchSoA(&soa)
						}); allocs != 0 {
							t.Fatalf("steady-state SoA span routing: %v allocs/run, want 0", allocs)
						}
					})
				}
			})
			t.Run("Branch", func(t *testing.T) {
				for _, l := range allocLayouts {
					t.Run(l.name, func(t *testing.T) {
						events := allocStream(10000, l.wide)
						eng := newAllocEngine(t, metric)
						feed := func() {
							for _, ev := range events {
								eng.Branch(ev.PC, ev.Taken)
							}
						}
						feed() // warm-up
						if allocs := testing.AllocsPerRun(10, feed); allocs != 0 {
							t.Fatalf("steady-state per-event Branch: %v allocs/run, want 0", allocs)
						}
					})
				}
			})
		})
	}
}
