// Command perfbench is the repository's benchmark. It generates seeded
// inputs, drives one or all of three workloads through the system's
// public entry points, checks every result against a reference report,
// and prints each metric by name with its unit. The last line of
// standard output is one JSON object with the metrics of the run.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload offline-wide --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that prices each layer. See perfbench/README.md for every
// metric's definition and the workloads' shapes.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed used when none is given; heldOutSeed is kept
// out of tuning, for confirming a claimed gain.
const (
	defaultSeed = 1
	heldOutSeed = 20061
)

// workload names one benchmark workload.
type workload struct {
	name    string
	prepare func(e *env) (bench, error)
}

var workloads = []workload{
	{"offline-wide", prepareOffline},
	{"ingest-durable", prepareIngest},
	{"routed-live", prepareRouted},
}

// bench is one prepared workload: inputs generated, references known.
type bench interface {
	// describe prints the input's properties.
	describe(w io.Writer)
	// setup constructs the system under test and returns the time until
	// it accepted its first unit of work. The system stays up for the
	// timed phase when keep is set, and is torn down otherwise.
	setup(keep bool) (time.Duration, error)
	// timed runs the closed (and open) loops for d. tr records spans in
	// the traced run and is nil otherwise.
	timed(d time.Duration, tr *tracer) (*phase, error)
	// layers runs the traced run's single-layer passes and variants.
	layers(tr *tracer, res *result) error
	// teardown stops the system under test and removes its files.
	teardown()
	// setupReps is how many set-ups one run measures.
	setupReps() int
}

// phase is what one timed phase measured, on the wall clock.
type phase struct {
	tally
	start, end time.Time // the timed loop's start and end
	sessionMs  []float64 // per job or session; failures as failedMs
	reportMs   []float64 // per report read; failures as failedMs
}

func (p *phase) elapsed() time.Duration { return p.end.Sub(p.start) }

// options are the command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string
}

// env is one process's run context.
type env struct {
	opts options
	dir  string // scratch directory of this process, removed at exit
	out  io.Writer
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+" or all")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, fmt.Sprintf("input seed (%d is held out for confirming claims)", heldOutSeed))
	fs.Float64Var(&o.seconds, "seconds", 30, "length of the timed phase, in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for generated inputs, data dirs and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 || o.seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: --trace takes 0 or 1, --seconds a positive number, and no arguments follow the flags")
		return 2
	}
	selected, err := selectWorkloads(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e := &env{opts: o, dir: dir, out: stdout}
	fmt.Fprintf(stdout, "perfbench: seed %d, %.0fs phases, trace %d; nproc %d, GOMAXPROCS %d, %s %s/%s\n",
		o.seed, o.seconds, traceFlag, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)

	code := 0
	for _, w := range selected {
		var res *result
		if o.trace {
			res, err = tracedRun(e, w)
		} else {
			res, err = endToEndRun(e, w)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		res.print(stdout)
		if !res.correct() {
			fmt.Fprintf(stderr, "perfbench: %s: %d results disagree with their reference (first: %v)\n",
				w.name, res.t.mismatched, res.t.firstErr)
			code = 1
		}
	}
	return code
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func selectWorkloads(name string) ([]workload, error) {
	if name == "all" {
		return workloads, nil
	}
	for _, w := range workloads {
		if w.name == name {
			return []workload{w}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want %s or all)", name, strings.Join(workloadNames(), ", "))
}

// endToEndRun prepares w, measures its set-up several times, then runs
// the untraced timed phase and derives the end-to-end metrics.
func endToEndRun(e *env, w workload) (*result, error) {
	b, err := w.prepare(e)
	if err != nil {
		return nil, err
	}
	defer b.teardown()
	b.describe(e.out)
	res := newResult(w.name)

	// Half the set-ups run before the timed phase, the last of them
	// staying up for it, and the rest after it beside the idle system,
	// so the median samples the host at both ends of the run.
	n := b.setupReps()
	setupS, err := measureSetup(b, n-n/2, true)
	if err != nil {
		return nil, err
	}
	base := heapLive()
	h := startHeapSampler()
	steal0, total0 := cpuTicks()
	cpu0, cerr0 := cpuTime()
	ph, err := b.timed(seconds(e.opts.seconds), nil)
	cpu1, cerr1 := cpuTime()
	steal1, total1 := cpuTicks()
	peak := h.stop()
	if err == nil {
		err = errors.Join(cerr0, cerr1)
	}
	if err != nil {
		return nil, err
	}
	if ph.attempted == 0 {
		return nil, fmt.Errorf("no operation finished in the timed phase")
	}
	res.t.add(&ph.tally)
	more, err := measureSetup(b, n/2, false)
	if err != nil {
		return nil, err
	}
	setupS = append(setupS, more...)

	// The wall-clock figures are printed but not gated: on a shared
	// virtual machine they move with the neighbours' load by more than
	// the largest bound a gated metric may have. The process's CPU time
	// per event, which excludes the time the hypervisor gave to other
	// guests, and the set-up time are gated.
	secs := ph.elapsed().Seconds()
	stolen := ""
	if total1 > total0 {
		stolen = fmt.Sprintf("%.0f%% of CPU time stolen by the hypervisor meanwhile", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	res.info("events_per_s", float64(ph.events)/secs, "events/s", stolen)
	res.info("sessions_per_s", float64(ph.units)/secs, "sessions/s", "")
	sess, rep := summarize(ph.sessionMs), summarize(ph.reportMs)
	res.info("session_ms_p50", sess.p50, "ms", "")
	res.info("session_ms_tail", sess.tail, "ms", sess.String())
	res.info("report_ms_p50", rep.p50, "ms", "")
	res.info("report_ms_tail", rep.tail, "ms", rep.String())
	res.set("cpu_ns_per_event", float64(cpu1-cpu0)/float64(ph.events), "ns/event",
		"user and system CPU time of the process, system and load generator together")
	res.set("setup_s", median(setupS), "s", fmt.Sprintf("median of %d set-ups", len(setupS)))
	res.info("mem_peak_mb", float64(int64(peak)-int64(base))/(1<<20), "MiB", "peak live heap minus the heap after set-up")
	res.info("errors_frac", res.t.errorsFrac(), "ratio",
		fmt.Sprintf("%d failed of %d attempted, %d mismatched", res.t.failed, res.t.attempted, res.t.mismatched))
	return res, nil
}

// measureSetup sets the system up reps times and returns each set-up
// time in seconds. With keep, the last set-up stays up for the timed
// phase. Each set-up starts from a collected heap, so none pays for
// garbage that input generation or the previous set-up left behind.
func measureSetup(b bench, reps int, keep bool) ([]float64, error) {
	out := make([]float64, reps)
	for i := range out {
		runtime.GC()
		d, err := b.setup(keep && i == reps-1)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out[i] = d.Seconds()
	}
	return out, nil
}

// cpuTime is the user plus system CPU time the process has used. The
// kernel charges time a hypervisor gave to other guests to steal, not
// to the process.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("reading the process CPU time: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// cpuTicks returns the steal and the total of the CPU times in the
// aggregate line of /proc/stat, in ticks, or zeros where it cannot be
// read. The share stolen over a phase is printed as a diagnostic of
// host noise; it is never taken off a measured time.
func cpuTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; the guest times
	// after them are already counted in user and nice.
	for i, x := range f[1:9] {
		n, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// tracedRun prices every layer. The given workload's timed phase runs
// in alternating untraced and traced sub-phases (for
// bench.trace_overhead and the runtime metrics); then every workload's
// single-layer passes run on
// that workload's own inputs, so every per-layer metric is measured
// whichever workload the run was given.
func tracedRun(e *env, w workload) (*result, error) {
	res := newResult(w.name)
	tr := newTracer()
	for _, v := range workloads {
		b, err := v.prepare(e)
		if err != nil {
			return nil, err
		}
		if v.name == w.name {
			b.describe(e.out)
			if err := overhead(e, b, tr, res); err != nil {
				b.teardown()
				return nil, err
			}
		}
		err = b.layers(tr, res)
		b.teardown()
		if err != nil {
			return nil, fmt.Errorf("%s layers: %w", v.name, err)
		}
	}
	path := filepath.Join(e.opts.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, e.opts.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	spans := tr.snapshot()
	fmt.Fprintf(e.out, "spans: %d written to %s\n", len(spans), path)
	printSelfTimes(e.out, spans)
	return res, nil
}

// overheadPairs is how many pairs of an untraced and a traced
// sub-phase the traced run alternates.
const overheadPairs = 4

// overhead runs b's timed phase as overheadPairs pairs of an untraced
// and a traced sub-phase on one set-up, together the run length. The
// pairs alternate which half runs first, so drift and the state the
// system accumulates (finished sessions, a growing data directory)
// weigh on both sides alike. bench.trace_overhead is the median of the
// pairs' rate ratios; the runtime metrics are deltas around the
// untraced sub-phases.
func overhead(e *env, b bench, tr *tracer, res *result) error {
	if _, err := b.setup(true); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	d := seconds(e.opts.seconds / (2 * overheadPairs))
	var ratios []float64
	var plain runtimeReading
	var plainEvents int64
	for i := 0; i < overheadPairs; i++ {
		var rate [2]float64 // untraced, traced
		for k := 0; k < 2; k++ {
			traced := (i+k)%2 == 1
			var t *tracer
			if traced {
				t = tr
			}
			before := readRuntime()
			ph, err := b.timed(d, t)
			if err != nil {
				return err
			}
			after := readRuntime()
			res.t.add(&ph.tally)
			if traced {
				rate[1] = float64(ph.events) / ph.elapsed().Seconds()
				continue
			}
			rate[0] = float64(ph.events) / ph.elapsed().Seconds()
			plainEvents += ph.events
			plain.allocBytes += after.allocBytes - before.allocBytes
			plain.gcCPU += after.gcCPU - before.gcCPU
			plain.totalCPU += after.totalCPU - before.totalCPU
		}
		ratios = append(ratios, rate[1]/rate[0])
	}
	res.set("bench.trace_overhead", median(ratios), "ratio",
		fmt.Sprintf("traced / untraced events_per_s on %s, median of %d alternating pairs", res.workload, overheadPairs))
	res.layer("runtime.alloc_bytes_per_event", plain.allocBytes/float64(plainEvents), "bytes/event",
		"events_per_s on "+res.workload)
	res.layer("runtime.gc_cpu_frac", plain.gcCPU/plain.totalCPU, "ratio",
		"events_per_s and the *_tail metrics on "+res.workload)
	return nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// result is one workload run's metrics and operation counts.
type result struct {
	workload string
	t        tally
	names    []string
	vals     map[string]value
}

type value struct {
	v      float64
	unit   string
	note   string
	inJSON bool
}

func newResult(workload string) *result {
	return &result{workload: workload, vals: make(map[string]value)}
}

// set records a metric of the run's JSON result.
func (r *result) set(name string, v float64, unit, note string) {
	r.put(name, value{v, unit, note, true})
}

// info records a metric that is printed but left out of the JSON
// result: a figure too unsteady on a shared machine to gate on, or one
// the result's own fields already carry.
func (r *result) info(name string, v float64, unit, note string) {
	r.put(name, value{v, unit, note, false})
}

func (r *result) put(name string, v value) {
	if _, ok := r.vals[name]; !ok {
		r.names = append(r.names, name)
	}
	r.vals[name] = v
}

// layer sets a per-layer metric, noting the end-to-end metric and
// workload it should move.
func (r *result) layer(name string, v float64, unit, moves string) {
	r.set(name, v, unit, "moves "+moves)
}

func (r *result) correct() bool { return r.t.mismatched == 0 }

func (t *tally) errorsFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// jsonNumber keeps a metric encodable: a failed operation's infinite
// latency is reported as the largest float64.
func jsonNumber(v float64) float64 {
	switch {
	case math.IsInf(v, 1), math.IsNaN(v):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	}
	return v
}

// print writes one line per metric, then the JSON result line.
func (r *result) print(w io.Writer) {
	type metricJSON struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{r.correct(), r.t.attempted, r.t.failed, make(map[string]metricJSON)}
	for _, name := range r.names {
		v := r.vals[name]
		line := fmt.Sprintf("%-34s %14.6g %-12s", name, v.v, v.unit)
		if v.note != "" {
			line += " " + v.note
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
		if v.inJSON {
			out.Metrics[name] = metricJSON{jsonNumber(v.v), v.unit}
		}
	}
	js, _ := json.Marshal(out) // plain structs and finite floats always encode
	fmt.Fprintln(w, string(js))
}

// Runtime readings.

const (
	mHeapLive   = "/gc/heap/live:bytes"
	mAllocBytes = "/gc/heap/allocs:bytes"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU   = "/cpu/classes/total:cpu-seconds"
)

func readMetrics(names ...string) []metrics.Sample {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// heapLive returns the live heap after a collection: the level inputs
// and references hold before a timed phase.
func heapLive() uint64 {
	runtime.GC()
	return readMetrics(mHeapLive)[0].Value.Uint64()
}

type runtimeReading struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeReading {
	s := readMetrics(mAllocBytes, mGCCPU, mTotalCPU)
	return runtimeReading{float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()}
}

// heapSampler tracks the peak live heap while a phase runs: the
// largest heap a garbage collection found in use.
type heapSampler struct {
	done chan struct{}
	peak chan uint64
}

// heapSampleEvery is how often the sampler reads the live heap, which
// changes once per collection.
const heapSampleEvery = 2 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{}), peak: make(chan uint64)}
	go func() {
		s := []metrics.Sample{{Name: mHeapLive}}
		var peak uint64
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-h.done:
				h.peak <- peak
				return
			case <-t.C:
			}
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
		}
	}()
	return h
}

// stop ends sampling and returns the peak.
func (h *heapSampler) stop() uint64 {
	close(h.done)
	return <-h.peak
}
