// Command tracegen records, inspects and replays binary branch traces
// (BTR1, BTR2 and BTR3 formats).
//
// Usage:
//
//	tracegen gen  -bench gap -input train -o gap-train.btr
//	tracegen gen  -kernel lzchain -input level9 -format btr2 -o lz9.btr
//	tracegen gen  -bench gzip -input train -threads 4 -sched bursty -o gzip-mt.btr
//	tracegen gen  -kernel lzchain -input train -post http://localhost:8377/v1/ingest
//	tracegen info -i gap-train.btr
//	tracegen replay -i gap-train.btr -predictor gshare-4KB
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"twodprof/internal/bpred"
	"twodprof/internal/progs"
	"twodprof/internal/spec"
	"twodprof/internal/synth"
	"twodprof/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "gen":
		cmdGen(os.Args[2:])
	case "info":
		cmdInfo(os.Args[2:])
	case "replay":
		cmdReplay(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `tracegen <command> [flags]

commands:
  gen     record a workload's branch stream to a trace file
  info    summarise a trace file
  replay  replay a trace through a branch predictor`)
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}

// source resolves the workload selection flags shared by gen. thread
// picks one stream of a -threads run: synthetic benchmarks perturb the
// stream seed per thread (same code and input model, different data),
// while VM kernels — deterministic programs — replay identically on
// every thread.
func source(benchName, kernel, input string, thread int) (trace.Source, error) {
	switch {
	case benchName != "":
		b, err := spec.Get(benchName)
		if err != nil {
			return nil, err
		}
		w, err := b.Workload(input)
		if err != nil || thread == 0 {
			return w, err
		}
		tw := *w
		tw.Seed += uint64(thread) * 0x9e3779b97f4a7c15
		return &tw, nil
	case kernel != "":
		return progs.StandardInput(kernel, input)
	default:
		return nil, fmt.Errorf("need -bench or -kernel")
	}
}

func cmdGen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	benchName := fs.String("bench", "", "synthetic benchmark name")
	kernel := fs.String("kernel", "", "VM kernel name (typesum, lzchain, bsearch, inssort, fsm)")
	input := fs.String("input", "train", "input set name")
	out := fs.String("o", "", "output trace file")
	post := fs.String("post", "", "post the trace to a profiled daemon's (or router's) ingest URL (e.g. http://localhost:8377/v1/ingest) instead of, or as well as, -o")
	retries := fs.Int("retries", 4, "retry a failed -post this many times on 429/5xx or connection errors")
	retryBase := fs.Duration("retry-base", 250*time.Millisecond, "first -post retry delay; doubles per attempt with jitter, Retry-After overrides")
	format := fs.String("format", "btr1", "trace format: btr1 (flat stream), btr2 (chunked, parallel-replayable) or btr3 (chunked, context-tagged)")
	chunk := fs.Int("chunk", 0, "btr2/btr3 events per chunk (0 = default)")
	compress := fs.Bool("z", false, "compress the trace (btr1: gzip wrapper; btr2/btr3: per-chunk deflate, still seekable)")
	threads := fs.Int("threads", 1, "interleave N threads of the workload into one multi-context stream")
	sched := fs.String("sched", synth.SchedRoundRobin, "interleave schedule for -threads > 1: "+strings.Join(synth.Schedules(), " or "))
	quantum := fs.Int("quantum", 0, "interleave quantum: events per turn (round-robin) or mean burst length (bursty); 0 = default")
	seed := fs.Uint64("seed", 1, "bursty schedule seed")
	fs.Parse(args)
	if *out == "" && *post == "" {
		fail(fmt.Errorf("gen: need -o output file and/or -post ingest URL"))
	}
	if *threads < 1 {
		fail(fmt.Errorf("gen: -threads must be at least 1"))
	}
	var src trace.Source
	if *threads > 1 {
		// A multi-context stream needs a format that can carry contexts;
		// resolve an unset -format to btr3 and refuse an explicit
		// context-blind one.
		explicit := false
		fs.Visit(func(f *flag.Flag) { explicit = explicit || f.Name == "format" })
		switch {
		case !explicit:
			*format = "btr3"
		case *format != "btr3":
			fail(fmt.Errorf("gen: -threads %d needs -format btr3 (%s cannot encode contexts)", *threads, *format))
		}
		streams := make([]trace.Source, *threads)
		for i := range streams {
			s, err := source(*benchName, *kernel, *input, i)
			if err != nil {
				fail(err)
			}
			streams[i] = s
		}
		iv, err := synth.NewInterleaved(streams, *sched, *quantum, *seed)
		if err != nil {
			fail(err)
		}
		src = iv
	} else {
		s, err := source(*benchName, *kernel, *input, 0)
		if err != nil {
			fail(err)
		}
		src = s
	}

	var writers []io.Writer
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		writers = append(writers, f)
	}
	// The encoded trace is buffered so a shed or failed post can be
	// retried with an identical body (a streamed request body is gone
	// once the daemon 429s it).
	var buf *bytes.Buffer
	if *post != "" {
		buf = &bytes.Buffer{}
		writers = append(writers, buf)
	}

	w := writers[0]
	if len(writers) > 1 {
		w = io.MultiWriter(writers...)
	}
	var sink interface {
		trace.Sink
		Close() error
	}
	switch *format {
	case "btr3":
		bw, err := trace.NewBTR3Writer(w, trace.BTR2Options{ChunkEvents: *chunk, Compress: *compress})
		if err != nil {
			fail(err)
		}
		sink = bw
	case "btr2":
		bw, err := trace.NewBTR2Writer(w, trace.BTR2Options{ChunkEvents: *chunk, Compress: *compress})
		if err != nil {
			fail(err)
		}
		sink = bw
	case "btr1":
		if *chunk != 0 {
			fail(fmt.Errorf("gen: -chunk only applies to -format btr2 or btr3"))
		}
		if *compress {
			cw, err := trace.NewCompressedWriter(w)
			if err != nil {
				fail(err)
			}
			sink = cw
		} else {
			tw, err := trace.NewWriter(w)
			if err != nil {
				fail(err)
			}
			sink = tw
		}
	default:
		fail(fmt.Errorf("gen: unknown -format %q (want btr1, btr2 or btr3)", *format))
	}
	n := src.Run(sink)
	if err := sink.Close(); err != nil {
		fail(err)
	}
	if *out != "" {
		fmt.Printf("wrote %d branch events to %s\n", n, *out)
	}
	if buf != nil {
		status, body, err := postWithRetry(*post, buf.Bytes(), *retries, *retryBase)
		if err != nil {
			fail(fmt.Errorf("gen: posting to %s: %w", *post, err))
		}
		fmt.Printf("posted %d branch events to %s (HTTP %d)\n%s", n, *post, status, body)
		if status != http.StatusOK {
			if !strings.HasSuffix(body, "\n") {
				fmt.Println()
			}
			os.Exit(1)
		}
	}
}

// postWithRetry posts the trace, retrying shed (429) and transient
// (5xx, connection-error) failures up to retries times with
// exponentially growing, jittered delays. A Retry-After header from
// the daemon overrides the computed backoff — that is the load-shed
// contract: the server names the earliest useful retry time.
func postWithRetry(url string, body []byte, retries int, base time.Duration) (status int, respBody string, err error) {
	if base <= 0 {
		base = 250 * time.Millisecond
	}
	const maxDelay = 15 * time.Second
	for attempt := 0; ; attempt++ {
		var retryAfter time.Duration
		resp, postErr := http.Post(url, "application/octet-stream", bytes.NewReader(body))
		gotResponse := postErr == nil
		if gotResponse {
			raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			status, respBody = resp.StatusCode, string(raw)
			if status != http.StatusTooManyRequests && status < 500 {
				return status, respBody, nil
			}
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs >= 0 {
				retryAfter = time.Duration(secs) * time.Second
			}
			postErr = fmt.Errorf("HTTP %d", status)
		}
		if attempt >= retries {
			if gotResponse {
				return status, respBody, nil // exhausted: report the last response as-is
			}
			return 0, "", postErr
		}
		// Full jitter over an exponentially growing window desynchronises
		// a fleet of generators all shed at the same instant.
		delay := base << attempt
		if delay > maxDelay {
			delay = maxDelay
		}
		delay = time.Duration(rand.Int63n(int64(delay))) + delay/2
		if retryAfter > delay {
			delay = retryAfter
		}
		fmt.Fprintf(os.Stderr, "tracegen: post attempt %d/%d failed (%v), retrying in %s\n",
			attempt+1, retries+1, postErr, delay.Round(time.Millisecond))
		time.Sleep(delay)
	}
}

func cmdInfo(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("i", "", "input trace file")
	fs.Parse(args)
	if *in == "" {
		fail(fmt.Errorf("info: need -i input file"))
	}
	f, err := os.Open(*in)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	r, err := trace.OpenReader(f)
	if err != nil {
		fail(err)
	}
	format := "btr1"
	switch r.(type) {
	case *trace.BTR2Reader:
		format = "btr2"
	case *trace.BTR3Reader:
		format = "btr3"
	}
	is := &infoSink{}
	n, err := r.Replay(is)
	if err != nil {
		fail(err)
	}
	c, taken, cc := &is.c, is.taken, &is.ctx
	fmt.Printf("format        : %s\n", format)
	if format == "btr2" || format == "btr3" {
		// The footer index gives chunk geometry without a second pass.
		// It is only reachable on an uncompressed (not gzip-wrapped)
		// file; skip silently otherwise.
		readIndex := trace.ReadBTR2Index
		if format == "btr3" {
			readIndex = trace.ReadBTR3Index
		}
		if st, err := f.Stat(); err == nil {
			if ix, err := readIndex(f, st.Size()); err == nil {
				fmt.Printf("chunks        : %d\n", len(ix.Chunks))
			}
		}
	}
	fmt.Printf("events        : %d\n", n)
	fmt.Printf("static sites  : %d\n", c.Static())
	if n > 0 {
		fmt.Printf("taken rate    : %.2f%%\n", 100*float64(taken)/float64(n))
	}
	if ctxs := cc.contexts(); len(ctxs) > 1 {
		fmt.Printf("contexts      : %d\n", len(ctxs))
		for _, ctx := range ctxs {
			fmt.Printf("  ctx %-8d : %d events\n", ctx, cc.count[ctx])
		}
	}
}

// infoSink gathers every cmdInfo statistic in one pass. It implements
// trace.CtxSink itself (rather than composing through trace.Tee, whose
// fan-out is plain Branch and so would collapse the contexts), so
// replay hands it every event's execution context.
type infoSink struct {
	c     trace.Counter
	taken int64
	ctx   ctxCounter
}

// Branch implements trace.Sink; events on this path are context 0.
func (s *infoSink) Branch(pc trace.PC, taken bool) { s.BranchCtx(0, pc, taken) }

// BranchCtx implements trace.CtxSink.
func (s *infoSink) BranchCtx(ctx trace.Context, pc trace.PC, taken bool) {
	s.c.Branch(pc, taken)
	if taken {
		s.taken++
	}
	s.ctx.add(ctx, 1)
}

// ctxCounter tallies events per execution context.
type ctxCounter struct {
	count map[trace.Context]int64
}

func (cc *ctxCounter) add(ctx trace.Context, n int64) {
	if cc.count == nil {
		cc.count = map[trace.Context]int64{}
	}
	cc.count[ctx] += n
}

// contexts returns the observed context ids in ascending order.
func (cc *ctxCounter) contexts() []trace.Context {
	out := make([]trace.Context, 0, len(cc.count))
	for ctx := range cc.count {
		out = append(out, ctx)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func cmdReplay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("i", "", "input trace file")
	predName := fs.String("predictor", bpred.NameGshare4KB, "branch predictor configuration")
	top := fs.Int("top", 10, "show the N most mispredicted branches")
	fs.Parse(args)
	if *in == "" {
		fail(fmt.Errorf("replay: need -i input file"))
	}
	p, err := bpred.New(*predName)
	if err != nil {
		fail(err)
	}
	f, err := os.Open(*in)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	r, err := trace.OpenReader(f)
	if err != nil {
		fail(err)
	}
	acct := bpred.NewAccounting(p)
	if _, err := r.Replay(acct); err != nil {
		fail(err)
	}
	fmt.Printf("predictor     : %s\n", p.Name())
	fmt.Printf("events        : %d\n", acct.Total.Exec)
	fmt.Printf("accuracy      : %.2f%%\n", acct.Total.Accuracy())

	pcs := acct.PCs()
	// Sort by misprediction count, descending.
	for i := 0; i < len(pcs); i++ {
		for j := i + 1; j < len(pcs); j++ {
			si, sj := acct.Site(pcs[i]), acct.Site(pcs[j])
			if sj.Exec-sj.Correct > si.Exec-si.Correct {
				pcs[i], pcs[j] = pcs[j], pcs[i]
			}
		}
	}
	if len(pcs) > *top {
		pcs = pcs[:*top]
	}
	fmt.Printf("top mispredicted branches:\n")
	for _, pc := range pcs {
		s := acct.Site(pc)
		fmt.Printf("  %#8x exec=%-9d acc=%.2f%% misses=%d\n",
			uint64(pc), s.Exec, s.Accuracy(), s.Exec-s.Correct)
	}
}
