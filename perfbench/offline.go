package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"twodprof/internal/bpred"
	"twodprof/internal/core"
	"twodprof/internal/engine"
	"twodprof/internal/trace"
)

// offline-wide: the user's batch job, `profile2d -trace f.btr2
// -workers 0`. One goroutine runs engine.ProfileStream over a BTR2 file
// written at set-up, job after job (a closed loop). The input is one
// wide program: wideSites branch sites remapped over wideSpan bytes of
// text, so the profiler's working set exceeds its dense record window
// and PC deltas need multi-byte varints. No serving layer is involved.

const (
	// offlineEvents is the length of the offline-wide program.
	offlineEvents = 4_000_000
	// offlineSetupReps is how many set-ups one run measures; each is a
	// few milliseconds, so many are taken.
	offlineSetupReps = 61
	// speedupReps is how many jobs each side of the worker-count
	// comparison runs, alternating.
	speedupReps = 2
	// queueSampleEvery is how often the engine pass samples queue depths.
	queueSampleEvery = 200 * time.Microsecond
)

type offline struct {
	prog program
	path string
	size int64 // encoded bytes
}

func prepareOffline(e *env) (bench, error) {
	o := &offline{path: filepath.Join(e.dir, "offline-wide.btr2")}
	f, err := os.Create(o.path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	o.prog, err = writeWide("offline-wide", e.opts.seed, offlineEvents, w)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("writing the offline-wide trace: %w", err)
	}
	st, err := os.Stat(o.path)
	if err != nil {
		return nil, err
	}
	o.size = st.Size()
	return o, nil
}

func (o *offline) describe(w io.Writer) {
	fmt.Fprintf(w, "input offline-wide: %d static branches, PC span %d bytes, %.3f encoded bytes/event, %d events per job\n",
		o.prog.sites, o.prog.pcSpan, float64(o.size)/float64(o.prog.events), o.prog.events)
}

func (o *offline) setupReps() int { return offlineSetupReps }

func (o *offline) teardown() { os.Remove(o.path) }

// options returns the engine options of a job at the given worker
// count (0 is profile2d's -workers 0: one per CPU).
func (o *offline) options(workers int) engine.Options {
	return engine.Options{Workers: workers, Predictor: predictorName}
}

// setup times what a job does before its first unit of work is
// accepted: engine construction, opening the trace, and reading,
// decoding and handing the engine the first chunk.
func (o *offline) setup(bool) (time.Duration, error) {
	t0 := time.Now()
	eng, err := engine.New(profileConfig(), o.options(0))
	if err != nil {
		return 0, err
	}
	defer eng.Abort()
	f, err := os.Open(o.path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	rd, err := trace.NewBTR2Reader(f)
	if err != nil {
		return 0, err
	}
	var c trace.Chunk
	var b trace.SoABatch
	if err := rd.ReadChunkInto(&c); err != nil {
		return 0, err
	}
	if err := c.DecodeSoA(&b); err != nil {
		return 0, err
	}
	eng.BranchBatchSoA(&b)
	return time.Since(t0), nil
}

// job runs one ProfileStream over the trace file.
func (o *offline) job(workers int) (*core.Report, error) {
	f, err := os.Open(o.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return engine.ProfileStream(f, profileConfig(), o.options(workers))
}

// timed runs jobs back to back for d. A job's session time runs from
// opening the trace to its rendered report. Offline jobs have no live
// reads: a job's report is ready when the job ends, so its report time
// is its session time.
func (o *offline) timed(d time.Duration, tr *tracer) (*phase, error) {
	ph := &phase{start: time.Now()}
	for i := 0; time.Since(ph.start) < d; i++ {
		id := fmt.Sprintf("job-%d", i)
		job := tr.start("offline.job", id, 0)
		j0 := time.Now()
		ps := tr.start("engine.ProfileStream", id, job.id)
		rep, err := o.job(0)
		ps.end()
		var got []byte
		if err == nil {
			m := tr.start("core.MarshalJSON", id, job.id)
			got, err = rep.MarshalJSON()
			m.end()
		}
		lat := ms(time.Since(j0))
		job.end()
		if err == nil {
			err = checkBytes(id, got, o.prog.refJSON)
		}
		if !ph.unit(o.prog.events, err) {
			lat = failedMs
		}
		ph.sessionMs = append(ph.sessionMs, lat)
	}
	ph.end = time.Now()
	ph.reportMs = ph.sessionMs
	return ph, nil
}

// layers runs offline-wide's single-layer passes: a sequential ladder
// (decode, predict, profile), the engine under a timing sink, and the
// same job at one worker.
func (o *offline) layers(tr *tracer, res *result) error {
	moves := "events_per_s on offline-wide"
	res.layer("trace.bytes_per_event", float64(o.size)/float64(o.prog.events), "bytes/event",
		"events_per_s on offline-wide, routed-live")

	lad, err := o.ladder(tr)
	if err != nil {
		return err
	}
	res.t.add(&lad.t)
	ev := float64(o.prog.events)
	predict, profile := float64(lad.predict)/ev, float64(lad.profile)/ev
	res.layer("trace.decode_ns_per_event", float64(lad.decode)/ev, "ns/event", moves)
	res.layer("bpred.predict_ns_per_event", predict, "ns/event", moves)
	res.layer("core.profile_ns_per_event", profile, "ns/event", moves)

	ep, err := o.enginePass(tr)
	if err != nil {
		return err
	}
	res.t.add(&ep.t)
	batch := float64(ep.inEngine) / ev
	res.layer("engine.batch_ns_per_event", batch, "ns/event", moves)
	res.layer("engine.decode_wait_s", (ep.replay - ep.inEngine).Seconds(), "s", moves)
	res.layer("engine.route_ns_per_event", batch-predict-profile, "ns/event", moves)
	res.layer("engine.finish_ms", ms(ep.finish), "ms", moves)
	res.layer("engine.queue_depth_max", float64(ep.queueMax), "count",
		fmt.Sprintf("%s (queue cap %d)", moves, engine.DefaultQueueDepth))

	// The same job at Workers 1 (the inline, single-threaded engine) and
	// at the all-CPU default, alternating.
	var one, all []float64
	var t tally
	for i := 0; i < speedupReps; i++ {
		for _, workers := range []int{1, 0} {
			id := fmt.Sprintf("speedup-w%d-%d", workers, i)
			sp := tr.start("layer.job", id, 0)
			j0 := time.Now()
			rep, err := o.job(workers)
			d := time.Since(j0)
			sp.end()
			if err == nil {
				err = checkReport(id, rep, o.prog.refJSON)
			}
			t.op(err)
			if workers == 1 {
				one = append(one, d.Seconds())
			} else {
				all = append(all, d.Seconds())
			}
		}
	}
	res.t.add(&t)
	res.layer("engine.speedup_vs_1worker", median(one)/median(all), "ratio", moves)
	return nil
}

// ladderTimes are the per-layer totals of the sequential ladder pass.
type ladderTimes struct {
	t                        tally
	decode, predict, profile time.Duration
}

// ladder decodes, predicts and profiles the trace one chunk at a time
// on one goroutine, with a span around each layer call. The profile
// rung is a hardware-mode profiler fed the predictor's hit bitmaps; its
// report must match the reference.
func (o *offline) ladder(tr *tracer) (*ladderTimes, error) {
	f, err := os.Open(o.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rd, err := trace.NewBTR2Reader(f)
	if err != nil {
		return nil, err
	}
	pred, err := bpred.New(predictorName)
	if err != nil {
		return nil, err
	}
	prof, err := core.NewHardwareProfiler(profileConfig())
	if err != nil {
		return nil, err
	}
	lt := &ladderTimes{}
	const op = "ladder"
	root := tr.start("layer.ladder", op, 0)
	var c trace.Chunk
	var b trace.SoABatch
	var hits []uint64
	for {
		sp := tr.start("trace.decode", op, root.id)
		err := rd.ReadChunkInto(&c)
		if err == nil {
			err = c.DecodeSoA(&b)
		}
		lt.decode += sp.end()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if w := (b.Len() + 63) / 64; cap(hits) < w {
			hits = make([]uint64, w)
		}
		hits = hits[:(b.Len()+63)/64]
		sp = tr.start("bpred.predict", op, root.id)
		bpred.ApplyBatchSoA(pred, b.PCs, b.Taken, hits)
		lt.predict += sp.end()
		sp = tr.start("core.profile", op, root.id)
		prof.OutcomeBatchSoA(b.PCs, b.Taken, hits, 0)
		lt.profile += sp.end()
	}
	root.end()
	rep := prof.Finish()
	// A hardware-mode profiler is not told which predictor produced its
	// outcomes; the report names it so the rest can be compared.
	rep.Predictor = predictorName
	lt.t.op(checkReport("ladder profile pass", rep, o.prog.refJSON))
	return lt, nil
}

// engineTimes are the measurements of the engine pass.
type engineTimes struct {
	t        tally
	replay   time.Duration // ParallelReplay wall time
	inEngine time.Duration // time inside Engine.BranchBatchSoA
	finish   time.Duration
	queueMax int
}

// timingSink hands every batch to the engine inside a span.
type timingSink struct {
	eng      *engine.Engine
	tr       *tracer
	parent   int64
	op       string
	inEngine time.Duration
}

// Branch implements trace.Sink; ParallelReplay delivers whole chunks
// through BranchBatchSoA instead.
func (s *timingSink) Branch(pc trace.PC, taken bool) { s.eng.Branch(pc, taken) }

// BranchBatchSoA implements trace.SoABatchSink.
func (s *timingSink) BranchBatchSoA(b *trace.SoABatch) {
	sp := s.tr.start("engine.BranchBatchSoA", s.op, s.parent)
	s.eng.BranchBatchSoA(b)
	s.inEngine += sp.end()
}

// enginePass replays the trace through the parallel decode pipeline
// into an engine at the all-CPU default, timing every engine call and
// sampling the shard queues.
func (o *offline) enginePass(tr *tracer) (*engineTimes, error) {
	f, err := os.Open(o.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rd, err := trace.NewBTR2Reader(f)
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(profileConfig(), o.options(0))
	if err != nil {
		return nil, err
	}
	const op = "engine-pass"
	et := &engineTimes{}
	root := tr.start("layer.engine", op, 0)
	replay := tr.start("trace.ParallelReplay", op, root.id)
	sink := &timingSink{eng: eng, tr: tr, parent: replay.id, op: op}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(queueSampleEvery)
		defer t.Stop()
		for {
			for _, d := range eng.QueueDepths() {
				et.queueMax = max(et.queueMax, d)
			}
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	_, rerr := rd.ParallelReplay(eng.Workers(), sink)
	close(stop)
	wg.Wait()
	et.replay = replay.end()
	et.inEngine = sink.inEngine
	if rerr != nil {
		eng.Abort()
		return nil, rerr
	}
	fin := tr.start("engine.Finish", op, root.id)
	rep, err := eng.Finish()
	et.finish = fin.end()
	root.end()
	if err == nil {
		err = checkReport("engine pass", rep, o.prog.refJSON)
	}
	et.t.op(err)
	return et, nil
}
