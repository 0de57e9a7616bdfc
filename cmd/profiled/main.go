// Command profiled is the online 2D-profiling daemon. It accepts
// branch-event streams — BTR1, chunked BTR2 or context-tagged BTR3, any
// of them optionally gzip-compressed — over HTTP and, with -wire-addr,
// over the binary wire protocol the cluster router speaks; profiles
// each session on the goroutine that reads its stream; and serves live
// reports — the same verdicts the offline profile2d tool computes, bit
// for bit, while the run is still streaming. Concurrent sessions run in
// parallel; one session uses one CPU.
//
// Usage:
//
//	profiled -addr :8377
//	tracegen gen -kernel lzchain -input train -post http://localhost:8377/v1/ingest
//	curl localhost:8377/v1/report | jq .
//	curl localhost:8377/metrics
//
// Endpoints:
//
//	POST /v1/ingest      ?session=ID&predictor=...&metric=...&slice=N
//	                     &agg=shared|private  context aggregation (BTR3)
//	                     &kernel=NAME         annotate the report with NAME's static verdicts
//	                     &group=G             tag the session for /v1/snapshot?group=G
//	                     &tenant=T            attribute the session (router quotas)
//	GET  /v1/report      ?session=ID (default: most recent session)
//	GET  /v1/snapshot    ?session=ID or ?group=G: mergeable core.Snapshot
//	GET  /v1/sessions
//	GET  /healthz/live   200 while the process serves
//	GET  /healthz/ready  503 while draining or at -max-active
//	GET  /healthz        alias of /healthz/ready
//	GET  /metrics
//
// With -data-dir every session is backed by a write-ahead log and
// survives restarts. A finished session keeps only its checkpoint
// snapshot: its log is rewritten to that checkpoint when it finishes,
// and after -idle-after unqueried the copy in its log is the only one.
//
// With -pprof-addr a separate listener serves Go's /debug/pprof
// endpoints for live CPU/heap profiling of the daemon.
//
// SIGINT/SIGTERM drain in-flight sessions gracefully within
// -drain-timeout.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"os/signal"
	"syscall"
	"time"

	"twodprof/internal/core"
	"twodprof/internal/serve"
	"twodprof/internal/wal"
)

func main() {
	cfg := serve.DefaultConfig()
	var (
		addr    = flag.String("addr", cfg.Addr, "listen address")
		wireA   = flag.String("wire-addr", "", "binary wire-protocol listen address (empty = disabled)")
		maxAct  = flag.Int("max-active", 0, "cap on concurrently streaming sessions; excess is shed with 429 (0 = unlimited)")
		pred    = flag.String("predictor", cfg.Predictor, "profiler branch predictor")
		metric  = flag.String("metric", "accuracy", "profiled metric: accuracy or bias")
		slice   = flag.Int64("slice", cfg.Profile.SliceSize, "slice size in branches")
		execTh  = flag.Int64("execth", cfg.Profile.ExecThreshold, "per-slice execution threshold")
		readTO  = flag.Duration("read-timeout", cfg.ReadTimeout, "per-read bound on slow clients (0 = none)")
		drainTO = flag.Duration("drain-timeout", cfg.DrainTimeout, "graceful shutdown drain deadline")
		keep    = flag.Int("sessions", cfg.MaxSessions, "finished sessions retained for /v1/report")
		dataDir = flag.String("data-dir", "", "session WAL directory; enables durable sessions and crash recovery (empty = in-memory only)")
		fsync   = flag.String("fsync", cfg.Fsync.String(), "WAL durability: always, never, or a flush cadence like 100ms")
		idle    = flag.Duration("idle-after", cfg.IdleAfter, "drop a finished session's checkpoint from memory after this long unqueried, checked every quarter of it; its log keeps it (0 = never)")
		pprofA  = flag.String("pprof-addr", "", "serve /debug/pprof on this address (empty = disabled); keep it on a loopback or firewalled port")
	)
	flag.Parse()

	cfg.Addr = *addr
	cfg.WireAddr = *wireA
	cfg.MaxActive = *maxAct
	cfg.Predictor = *pred
	cfg.Profile.SliceSize = *slice
	cfg.Profile.ExecThreshold = *execTh
	cfg.ReadTimeout = *readTO
	cfg.DrainTimeout = *drainTO
	cfg.MaxSessions = *keep
	cfg.DataDir = *dataDir
	cfg.IdleAfter = *idle
	if policy, err := wal.ParseSyncPolicy(*fsync); err != nil {
		fail(err)
	} else {
		cfg.Fsync = policy
	}
	switch *metric {
	case "accuracy":
		cfg.Profile.Metric = core.MetricAccuracy
	case "bias":
		cfg.Profile.Metric = core.MetricBias
	default:
		fail(fmt.Errorf("unknown metric %q (want accuracy or bias)", *metric))
	}

	if *pprofA != "" {
		// Separate listener so profiling endpoints never share a port
		// with ingest: the default mux carries net/http/pprof's
		// /debug/pprof handlers and nothing else.
		go func() {
			if err := http.ListenAndServe(*pprofA, nil); err != nil {
				fmt.Fprintf(os.Stderr, "profiled: pprof listener: %v\n", err)
			}
		}()
		fmt.Printf("profiled: pprof on http://%s/debug/pprof\n", *pprofA)
	}

	srv, err := serve.NewServer(cfg)
	if err != nil {
		fail(err)
	}
	errc, err := srv.Start()
	if err != nil {
		fail(err)
	}
	durable := "in-memory sessions"
	if cfg.DataDir != "" {
		durable = fmt.Sprintf("durable sessions in %s (fsync %s)", cfg.DataDir, cfg.Fsync)
	}
	fronts := srv.Addr()
	if cfg.WireAddr != "" {
		fronts += ", wire " + srv.WireAddr()
	}
	fmt.Printf("profiled: listening on %s (%s metric, %s)\n",
		fronts, cfg.Profile.Metric, durable)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		fmt.Fprintf(os.Stderr, "profiled: draining (deadline %s)\n", cfg.DrainTimeout)
		shutCtx, cancel := context.WithTimeout(context.Background(), cfg.DrainTimeout+time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			fail(fmt.Errorf("shutdown: %w", err))
		}
	case err := <-errc:
		if err != nil {
			fail(err)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "profiled:", err)
	os.Exit(1)
}
