# Tier-1 verification and tooling for the twodprof repository.
#
#   make verify          build + lint + tests + race-mode concurrency tests
#   make lint            go vet + gofmt -l check
#   make test            go test ./...
#   make race            race-detector pass over the concurrent subsystems
#   make fuzz-seeds      run the fuzz corpora as regular regression tests
#   make e2e-crash       kill-9 crash-recovery drill against the durable daemon
#   make e2e-cluster     kill-9 node-failure drill + two load storms through the router
#   make perfbench-check go vet + go test inside the perfbench module
#   make bench           throughput floors + report identity over every ingest path (results/BENCH.json)
#   make results         regenerate the committed results/ directory

GO ?= go

.PHONY: all build vet lint test race fuzz-seeds e2e-crash e2e-cluster perfbench-check verify bench results

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint = vet + formatting drift + the asmcheck gate over the embedded
# kernels (tools/asmcheckall: zero diagnostics, every branch
# classified). gofmt -l prints offending files; a non-empty listing
# fails the target. When the shadow vettool or staticcheck is
# installed it runs too; absence is not an error (the container may
# not ship them).
lint: vet
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt -l found unformatted files:"; echo "$$out"; exit 1; \
	fi
	@if command -v shadow >/dev/null 2>&1; then \
		$(GO) vet -vettool=$$(command -v shadow) ./...; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	fi
	$(GO) run ./tools/asmcheckall

test:
	$(GO) test ./...

# The concurrent subsystems (the memoising oracle runner, the parallel
# experiment engine, the parallel trace-replay pipeline, the online
# profiling service and the WAL's fsync=interval flusher) under the race
# detector. -short skips the full experiment matrix, which is covered
# race-free by `make test`; the concurrency tests themselves
# (TestRunnerConcurrent, TestRunManyParallelMatchesSerial,
# TestIngestHammer, TestSessionGroupRace, TestParallelReplayHammer,
# TestIntervalFlusherSyncs, ...) all run in -short mode.
race:
	$(GO) test -race -short ./internal/oracle ./internal/exp ./internal/core ./internal/engine ./internal/serve ./internal/trace ./internal/wire ./internal/cluster ./internal/wal

# Fuzz targets run their seed corpora as plain tests — a cheap
# regression net over the decoders and analyses without a fuzzing
# session.
fuzz-seeds:
	$(GO) test -run 'Fuzz' ./internal/trace ./internal/vm ./internal/asmcheck ./internal/wal ./internal/wire ./internal/engine

# The crash-recovery drill re-execs the serve test binary as a durable
# daemon, kills it with SIGKILL (mid-stream and post-completion) and
# asserts the restarted daemon serves byte-identical reports from the
# session WAL.
e2e-crash:
	$(GO) test -run 'TestCrashRecovery' -count=1 ./internal/serve

# The cluster resilience drill: SIGKILL one of three node processes
# while sessions stream through the router (only the dead node's
# sessions fail, mark-down within the heartbeat budget), then two
# storms through a freshly spawned multi-process cluster asserting
# routed reports byte-identical to a single node and a flat router
# heap: 10k concurrent short sessions, and 1k sessions held after
# 5,000 events each, past a full 4,096-event chunk, so a relay that
# buffered chunks per session would show in the heap.
e2e-cluster:
	$(GO) test -run 'TestKillNodeMidStream' -count=1 ./internal/cluster
	$(GO) run ./cmd/loadgen -selftest -sessions 10000
	$(GO) run ./cmd/loadgen -selftest -sessions 1000 -events 20000

# perfbench/ is its own module (go.mod), so the root ./... skips it,
# yet it compiles against the serve, engine, trace and wire internals:
# vet and test it here so a change that breaks it fails CI, not the
# benchmark run.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

verify: build lint test race fuzz-seeds e2e-crash e2e-cluster perfbench-check bench

# bench is part of `make verify`: tools/bench times every ingest path
# (plain profiler, engine replay, daemon HTTP and wire ingest, decode
# and predict kernels) as interleaved rows, and fails if a guarded row
# drops below its floor against its baseline row or any report differs
# from its reference. Each run also appends one line to
# results/BENCH_history.jsonl.
bench:
	$(GO) run ./tools/bench -o results/BENCH.json

results:
	$(GO) run ./cmd/experiments -run all -workers 8 -o results
