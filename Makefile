# Development targets. CI runs exactly these (see .github/workflows/ci.yml)
# so local and CI verification cannot drift.

GO ?= go

# Benchtime for bench-kernels; CI smoke uses 1x, local comparisons 1s+.
BENCHTIME ?= 1s

.PHONY: all build vet fmt fmt-check test race race-short bench-smoke bench-kernels bench-baseline bench-json bench-check examples-smoke fuzz-smoke service-smoke chaos-smoke cluster-smoke verify ci clean

all: verify

# build + test is the repo's tier-1 verification (ROADMAP.md).
verify: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short-mode race run: the process/schedule invariant conformance suite and
# the rest of the tests under the race detector, sized for a fast dedicated
# CI job.
race-short:
	$(GO) test -race -short ./...

# One iteration of every benchmark: catches bit-rot without burning CI time.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Per-kernel step throughput (rotor generic vs ring kernel, per-agent vs
# counts walks) in benchstat format. Compare a working tree against the
# committed trajectory with:
#   make -s bench-baseline > old.txt && make -s bench-kernels > new.txt
#   benchstat old.txt new.txt
bench-kernels:
	$(GO) test -run '^$$' -bench '^BenchmarkKernel$$' -benchtime $(BENCHTIME) .

# Print the committed BENCH_engine.json kernel entries in go-bench format
# (the benchstat baseline for bench-kernels).
bench-baseline:
	@$(GO) test -count=1 -v ./internal/engine -run TestPrintBenchBaseline \
		-bench-baseline $(CURDIR)/BENCH_engine.json | grep '^Benchmark' || \
		{ echo "bench-baseline: no kernel entries in BENCH_engine.json (run make bench-json)" >&2; exit 1; }

# Regenerate the engine perf trajectory at the repo root. Refuses outright
# when GOMAXPROCS==1 (a starved scheduler makes every parallel speedup
# meaningless); set FORCE=1 to record a starved baseline deliberately. Warns
# when GOMAXPROCS is below the measured worker counts.
FORCE ?=
bench-json:
	$(GO) test -count=1 ./internal/engine -run TestEmitBenchJSON -bench-json $(CURDIR)/BENCH_engine.json -v $(if $(FORCE),-bench-force)

# Vet and test the benchmark harness. perfbench/ is a separate module that
# imports internal packages, so `go test ./...` skips it and an internal API
# change could break the benchmark unnoticed.
bench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# Execute every example with small parameters: examples are user-facing
# API documentation, so CI proves they run, not just compile.
examples-smoke:
	$(GO) run ./examples/quickstart -n 128 -k 4 -trials 4
	$(GO) run ./examples/bestworst -n 256 -k 8
	$(GO) run ./examples/patrol -n 96 -k 4
	$(GO) run ./examples/loadbalance -side 8 -tokens 32 -rounds 2000

# End-to-end service smoke: build the real rotord binary, POST a
# mixed-topology sweep over HTTP, SIGKILL the server mid-sweep, restart it
# on the same spool, and prove the resumed stream — full and from the
# watermark cursor — is byte-identical to library-mode RunSweep output.
service-smoke:
	$(GO) test -count=1 -v ./cmd/rotord -run '^TestServiceSmoke$$'

# Deterministic fault-injection suite (seeded spoolFS chaos: ENOSPC, torn
# writes, panicking registry entries, corrupt cache/meta, cancellation,
# admission limits) plus the end-to-end rotord SIGKILL-during-cancel smoke:
# every injected fault must land in {failed with cause, quarantined,
# transparently recovered} with post-fault streams byte-identical to
# library output.
chaos-smoke:
	$(GO) test -count=1 ./internal/service -run '^TestChaos'
	$(GO) test -count=1 -v ./cmd/rotord -run '^TestChaosCancelKillSmoke$$'

# End-to-end cluster smoke: build the real rotord binary, run one
# coordinator plus two worker processes, SIGKILL one worker while it holds
# a lease, and prove the coordinator reassigns its unfinished jobs and the
# finished stream is byte-identical to library-mode RunSweep output.
cluster-smoke:
	$(GO) test -count=1 -v ./cmd/rotord -run '^TestClusterSmoke$$'

# Native fuzzing on a short fixed budget: the kernel differential fuzz
# (rotor tiers bit-identical), the topology-, schedule- and mission-spec
# parser fuzz (canonical forms are parse/String fixed points with identical
# compiled plans), the wire-spec decoder fuzz (no panics; accepted specs
# re-encode to a decode/encode fixed point), the cluster completion
# fuzz (no panics, only 200/400/404, never a job queued that was not
# leased) and the rotord HTTP fuzz (arbitrary submit bodies, row cursors
# and formats: no panics, only documented statuses, no spool directory
# for a rejected body). Seed corpora also run under plain `go test`; this
# target actually mutates.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzKernelEquivalence$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzKernelHeldEquivalence$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzKernelParallelEquivalence$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/engine -run '^$$' -fuzz '^FuzzParseTopo$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/engine -run '^$$' -fuzz '^FuzzParseSchedule$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/engine -run '^$$' -fuzz '^FuzzParseMission$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/engine -run '^$$' -fuzz '^FuzzDecodeWireSpec$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cluster -run '^$$' -fuzz '^FuzzCoordinatorComplete$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/service -run '^$$' -fuzz '^FuzzHTTPSubmitAndRows$$' -fuzztime $(FUZZTIME)

ci: build vet fmt-check race bench-smoke bench-kernels-smoke bench-check examples-smoke service-smoke chaos-smoke cluster-smoke fuzz-smoke

# CI variant of bench-kernels: single iteration, still exercises every tier.
.PHONY: bench-kernels-smoke
bench-kernels-smoke:
	$(GO) test -run '^$$' -bench '^BenchmarkKernel$$' -benchtime 1x .

clean:
	$(GO) clean ./...
