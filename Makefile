# Howsim build/test/bench entry points. The kernel and service-path
# microbenchmarks and BENCH_kernel.json exist to track the hot paths'
# perf trajectory across PRs — run `make bench-kernel` after touching
# internal/sim or internal/service and commit the refreshed numbers.

GO ?= go

.PHONY: build vet fmt-check lint vet-fixtures vet-allows test race bench-kernel bench-figures bench-parallel bench-guard fault-smoke trace-smoke chaos-smoke service-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt must list no Go file outside vendor/ and testdata/ (nor the
# perfbench build tree under .bench_build/).
fmt-check:
	@out=$$(find . -name '*.go' -not -path './vendor/*' -not -path '*/testdata/*' \
		-not -path './.bench_build/*' | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; fi

# gofmt, standard vet, plus the howsimvet invariant checkers (determinism,
# dual-mode execution safety, and the v2 concurrency/shard-safety
# rules — see DESIGN.md "Static analysis" and docs/ANALYZERS.md). The
# repo must stay at zero findings; suppressions need a
# `//howsim:allow <analyzer> -- reason` comment, and a suppression that
# stops suppressing anything becomes a finding itself.
lint: fmt-check vet
	$(GO) build -o /tmp/howsimvet ./cmd/howsimvet
	$(GO) vet -vettool=/tmp/howsimvet ./...

# Just the analyzer fixture tests: fast feedback while writing or
# tuning a checker, without the repo-wide vet sweep.
vet-fixtures:
	$(GO) test ./internal/analysis/...

# Print the reviewed-exemption audit table (file:line, analyzer,
# reason). CI uploads this as an artifact on every lint run.
vet-allows:
	$(GO) run ./cmd/howsimvet -allows .

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/...

# Refresh BENCH_kernel.json from the internal/sim kernel and the
# internal/service service-path microbenchmarks (3 repetitions, best
# run wins).
bench-kernel:
	$(GO) run ./scripts/bench -count 3 -out BENCH_kernel.json

# Quick pass over the paper's figure benchmarks at reduced scale.
bench-figures:
	HOWSIM_BENCH_SCALE=0.05 $(GO) test -bench=Figure -benchtime=1x .

# Refresh BENCH_parallel.json: BenchmarkParallelSpeedup, the wall-clock
# speedup of -procmode parallel over the single-kernel event mode on
# 64-disk select, groupby and dmine (one row per task). The recorded numbers are honest for the machine that ran them
# (num_cpu and gomaxprocs are in the report); benchguard only enforces
# the per-task speedup floor on >= 4 cores.
bench-parallel:
	$(GO) run ./scripts/bench -pkg . -bench ParallelSpeedup -count 3 -out BENCH_parallel.json

# Gate the kernel hot path and the service warm hit against the
# committed baseline, the probe-attached paths at 0 allocs/op, and the
# sharded-execution speedup against its floor (what CI's bench-smoke
# job runs).
bench-guard:
	$(GO) run ./scripts/bench -out /tmp/BENCH_kernel.json
	$(GO) run ./scripts/bench -pkg . -bench 'ParallelSpeedup/(select|groupby)$$' -out /tmp/BENCH_parallel.json
	$(GO) run ./scripts/benchguard -current /tmp/BENCH_kernel.json -parallel /tmp/BENCH_parallel.json

# Fault-injection smoke: one disk fails mid-scan on each architecture,
# once recovering via replicas and once completing degraded. Every run
# must print a fault report (i.e. not hang and not panic).
fault-smoke:
	for plan in seed=42,media=0.002,slow=0.001,fail=3@50ms,replica seed=42,fail=3@50ms; do \
		for arch in active cluster smp; do \
			$(GO) run ./cmd/howsim -task select -arch $$arch -disks 16 -scale 0.02 \
				-faults $$plan || exit 1; \
		done; \
	done

# Chaos smoke: a short seeded fault-plan sweep across architectures,
# tasks and -procmode settings. Every fuzzed plan must round-trip the
# plan grammar, terminate (completing or attaching a deadlock report),
# and render a byte-identical FaultReport across repeats and execution
# modes. Deterministic: a failure reproduces with the printed seed.
chaos-smoke:
	$(GO) run ./scripts/chaossweep -seed 1 -runs 6
	$(GO) run -race ./scripts/chaossweep -seed 2 -runs 2

# Observability smoke: run one probed sort on each architecture, write
# the Chrome traces plus a breakdown report, and validate every trace
# with tracecheck (parses, has spans, carries the thread metadata).
# CI uploads /tmp/howsim-traces as an artifact.
trace-smoke:
	mkdir -p /tmp/howsim-traces
	for arch in active cluster smp; do \
		$(GO) run ./cmd/howsim -task sort -arch $$arch -disks 16 -scale 0.02 \
			-trace /tmp/howsim-traces/sort.$$arch.json -breakdown || exit 1; \
	done > /tmp/howsim-traces/breakdown.txt
	$(GO) run ./scripts/tracecheck /tmp/howsim-traces/sort.active.json \
		/tmp/howsim-traces/sort.cluster.json /tmp/howsim-traces/sort.smp.json
	grep -q "accounted" /tmp/howsim-traces/breakdown.txt

# Service smoke: build howsimd, start it, simulate the same config
# twice (repeat must be a byte-identical cache hit), sweep, check
# /statsz accounting, then SIGTERM and require a clean drain.
service-smoke:
	$(GO) run ./scripts/servicesmoke
