# Howsim build/test/bench entry points. The kernel and service-path
# microbenchmarks and BENCH_kernel.json exist to track the hot paths'
# perf trajectory across PRs — run `make bench-kernel` after touching
# internal/sim or internal/service and commit the refreshed numbers.

GO ?= go

.PHONY: build vet fmt-check lint vet-fixtures vet-allows test race bench-kernel bench-figures bench-parallel bench-guard alloc-profile full-scale-check fault-smoke trace-smoke chaos-smoke service-smoke loc oracle-cover oracle-cover-check

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

# Go line counts, non-test and test, outside vendor/, testdata/ and
# perfbench/: the sizes CHANGES.md reports for a change.
loc:
	@echo "non-test $$(find . -name '*.go' ! -path './vendor/*' ! -path '*/testdata/*' ! -path './perfbench/*' ! -name '*_test.go' | xargs cat | wc -l)"
	@echo "test     $$(find . -name '*.go' ! -path './vendor/*' ! -path '*/testdata/*' ! -path './perfbench/*' -name '*_test.go' | xargs cat | wc -l)"

# The model functions no byte oracle reaches: the root package's oracle
# tests (TestExecMode*, TestProbe*) run with coverage over the 14 model
# packages, and every function none of whose statements ran is printed
# as pkg.Func or pkg.(*T).Method, one per line, without line numbers.
# testdata/oracle_uncovered.txt is this list. oracle-cover-check (a CI
# step) fails when a function joins it, so the list can only shrink;
# after a change that covers a function, rewrite the file with
# `make -s oracle-cover > testdata/oracle_uncovered.txt`.
oracle-cover:
	@sh scripts/oraclecover.sh

oracle-cover-check:
	sh scripts/oraclecover.sh -check testdata/oracle_uncovered.txt

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

# Allocation by site in one Figure 1 pass: every task on every
# architecture at scale 0.05 on 16 and 64 disks, one simulation at a
# time, with every allocation sampled. Writes the profile to
# /tmp/howsim-alloc.out and prints the sites by bytes allocated; the
# per-site tables in CHANGES.md come from this target.
alloc-profile:
	$(GO) build -o /tmp/howsim-experiments ./cmd/experiments
	GODEBUG=memprofilerate=1 /tmp/howsim-experiments -only fig1 -scale 0.05 -sizes 16,64 \
		-parallel 1 -memprofile /tmp/howsim-alloc.out > /dev/null
	$(GO) tool pprof -sample_index=alloc_space -top /tmp/howsim-alloc.out

# Full-scale record: run every artifact at scale 1 and require the
# output to match docs/experiments_full_scale.txt byte for byte. A
# change that moves simulated output regenerates the file (same command,
# redirected there) and says why in CHANGES.md. About 40 s on 2 cores.
full-scale-check:
	$(GO) build -o /tmp/howsim-experiments ./cmd/experiments
	/tmp/howsim-experiments -only all -parallel 2 > /tmp/howsim-full-scale.txt
	cmp /tmp/howsim-full-scale.txt docs/experiments_full_scale.txt

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
# CI uploads /tmp/howsim-traces as an artifact. Then probe every
# artifact of experiments at quick scale into SWEEP_TRACES (about 70 MB,
# not uploaded): each trace must pass tracecheck, and there must be one
# file per simulation the sweep reports on stderr.
SWEEP_TRACES ?= /tmp/howsim-sweep-traces
trace-smoke:
	mkdir -p /tmp/howsim-traces
	for arch in active cluster smp; do \
		$(GO) run ./cmd/howsim -task sort -arch $$arch -disks 16 -scale 0.02 \
			-trace /tmp/howsim-traces/sort.$$arch.json -breakdown || exit 1; \
	done > /tmp/howsim-traces/breakdown.txt
	$(GO) run ./scripts/tracecheck /tmp/howsim-traces/sort.active.json \
		/tmp/howsim-traces/sort.cluster.json /tmp/howsim-traces/sort.smp.json
	grep -q "accounted" /tmp/howsim-traces/breakdown.txt
	rm -rf $(SWEEP_TRACES) && mkdir -p $(SWEEP_TRACES)/t
	$(GO) run ./cmd/experiments -only all -scale 0.00390625 -sizes 4,8 -parallel 2 \
		-trace $(SWEEP_TRACES)/t/t.json -breakdown > $(SWEEP_TRACES)/out.txt 2> $(SWEEP_TRACES)/err.txt
	$(GO) run ./scripts/tracecheck $(SWEEP_TRACES)/t/*.json
	runs=$$(sed -n 's/^ran \([0-9]*\) simulations$$/\1/p' $(SWEEP_TRACES)/err.txt); \
	files=$$(ls $(SWEEP_TRACES)/t | wc -l); \
	echo "$$files trace files for $$runs simulations"; \
	test -n "$$runs" && test "$$files" -eq "$$runs"

# Service smoke: build howsimd, start it, simulate the same config
# twice (repeat must be a byte-identical cache hit), sweep, check
# /statsz accounting, then SIGTERM and require a clean drain.
service-smoke:
	$(GO) run ./scripts/servicesmoke
