// Command benchguard gates freshly measured benchfmt reports (written
// by scripts/bench) and exits non-zero if any gate fails. CI runs it
// after the bench-smoke pass:
//
//	go run ./scripts/bench -out /tmp/BENCH_kernel.json
//	go run ./scripts/bench -pkg . -bench 'ParallelSpeedup/(select|sort|join)$' -out /tmp/BENCH_parallel.json
//	go run ./scripts/benchguard -current /tmp/BENCH_kernel.json -parallel /tmp/BENCH_parallel.json
//
// Three gates:
//   - every -guard benchmark keeps its ns/op within -tolerance of the
//     committed baseline (generous: CI runners are noisy) and does not
//     grow its allocs/op (the kernel hot path and the service warm hit
//     are allocation-budgeted, so a new allocation is a real change);
//   - every -zeroalloc benchmark reports exactly 0 allocs/op;
//   - with -parallel, every row carrying a speedup metric meets
//     -minspeedup, but only when the report was measured with at least
//     -mincpu cores (min of num_cpu and gomaxprocs): on fewer cores the
//     conservative sync protocol can at best break even.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"howsim/internal/benchfmt"
)

// Default gate lists: the kernel's event throughput and the service
// warm cache hit are gated against the baseline; the probe-attached and
// inline-callback kernel paths must not allocate at all.
const (
	guardDefault     = "BenchmarkKernelEventThroughput,BenchmarkServiceWarmHit"
	zeroAllocDefault = "BenchmarkKernelEventThroughputProbeOff,BenchmarkKernelPipeTransferProbeOff," +
		"BenchmarkKernelPipeTransferProbeOn,BenchmarkKernelSingleProcWait,BenchmarkKernelPipeTransferSegmented"
)

// gateBaseline checks each named benchmark of cur against base: ns/op
// within tolerance, allocs/op not growing. Reports whether any failed.
func gateBaseline(w io.Writer, base, cur *benchfmt.Report, names []string, tolerance float64) bool {
	failed := false
	for _, name := range names {
		b, okB := base.Find(name)
		c, okC := cur.Find(name)
		if !okB || !okC {
			fmt.Fprintf(w, "%-40s missing (baseline %v, current %v)  REGRESSED\n", name, okB, okC)
			failed = true
			continue
		}
		limit := b.NsPerOp * (1 + tolerance)
		verdict := "ok"
		if c.NsPerOp > limit {
			verdict = "REGRESSED"
			failed = true
		}
		fmt.Fprintf(w, "%-40s baseline %.1f ns/op  current %.1f ns/op  limit %.1f  %s\n",
			name, b.NsPerOp, c.NsPerOp, limit, verdict)
		if c.AllocsPerOp > b.AllocsPerOp {
			fmt.Fprintf(w, "%-40s allocs/op grew %.0f -> %.0f  REGRESSED\n", name, b.AllocsPerOp, c.AllocsPerOp)
			failed = true
		}
	}
	return failed
}

// gateZeroAlloc is absolute, not baseline-relative: the probe layer's
// contract is that a sink attached to the kernel costs no allocation on
// the hot paths — disabled or (in steady state) enabled — and a lone
// process running its kernel's callbacks inline must not allocate
// either. Reports whether any named benchmark failed.
func gateZeroAlloc(w io.Writer, cur *benchfmt.Report, names []string) bool {
	failed := false
	for _, name := range names {
		c, ok := cur.Find(name)
		if !ok {
			fmt.Fprintf(w, "%-40s missing from current report  REGRESSED\n", name)
			failed = true
			continue
		}
		verdict := "ok"
		if c.AllocsPerOp != 0 {
			verdict = "REGRESSED"
			failed = true
		}
		fmt.Fprintf(w, "%-40s allocs/op %.0f (must be 0)  %s\n", name, c.AllocsPerOp, verdict)
	}
	return failed
}

// gateParallel applies the speedup floor to every row of rep that
// carries a speedup metric, skipping the gate when the report was
// measured on fewer than minCPU cores. A report with no speedup row
// fails. Reports whether the gate failed.
func gateParallel(w io.Writer, rep *benchfmt.Report, minSpeedup float64, minCPU int) bool {
	cores := min(rep.NumCPU, rep.GoMaxProcs)
	failed, rows := false, 0
	for _, b := range rep.Benchmarks {
		speedup, ok := b.Metrics["speedup"]
		if !ok {
			continue
		}
		rows++
		verdict := "ok"
		switch {
		case cores < minCPU:
			verdict = fmt.Sprintf("skipped (needs >= %d cores)", minCPU)
		case speedup < minSpeedup:
			verdict = "REGRESSED"
			failed = true
		}
		fmt.Fprintf(w, "%-40s %.1f ms single / %.1f ms parallel = %.2fx on %d cores (floor %.1fx)  %s\n",
			b.Name, b.Metrics["single_ms"], b.Metrics["parallel_ms"], speedup, cores, minSpeedup, verdict)
	}
	if rows == 0 {
		fmt.Fprintln(w, "parallel report has no speedup rows  REGRESSED")
		return true
	}
	return failed
}

// list splits a comma-separated flag value, dropping empty entries.
func list(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func read(path string) *benchfmt.Report {
	r, err := benchfmt.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
	return &r
}

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_kernel.json", "committed baseline report")
		currentPath  = flag.String("current", "/tmp/BENCH_kernel.json", "freshly measured report")
		guard        = flag.String("guard", guardDefault, "comma-separated benchmarks gated against the baseline")
		tolerance    = flag.Float64("tolerance", 0.25, "allowed fractional ns/op regression")
		zeroAlloc    = flag.String("zeroalloc", zeroAllocDefault,
			"comma-separated benchmarks that must report exactly 0 allocs/op in the current report")
		parallelPath = flag.String("parallel", "", "parallel-speedup report to gate (empty = no speedup gate)")
		minSpeedup   = flag.Float64("minspeedup", 2.0, "required parallel speedup when measured on >= -mincpu cores")
		minCPU       = flag.Int("mincpu", 4, "minimum cores for the speedup gate to engage")
	)
	flag.Parse()

	base, cur := read(*baselinePath), read(*currentPath)
	failed := gateBaseline(os.Stdout, base, cur, list(*guard), *tolerance)
	failed = gateZeroAlloc(os.Stdout, cur, list(*zeroAlloc)) || failed
	if *parallelPath != "" {
		failed = gateParallel(os.Stdout, read(*parallelPath), *minSpeedup, *minCPU) || failed
	}
	if failed {
		os.Exit(1)
	}
}
