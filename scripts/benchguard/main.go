// Command benchguard compares a freshly measured benchmark report
// against the committed baseline and fails if a guarded benchmark
// regressed past the tolerance. CI runs it after the bench-smoke pass:
//
//	go run ./scripts/benchkernel -count 1 -out /tmp/BENCH_kernel.json
//	go run ./scripts/benchguard -baseline BENCH_kernel.json -current /tmp/BENCH_kernel.json
//
// Only ns/op is gated (with a generous default tolerance — CI runners
// are noisy); allocs/op is gated exactly, because the kernel's hot
// paths are designed to be allocation-free and any new allocation is a
// real change, not noise.
//
// With -parallel, benchguard additionally gates the sharded-execution
// speedup recorded by scripts/benchparallel. The gate engages only when
// the report was measured on a machine with at least -mincpu cores
// (both num_cpu and gomaxprocs): a speedup floor is meaningless on a
// single-core runner, where the conservative sync protocol can at best
// break even.
//
// With -service, benchguard additionally gates the howsimd service
// path recorded by scripts/benchservice against -servicebaseline: the
// warm cache hit's ns/op (with tolerance) and its allocs/op (exactly —
// a cache hit is a map lookup plus a write of pre-rendered bytes, and
// any new allocation on that path is a real change, not noise).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"howsim/internal/benchfmt"
)

// parallelReport mirrors the fields of scripts/benchparallel's output
// that the speedup gate reads.
type parallelReport struct {
	NumCPU     int     `json:"num_cpu"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Task       string  `json:"task"`
	Disks      int     `json:"disks"`
	SingleMs   float64 `json:"single_ms"`
	ParallelMs float64 `json:"parallel_ms"`
	Speedup    float64 `json:"speedup"`
}

// gateParallel applies the speedup floor, per task, to a benchparallel
// report — either the current array-of-rows shape or the legacy single
// select-only object — and reports whether any task failed its gate.
func gateParallel(path string, minSpeedup float64, minCPU int) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		return true
	}
	var rows []parallelReport
	if err := json.Unmarshal(data, &rows); err != nil {
		var single parallelReport
		if err2 := json.Unmarshal(data, &single); err2 != nil {
			fmt.Fprintf(os.Stderr, "benchguard: %s: %v\n", path, err)
			return true
		}
		rows = []parallelReport{single}
	}
	if len(rows) == 0 {
		fmt.Fprintf(os.Stderr, "benchguard: %s: no parallel rows\n", path)
		return true
	}
	failed := false
	for _, rep := range rows {
		if gateParallelRow(&rep, minSpeedup, minCPU) {
			failed = true
		}
	}
	return failed
}

// gateParallelRow applies the speedup floor to one per-task row and
// reports whether the gate failed.
func gateParallelRow(rep *parallelReport, minSpeedup float64, minCPU int) bool {
	cores := rep.NumCPU
	if rep.GoMaxProcs < cores {
		cores = rep.GoMaxProcs
	}
	if cores < minCPU {
		fmt.Printf("%-40s %.2fx on %d core(s) — speedup gate skipped (needs >= %d cores)\n",
			"parallel "+rep.Task, rep.Speedup, cores, minCPU)
		return false
	}
	verdict := "ok"
	failed := false
	if rep.Speedup < minSpeedup {
		verdict = "REGRESSED"
		failed = true
	}
	fmt.Printf("%-40s %.1f ms single / %.1f ms parallel = %.2fx on %d cores (floor %.1fx)  %s\n",
		fmt.Sprintf("parallel %s x%d disks", rep.Task, rep.Disks),
		rep.SingleMs, rep.ParallelMs, rep.Speedup, cores, minSpeedup, verdict)
	return failed
}

// gateService compares the service-path report against its committed
// baseline: warm-hit ns/op within tolerance, warm-hit allocs/op not
// growing. Reports whether the gate failed.
func gateService(baselinePath, currentPath string, tolerance float64) bool {
	baseline, err := benchfmt.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		return true
	}
	current, err := benchfmt.ReadFile(currentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		return true
	}
	const name = "BenchmarkServiceWarmHit"
	base, ok := baseline.Find(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchguard: %s missing from baseline %s\n", name, baselinePath)
		return true
	}
	cur, ok := current.Find(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchguard: %s missing from current %s\n", name, currentPath)
		return true
	}
	failed := false
	limit := base.NsPerOp * (1 + tolerance)
	verdict := "ok"
	if cur.NsPerOp > limit {
		verdict = "REGRESSED"
		failed = true
	}
	fmt.Printf("%-40s baseline %.1f ns/op  current %.1f ns/op  limit %.1f  %s\n",
		name, base.NsPerOp, cur.NsPerOp, limit, verdict)
	if cur.AllocsPerOp > base.AllocsPerOp {
		fmt.Printf("%-40s allocs/op grew %.0f -> %.0f  REGRESSED\n",
			name, base.AllocsPerOp, cur.AllocsPerOp)
		failed = true
	}
	return failed
}

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_kernel.json", "committed baseline report")
		currentPath  = flag.String("current", "/tmp/BENCH_kernel.json", "freshly measured report")
		names        = flag.String("guard", "BenchmarkKernelEventThroughput", "comma-separated benchmarks to gate")
		tolerance    = flag.Float64("tolerance", 0.25, "allowed fractional ns/op regression")
		zeroAlloc    = flag.String("zeroalloc",
			"BenchmarkKernelEventThroughputProbeOff,BenchmarkKernelPipeTransferProbeOff,BenchmarkKernelPipeTransferProbeOn,"+
				"BenchmarkKernelSingleProcWait,BenchmarkKernelPipeTransferSegmented",
			"comma-separated benchmarks that must report exactly 0 allocs/op in the current report")
		parallelPath = flag.String("parallel", "", "benchparallel report to gate (empty = no speedup gate)")
		minSpeedup   = flag.Float64("minspeedup", 2.0, "required parallel speedup when measured on >= -mincpu cores")
		minCPU       = flag.Int("mincpu", 4, "minimum cores for the speedup gate to engage")
		servicePath  = flag.String("service", "", "benchservice report to gate (empty = no service gate)")
		serviceBase  = flag.String("servicebaseline", "BENCH_service.json", "committed service baseline report")
	)
	flag.Parse()

	baseline, err := benchfmt.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
	current, err := benchfmt.ReadFile(*currentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}

	failed := false
	for _, name := range strings.Split(*names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		base, ok := baseline.Find(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchguard: %s missing from baseline %s\n", name, *baselinePath)
			failed = true
			continue
		}
		cur, ok := current.Find(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchguard: %s missing from current %s\n", name, *currentPath)
			failed = true
			continue
		}
		limit := base.NsPerOp * (1 + *tolerance)
		verdict := "ok"
		if cur.NsPerOp > limit {
			verdict = "REGRESSED"
			failed = true
		}
		fmt.Printf("%-40s baseline %.1f ns/op  current %.1f ns/op  limit %.1f  %s\n",
			name, base.NsPerOp, cur.NsPerOp, limit, verdict)
		if cur.AllocsPerOp > base.AllocsPerOp {
			fmt.Printf("%-40s allocs/op grew %.0f -> %.0f  REGRESSED\n",
				name, base.AllocsPerOp, cur.AllocsPerOp)
			failed = true
		}
	}
	// The zero-alloc gate is absolute, not baseline-relative: the probe
	// layer's contract is that a sink attached to the kernel costs no
	// allocation on the hot paths — disabled or (in steady state) enabled
	// — and a lone process running its kernel's callbacks inline must
	// not allocate either.
	for _, name := range strings.Split(*zeroAlloc, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		cur, ok := current.Find(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchguard: %s missing from current %s\n", name, *currentPath)
			failed = true
			continue
		}
		verdict := "ok"
		if cur.AllocsPerOp != 0 {
			verdict = "REGRESSED"
			failed = true
		}
		fmt.Printf("%-40s allocs/op %.0f (must be 0)  %s\n", name, cur.AllocsPerOp, verdict)
	}
	if *parallelPath != "" && gateParallel(*parallelPath, *minSpeedup, *minCPU) {
		failed = true
	}
	if *servicePath != "" && gateService(*serviceBase, *servicePath, *tolerance) {
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}
