// Command bench runs `go test -bench` over one or more packages and
// writes the best run of each benchmark as a benchfmt report. The
// defaults record the kernel and service-path microbenchmarks into
// BENCH_kernel.json; the parallel/event speedup per task is the root
// package's BenchmarkParallelSpeedup:
//
//	go run ./scripts/bench -count 3                      # or: make bench-kernel
//	go run ./scripts/bench -pkg . -bench ParallelSpeedup -out BENCH_parallel.json
//
// scripts/benchguard gates both reports.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"howsim/internal/benchfmt"
)

func main() {
	var (
		out     = flag.String("out", "BENCH_kernel.json", "output file")
		pattern = flag.String("bench", "BenchmarkKernel|BenchmarkService", "benchmark regexp")
		pkg     = flag.String("pkg", "./internal/sim ./internal/service", "space-separated packages to benchmark")
		count   = flag.Int("count", 1, "benchmark repetitions (best ns/op wins)")
	)
	flag.Parse()

	pkgs := strings.Fields(*pkg)
	args := append([]string{"test", "-run", "^$", "-bench", *pattern, "-benchmem",
		"-count", strconv.Itoa(*count)}, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: go test failed: %v\n%s", err, raw)
		os.Exit(1)
	}

	rep := benchfmt.NewReport(strings.Join(pkgs, " "), *pattern, *count)
	rep.Benchmarks = benchfmt.ParseOutput(raw)
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "bench: no benchmark lines parsed")
		os.Exit(1)
	}
	if err := rep.WriteFile(*out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(rep.Benchmarks))
}
