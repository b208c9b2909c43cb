package main

import (
	"io"
	"path/filepath"
	"testing"

	"howsim/internal/benchfmt"
)

func report(rows ...benchfmt.Benchmark) *benchfmt.Report {
	return &benchfmt.Report{NumCPU: 8, GoMaxProcs: 8, Benchmarks: rows}
}

func row(name string, ns, allocs float64) benchfmt.Benchmark {
	return benchfmt.Benchmark{Name: name, NsPerOp: ns, AllocsPerOp: allocs}
}

func speedupRow(name string, speedup float64) benchfmt.Benchmark {
	return benchfmt.Benchmark{Name: name, Metrics: map[string]float64{"speedup": speedup}}
}

func TestGateBaseline(t *testing.T) {
	const kernel, warm = "BenchmarkKernelEventThroughput", "BenchmarkServiceWarmHit"
	base := report(row(kernel, 100, 0), row(warm, 8000, 56))
	for _, tc := range []struct {
		name string
		cur  *benchfmt.Report
		fail bool
	}{
		{"within tolerance", report(row(kernel, 124, 0), row(warm, 9000, 56)), false},
		{"ns/op over tolerance", report(row(kernel, 126, 0), row(warm, 8000, 56)), true},
		{"allocs/op growth", report(row(kernel, 100, 1), row(warm, 8000, 56)), true},
		{"missing row", report(row(warm, 8000, 56)), true},
		{"service warm hit ns/op", report(row(kernel, 100, 0), row(warm, 10001, 56)), true},
		{"service warm hit allocs/op", report(row(kernel, 100, 0), row(warm, 8000, 57)), true},
	} {
		// The default -guard list is what gates the service warm hit.
		if got := gateBaseline(io.Discard, base, tc.cur, list(guardDefault), 0.25); got != tc.fail {
			t.Errorf("%s: failed = %v, want %v", tc.name, got, tc.fail)
		}
	}
}

func TestGateZeroAlloc(t *testing.T) {
	names := list(zeroAllocDefault)
	var clean []benchfmt.Benchmark
	for _, n := range names {
		clean = append(clean, row(n, 10, 0))
	}
	if gateZeroAlloc(io.Discard, report(clean...), names) {
		t.Error("all-zero report failed")
	}
	dirty := append([]benchfmt.Benchmark(nil), clean...)
	dirty[len(dirty)-1].AllocsPerOp = 1
	if !gateZeroAlloc(io.Discard, report(dirty...), names) {
		t.Error("a nonzero allocs/op on the zero-alloc list passed")
	}
	if !gateZeroAlloc(io.Discard, report(clean[1:]...), names) {
		t.Error("a missing zero-alloc row passed")
	}
	// The sharded timer loop keeps a shard-ordering key per event; a key
	// array that allocated per event would show here, as would a diskos
	// chunk boxed per delivery.
	for _, tc := range []struct {
		name string
		fail bool
	}{
		{"BenchmarkKernelEventThroughputSharded", true},
		{"BenchmarkKernelDiskosStream", true},
		{"BenchmarkKernelEventThroughput", false}, // gated on ns/op, not on the zero-alloc list
	} {
		rows := append([]benchfmt.Benchmark(nil), clean...)
		rows = append(rows, row("BenchmarkKernelEventThroughput", 10, 0))
		for i := range rows {
			if rows[i].Name == tc.name {
				rows[i].AllocsPerOp = 1
			}
		}
		if got := gateZeroAlloc(io.Discard, report(rows...), names); got != tc.fail {
			t.Errorf("%s at 1 alloc/op: failed = %v, want %v", tc.name, got, tc.fail)
		}
	}
}

func TestGateParallel(t *testing.T) {
	slow := report(speedupRow("BenchmarkParallelSpeedup/select", 2.5), speedupRow("BenchmarkParallelSpeedup/sort", 1.2))
	for _, tc := range []struct {
		name       string
		cpu, procs int
		rep        *benchfmt.Report
		fail       bool
	}{
		{"below floor on enough cores", 8, 8, slow, true},
		{"below floor on too few cores is skipped", 2, 2, slow, false},
		{"gomaxprocs below mincpu is skipped", 8, 2, slow, false},
		{"above floor", 8, 8, report(speedupRow("BenchmarkParallelSpeedup/select", 2.5)), false},
		{"no speedup rows", 8, 8, report(row("BenchmarkKernelEventThroughput", 100, 0)), true},
	} {
		rep := *tc.rep
		rep.NumCPU, rep.GoMaxProcs = tc.cpu, tc.procs
		if got := gateParallel(io.Discard, &rep, 2.0, 4); got != tc.fail {
			t.Errorf("%s: failed = %v, want %v", tc.name, got, tc.fail)
		}
	}
}

// TestCommittedReports checks that every committed BENCH_*.json parses
// as a benchfmt report and passes the gates against itself.
func TestCommittedReports(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed reports found (%v)", err)
	}
	for _, p := range paths {
		rep, err := benchfmt.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Benchmarks) == 0 || rep.NumCPU == 0 || rep.GoMaxProcs == 0 {
			t.Errorf("%s: empty report or missing host header", p)
		}
	}
	kernel, err := benchfmt.ReadFile("../../BENCH_kernel.json")
	if err != nil {
		t.Fatal(err)
	}
	if gateBaseline(io.Discard, &kernel, &kernel, list(guardDefault), 0) ||
		gateZeroAlloc(io.Discard, &kernel, list(zeroAllocDefault)) {
		t.Error("BENCH_kernel.json fails its own gates")
	}
}
