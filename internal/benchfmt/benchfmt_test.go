package benchfmt

import "testing"

func TestParseLine(t *testing.T) {
	b, ok := ParseLine("BenchmarkKernelEventThroughput-8  10646050  114.6 ns/op  8726570 events/s  0 B/op  2 allocs/op")
	if !ok {
		t.Fatal("line did not parse")
	}
	if b.Name != "BenchmarkKernelEventThroughput" {
		t.Errorf("Name = %q, want suffix stripped", b.Name)
	}
	if b.Iterations != 10646050 || b.NsPerOp != 114.6 || b.BytesPerOp != 0 || b.AllocsPerOp != 2 {
		t.Errorf("parsed %+v", b)
	}
	if b.Metrics["events/s"] != 8726570 {
		t.Errorf("Metrics = %v, want events/s recorded", b.Metrics)
	}
	// Only a numeric suffix is the GOMAXPROCS tag: at GOMAXPROCS=1 go
	// test prints none, and a "-" inside the name must survive.
	for line, want := range map[string]string{
		"BenchmarkX/a-b  10  5.0 ns/op":   "BenchmarkX/a-b",
		"BenchmarkX/a-b-4  10  5.0 ns/op": "BenchmarkX/a-b",
	} {
		if b, ok := ParseLine(line); !ok || b.Name != want {
			t.Errorf("ParseLine(%q) name = %q (ok %v), want %q", line, b.Name, ok, want)
		}
	}
}

func TestParseLineRejectsNoise(t *testing.T) {
	for _, line := range []string{
		"",
		"goos: linux",
		"PASS",
		"ok  \thowsim/internal/sim\t1.8s",
		"Benchmark but not really",
	} {
		if _, ok := ParseLine(line); ok {
			t.Errorf("ParseLine(%q) parsed, want rejected", line)
		}
	}
}

func TestParseOutputKeepsBestRunInOrder(t *testing.T) {
	out := ParseOutput([]byte(`
goos: linux
BenchmarkB-8  100  200.0 ns/op  0 B/op  0 allocs/op
BenchmarkA-8  100  50.0 ns/op  0 B/op  0 allocs/op
BenchmarkB-8  100  150.0 ns/op  0 B/op  0 allocs/op
PASS
`))
	if len(out) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(out))
	}
	if out[0].Name != "BenchmarkB" || out[0].NsPerOp != 150.0 {
		t.Errorf("out[0] = %+v, want best BenchmarkB run first", out[0])
	}
	if out[1].Name != "BenchmarkA" || out[1].NsPerOp != 50.0 {
		t.Errorf("out[1] = %+v", out[1])
	}
}

func TestReportFind(t *testing.T) {
	r := Report{Benchmarks: []Benchmark{{Name: "BenchmarkA", NsPerOp: 1}}}
	if b, ok := r.Find("BenchmarkA"); !ok || b.NsPerOp != 1 {
		t.Errorf("Find(BenchmarkA) = %+v, %v", b, ok)
	}
	if _, ok := r.Find("BenchmarkMissing"); ok {
		t.Error("Find on a missing name returned ok")
	}
}
