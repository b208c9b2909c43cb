// Package benchfmt parses `go test -bench` output into the one JSON
// report shape every committed BENCH_*.json uses (BENCH_kernel.json for
// the kernel and service-path microbenchmarks, BENCH_parallel.json for
// the per-task parallel/event speedup). Each report records the host it
// was measured on — num_cpu, gomaxprocs and the git SHA — so a number
// can always be traced to its machine and code, and scripts/benchguard
// can gate any report it is handed.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed `go test -bench` result line.
type Benchmark struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the BENCH_*.json document.
type Report struct {
	Generated  string      `json:"generated"`
	GoVersion  string      `json:"go_version"`
	GOARCH     string      `json:"goarch"`
	NumCPU     int         `json:"num_cpu"`
	GoMaxProcs int         `json:"gomaxprocs"`
	GitSHA     string      `json:"git_sha"`
	Package    string      `json:"package"`
	Pattern    string      `json:"pattern"`
	Count      int         `json:"count"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// NewReport stamps a report header for the current toolchain, host and
// checkout. GitSHA is HEAD's commit, empty outside a git checkout.
func NewReport(pkg, pattern string, count int) Report {
	sha, _ := exec.Command("git", "rev-parse", "HEAD").Output()
	return Report{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GitSHA:     strings.TrimSpace(string(sha)),
		Package:    pkg,
		Pattern:    pattern,
		Count:      count,
	}
}

// ParseLine parses one result line, e.g.
//
//	BenchmarkKernelEventThroughput-8  10646050  114.6 ns/op  8726570 events/s  0 B/op  0 allocs/op
//
// A numeric -GOMAXPROCS suffix is stripped from the name; any other
// "-" is part of the name (go test prints no suffix at GOMAXPROCS=1).
// Non-benchmark lines return ok=false.
func ParseLine(line string) (Benchmark, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return Benchmark{}, false
	}
	name := f[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Iterations: iters}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return b, true
}

// ParseOutput parses a full `go test -bench` transcript, keeping the
// best (lowest ns/op) run of each benchmark in first-seen order.
func ParseOutput(raw []byte) []Benchmark {
	best := map[string]Benchmark{}
	var order []string
	for _, line := range strings.Split(string(raw), "\n") {
		b, ok := ParseLine(line)
		if !ok {
			continue
		}
		if prev, seen := best[b.Name]; !seen {
			order = append(order, b.Name)
			best[b.Name] = b
		} else if b.NsPerOp < prev.NsPerOp {
			best[b.Name] = b
		}
	}
	out := make([]Benchmark, 0, len(order))
	for _, name := range order {
		out = append(out, best[name])
	}
	return out
}

// Find returns the named benchmark from a report.
func (r *Report) Find(name string) (Benchmark, bool) {
	for _, b := range r.Benchmarks {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// WriteFile writes the report as indented JSON with a trailing newline.
func (r *Report) WriteFile(path string) error {
	enc, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}

// ReadFile loads a previously written report.
func ReadFile(path string) (Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return Report{}, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}
