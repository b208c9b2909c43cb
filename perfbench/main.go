// Command perfbench is howsim's benchmark. One invocation runs one
// workload from a seed and prints, as the last line of standard output,
// one JSON object: whether every output was correct, how many operations
// were attempted and how many failed, and each metric by name with its
// unit. The line before it records the run's provenance. Run it from
// the repository root through its wrapper, which builds it from source:
//
//	bash perfbench/run.sh --workload grid_event --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics with tracing
// off. --trace 1 is a separate traced run: it reports the per-layer
// metrics, takes a CPU profile and writes the benchmark's own spans to
// .bench_build/traces/. WORKLOADS.md describes the workloads and the
// metrics.
//
// Two maintenance modes, also run through the wrapper:
//
//	--update-golden    rewrite golden.txt from event-mode runs
//	--spread FILE...   per metric, the median and quartile spread of the
//	                   result lines saved in the FILEs
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Paths are relative to the repository root, where the benchmark runs.
const (
	goldenPath = "perfbench/golden.txt"
	traceDir   = ".bench_build/traces"
)

// setupReps is how often an untraced run repeats its set-up; setup_s is
// the median.
const setupReps = 3

func main() {
	name := flag.String("workload", "", "grid_event, shard_scan or howsimd_mix")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs derive from")
	seconds := flag.Int("seconds", 30, "nominal length of the measured window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	update := flag.Bool("update-golden", false, "rewrite "+goldenPath+" and exit")
	spread := flag.Bool("spread", false, "print the spread of the result lines in the named files and exit")
	flag.Parse()

	var err error
	switch {
	case *update:
		err = writeGolden(goldenPath)
	case *spread:
		err = printSpread(os.Stdout, flag.Args())
	default:
		err = runWorkload(*name, *seed, *seconds, *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

var workloads = map[string]func(*bench) error{
	"grid_event":  func(b *bench) error { return b.runClosed(gridConfigs(), nil, 5) },
	"shard_scan":  func(b *bench) error { return b.runClosed(shardConfigs(), shardComparisons(), 2) },
	"howsimd_mix": (*bench).runMix,
}

func runWorkload(name string, seed uint64, seconds, trace int) error {
	drive, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want grid_event, shard_scan or howsimd_mix)", name)
	}
	if seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	b := &bench{workload: name, seed: seed, seconds: seconds, traced: trace == 1,
		res: result{Metrics: map[string]metric{}}}
	if b.traced {
		b.tr = newTracer()
	}
	if err := drive(b); err != nil {
		return err
	}
	return b.emit(os.Stdout)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one invocation: its settings, its span recorder (nil when
// untraced) and the result it accumulates.
type bench struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	tr       *tracer
	res      result
	scales   []float64 // dataset scales the workload ran
	measured int       // ops in the measured window
	lateP99  float64   // mix clients' delay between requests, ms
	peakRSS  float64   // MB, for the provenance
	liveMB   float64   // MB, for the provenance
	latP90   float64   // ms, for the provenance
	latP99   float64   // ms, for the provenance
}

func (b *bench) set(name string, v float64, unit string) { b.res.Metrics[name] = metric{v, unit} }

func (b *bench) addScale(s float64) {
	for _, x := range b.scales {
		if x == s {
			return
		}
	}
	b.scales = append(b.scales, s)
}

// check counts one checked operation; a non-nil err fails it. Failures
// are reported on standard error and the run carries on.
func (b *bench) check(what string, err error) bool {
	b.res.Attempted++
	if err == nil {
		return true
	}
	b.res.Failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: FAILED %s: %v\n", b.workload, b.seed, what, err)
	return false
}

// endToEnd records the metrics every workload reports. passes holds
// each pass's op latencies in ms, and rates each pass's correct ops per
// second. A latency percentile is the median over passes of that
// percentile within a pass, and ops_per_s the median rate: every pass
// runs the same mix, so a stall of the host during one pass moves
// neither. sloFrac is the share of ops that met the latency limit. liveMB,
// the heap the window left live, goes to the provenance: it is a few
// hundred KB on shard_scan and moved by a third between runs.
func (b *bench) endToEnd(setups []float64, passes [][]float64, rates []float64, missP50, sloFrac float64, allocBytes uint64, liveMB float64) {
	b.measured = 0
	for _, p := range passes {
		b.measured += len(p)
	}
	_, b.peakRSS = rusage()
	b.set("setup_s", median(setups), "s")
	b.set("ops_per_s", median(rates), "1/s")
	b.set("lat_p50_ms", passPercentile(passes, 50), "ms")
	b.latP90, b.latP99 = passPercentile(passes, 90), passPercentile(passes, 99)
	b.set("miss_p50_ms", missP50, "ms")
	b.set("slo_ok_frac", sloFrac, "frac")
	b.set("alloc_mb", ratio(float64(allocBytes), float64(b.measured))/(1<<20), "MB")
	b.liveMB = liveMB
}

// emit prints the provenance line, then the result line.
func (b *bench) emit(w io.Writer) error {
	b.res.Correct = b.res.Failed == 0
	prov := map[string]any{
		"workload":      b.workload,
		"seed":          b.seed,
		"seconds":       b.seconds,
		"trace":         b.traced,
		"git_sha":       gitSHA(),
		"num_cpu":       runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"scales":        b.scales,
		"ops_attempted": b.res.Attempted,
		"ops_failed":    b.res.Failed,
		"ops_measured":  b.measured,
		"peak_rss_mb":   b.peakRSS,
		"live_heap_mb":  b.liveMB,
		"lat_p90_ms":    b.latP90,
		"lat_p99_ms":    b.latP99,
	}
	if b.workload == "howsimd_mix" {
		prov["loadgen_late_p99_ms"] = b.lateP99
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"provenance": prov}); err != nil {
		return err
	}
	return enc.Encode(b.res)
}

// gitSHA reads the checked-out commit from .git without running git; a
// checkout that is not a repository reports "unknown".
func gitSHA() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, symbolic := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !symbolic {
		return ref
	}
	if sha, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, _ := os.ReadFile(".git/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// printSpread reads the result line (the last line) of each named file
// and prints, per metric, the median, the quartiles and the distance
// between the quartiles as a share of the median: the spread the
// benchmark's bounds are judged against.
func printSpread(w io.Writer, files []string) error {
	if len(files) == 0 {
		return errors.New("--spread needs result files")
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		var last []byte
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
				last = append(last[:0], line...)
			}
		}
		var res result
		if err := json.Unmarshal(last, &res); err != nil {
			return fmt.Errorf("%s: last line is not a result: %w", f, err)
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-28s %5s %14s %14s %14s %9s\n", "metric", "runs", "median", "q1", "q3", "iqr/med")
	for _, name := range names {
		q1, q2, q3 := quartiles(values[name])
		fmt.Fprintf(w, "%-28s %5d %14.6g %14.6g %14.6g %9.4f %s\n",
			name, len(values[name]), q2, q1, q3, ratio(q3-q1, q2), units[name])
	}
	return nil
}
