// Command benchparallel measures the wall-clock speedup of the sharded
// parallel execution mode (-procmode parallel) over the single-kernel
// event mode on the shardable Active Disk tasks, and records the honest
// numbers — including the host's core count — as a JSON array with one
// row per task:
//
//	go run ./scripts/benchparallel            # or: make bench-parallel
//	go run ./scripts/benchparallel -tasks sort,join -disks 64 -count 3
//
// For every task the two runs must agree on the simulated elapsed time
// (the parallel mode is byte-equivalent, not approximately equal); the
// command fails if they diverge. benchguard gates the recorded speedups
// per task, and only when the measurement machine had enough cores for
// the comparison to mean anything.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"howsim/internal/arch"
	"howsim/internal/sim"
	"howsim/internal/tasks"
	"howsim/internal/workload"
)

type report struct {
	Generated  string  `json:"generated"`
	GoVersion  string  `json:"go_version"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"num_cpu"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Task       string  `json:"task"`
	Disks      int     `json:"disks"`
	Scale      float64 `json:"scale"`
	Count      int     `json:"count"`
	SingleMs   float64 `json:"single_ms"`
	ParallelMs float64 `json:"parallel_ms"`
	Speedup    float64 `json:"speedup"`
	ElapsedSim string  `json:"elapsed_sim"`
}

func main() {
	var (
		out      = flag.String("out", "BENCH_parallel.json", "output file")
		taskList = flag.String("tasks", "select,sort,join",
			"comma-separated shardable tasks: select|aggregate|groupby|dcube|sort|join|dmine|mview")
		disks = flag.Int("disks", 64, "Active Disk farm size (one shard per disk)")
		scale = flag.Float64("scale", 0.25, "dataset scale factor")
		count = flag.Int("count", 3, "repetitions per mode (best wall time wins)")
	)
	flag.Parse()

	datasets, err := scaledDatasets(*taskList, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchparallel:", err)
		os.Exit(2)
	}
	var rows []report
	for _, ds := range datasets {
		task := ds.Task
		cfg := arch.ActiveDisks(*disks)

		singleWall, singleSim := measure(tasks.ModeEvent, cfg, task, ds, *count)
		parWall, parSim := measure(tasks.ModeParallel, cfg, task, ds, *count)
		if singleSim != parSim {
			fmt.Fprintf(os.Stderr, "benchparallel: %s: simulated time diverged: event %v, parallel %v\n",
				task, singleSim, parSim)
			os.Exit(1)
		}

		r := report{
			Generated:  time.Now().UTC().Format(time.RFC3339),
			GoVersion:  runtime.Version(),
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GoMaxProcs: runtime.GOMAXPROCS(0),
			Task:       task.String(),
			Disks:      *disks,
			Scale:      *scale,
			Count:      *count,
			SingleMs:   float64(singleWall.Microseconds()) / 1e3,
			ParallelMs: float64(parWall.Microseconds()) / 1e3,
			Speedup:    singleWall.Seconds() / parWall.Seconds(),
			ElapsedSim: singleSim.String(),
		}
		rows = append(rows, r)
		fmt.Printf("%s on %d disks: %.1f ms single / %.1f ms parallel = %.2fx on %d cores\n",
			r.Task, r.Disks, r.SingleMs, r.ParallelMs, r.Speedup, r.NumCPU)
	}
	if len(rows) == 0 {
		fmt.Fprintln(os.Stderr, "benchparallel: no tasks given")
		os.Exit(2)
	}

	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchparallel:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchparallel:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d tasks)\n", *out, len(rows))
}

// scaledDatasets parses the comma-separated task list and scales each
// task's dataset, so a bad task name or a scale too small for some
// dataset fails before anything is measured.
func scaledDatasets(taskList string, scale float64) ([]workload.Dataset, error) {
	var out []workload.Dataset
	for _, name := range strings.Split(taskList, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		task, err := workload.ParseTask(name)
		if err != nil {
			return nil, err
		}
		ds, err := workload.ForTaskScaled(task, scale)
		if err != nil {
			return nil, err
		}
		out = append(out, ds)
	}
	return out, nil
}

// measure runs the task count times in the given mode and returns the
// best wall time plus the (mode-independent) simulated elapsed time.
func measure(mode tasks.ExecMode, cfg arch.Config, task workload.TaskID, ds workload.Dataset,
	count int) (time.Duration, sim.Time) {
	prev := tasks.DefaultExecMode
	tasks.DefaultExecMode = mode
	defer func() { tasks.DefaultExecMode = prev }()
	var best time.Duration
	var elapsed sim.Time
	for i := 0; i < count; i++ {
		start := time.Now()
		r := tasks.RunDataset(cfg, task, ds)
		wall := time.Since(start)
		if i == 0 || wall < best {
			best = wall
		}
		elapsed = r.Elapsed
	}
	return best, elapsed
}
