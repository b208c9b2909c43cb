// Package experiments regenerates every table and figure of the paper's
// evaluation: Table 1 (cost evolution), Table 2 (datasets), Figure 1
// (architecture comparison), Figure 2 (interconnect bandwidth), Figure 3
// (sort breakdown), Figure 4 (disk memory) and Figure 5 (communication
// architecture). Each driver runs the needed simulations (in parallel —
// every run owns its kernel) and renders the result as text.
package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"howsim/internal/arch"
	"howsim/internal/probe"
	"howsim/internal/tasks"
	"howsim/internal/workload"
)

// Options controls experiment scale, parallelism and observability.
type Options struct {
	// Scale multiplies the Table 2 dataset sizes (1.0 = full scale;
	// tests use small fractions; 0 means full scale). Validate rejects
	// a scale that shrinks some dataset below one byte.
	Scale float64
	// Sizes are the configuration sizes to sweep (default 16/32/64/128).
	Sizes []int
	// Parallel bounds concurrent simulations (default GOMAXPROCS).
	Parallel int
	// Mode is every simulation's execution mode (zero: ModeEvent).
	Mode tasks.ExecMode
	// Trace, when non-empty, attaches an observability sink to every
	// simulation a driver runs and writes one Chrome trace per run,
	// with ".<config>.<task>" inserted before the path's extension.
	Trace string
	// Breakdown attaches a sink to every simulation and prints each
	// run's utilization/phase breakdown report to stdout.
	Breakdown bool
	// RingSpans multiplies each sink's span-ring capacity relative to
	// probe.DefaultRingSpans (values below 1 mean the default). Full
	// Table 2 scale runs overflow the default ring; raising the
	// multiplier trades memory for complete timelines.
	RingSpans int
}

// Default returns full-scale options over the paper's sizes.
func Default() Options {
	return Options{Scale: 1.0, Sizes: arch.StudiedSizes()}
}

// Quick returns reduced options for tests: 1/256-scale datasets on
// 4- and 8-disk configurations.
func Quick() Options {
	return Options{Scale: 1.0 / 256, Sizes: []int{4, 8}}
}

func (o Options) sizes() []int {
	if len(o.Sizes) == 0 {
		return arch.StudiedSizes()
	}
	return o.Sizes
}

func (o Options) parallel() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// Validate reports an error when Scale would shrink some task's
// dataset below one byte. Drivers run the datasets unchecked, so call
// it before running anything.
func (o Options) Validate() error {
	for _, task := range AllTasks() {
		if _, err := o.scaled(task); err != nil {
			return err
		}
	}
	return nil
}

func (o Options) scaled(task workload.TaskID) (workload.Dataset, error) {
	if o.Scale == 0 {
		return workload.ForTask(task), nil
	}
	return workload.ForTaskScaled(task, o.Scale)
}

// dataset returns the (possibly scaled) dataset for a task. It panics
// on a scale Validate rejects rather than run the full dataset.
func (o Options) dataset(task workload.TaskID) workload.Dataset {
	ds, err := o.scaled(task)
	if err != nil {
		panic(err)
	}
	return ds
}

// job is one simulation to run.
type job struct {
	cfg  arch.Config
	task workload.TaskID
	out  **tasks.Result
}

// probed reports whether the options request per-run observability.
func (o Options) probed() bool { return o.Trace != "" || o.Breakdown }

// ringSpans returns the span-ring capacity each run's sink is created
// with.
func (o Options) ringSpans() int {
	m := o.RingSpans
	if m < 1 {
		m = 1
	}
	return m * probe.DefaultRingSpans
}

// runAll executes jobs with bounded parallelism. Each simulation is
// fully independent (own kernel — and, when probed, its own sink), so
// results are deterministic regardless of scheduling; probed outputs
// are emitted in job order only after every run has finished.
func (o Options) runAll(jobs []job) {
	sem := make(chan struct{}, o.parallel())
	var wg sync.WaitGroup
	var sinks []*probe.Sink
	if o.probed() {
		sinks = make([]*probe.Sink, len(jobs))
	}
	for i, j := range jobs {
		i, j := i, j
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			var sink *probe.Sink
			if sinks != nil {
				sink = probe.NewSinkCap(o.ringSpans())
				sinks[i] = sink
			}
			// context.TODO never cancels, so RunCtx never errors.
			*j.out, _ = tasks.RunCtx(context.TODO(), j.cfg, j.task, o.dataset(j.task), nil, sink, o.Mode)
		}()
	}
	wg.Wait()
	if sinks != nil {
		o.emitProbed(jobs, sinks)
	}
}

// emitProbed writes each probed run's trace file and prints its
// breakdown report, in job order.
func (o Options) emitProbed(jobs []job, sinks []*probe.Sink) {
	for i, j := range jobs {
		sink := sinks[i]
		if o.Trace != "" {
			path := suffixed(o.Trace, j.cfg.Name()+"."+j.task.String())
			if err := sink.WriteTraceFile(path); err != nil {
				fmt.Fprintln(os.Stderr, err)
				continue
			}
			fmt.Fprintf(os.Stderr, "trace written to %s (%d spans, %d dropped)\n",
				path, sink.SpansRecorded(), sink.Dropped())
		}
		if o.Breakdown {
			fmt.Print(sink.BuildReport(j.task.String(), j.cfg.Name(), int64((*j.out).Elapsed)).Render())
			fmt.Println()
		}
	}
}

// suffixed inserts a label before the path's extension:
// out.json + active64.sort -> out.active64.sort.json.
func suffixed(path, label string) string {
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + label + ext
}

// AllTasks is the presentation order used by the paper's figures.
func AllTasks() []workload.TaskID {
	return []workload.TaskID{
		workload.Aggregate, workload.GroupBy, workload.Select, workload.Sort,
		workload.Join, workload.DataCube, workload.DataMine, workload.MView,
	}
}
