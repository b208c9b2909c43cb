// Package experiments regenerates every table and figure of the paper's
// evaluation: Table 1 (cost evolution), Table 2 (datasets), Figure 1
// (architecture comparison), Figure 2 (interconnect bandwidth), Figure 3
// (sort breakdown), Figure 4 (disk memory) and Figure 5 (communication
// architecture). Each driver lists the (machine, task) cells it needs
// and runs them on a Sweep, which simulates each distinct cell once (in
// parallel — every run owns its kernel); the driver then renders the
// results as text.
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
	"howsim/internal/runconfig"
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
	// simulation a sweep runs and writes one Chrome trace per run,
	// with ".<config>.<task>" inserted before the path's extension.
	Trace string
	// Breakdown attaches a sink to every simulation and prints the
	// utilization/phase breakdown report of every run a driver asks
	// for to stdout.
	Breakdown bool
	// RingSpans multiplies each sink's span-ring capacity relative to
	// probe.DefaultRingSpans (0 means the default; Validate rejects
	// values outside [0, runconfig.MaxRingSpans]). Full Table 2 scale
	// runs overflow the default ring; raising the multiplier trades
	// memory for complete timelines.
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
// dataset below one byte, or when RingSpans is out of range. Drivers
// run the datasets unchecked, so call it before running anything.
func (o Options) Validate() error {
	if o.RingSpans < 0 || o.RingSpans > runconfig.MaxRingSpans {
		return fmt.Errorf("experiments: ring spans %d out of range [0, %d]", o.RingSpans, runconfig.MaxRingSpans)
	}
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

// ringSpans returns the span-ring capacity each run's sink is created
// with.
func (o Options) ringSpans() int {
	m := o.RingSpans
	if m < 1 {
		m = 1
	}
	return m * probe.DefaultRingSpans
}

// cell is one simulation. Once a sweep has fixed the scale and mode,
// the machine and the task are everything that determines it.
type cell struct {
	cfg  arch.Config
	task workload.TaskID
}

// run is what a sweep keeps of one cell's simulation. When probed it
// keeps the trace file's line for stderr and the rendered breakdown for
// stdout, not the sink.
type run struct {
	res            *tasks.Result
	stderr, stdout string
}

// Sweep is a run table: it simulates each distinct cell the drivers
// ask for once and hands every driver that asks for the cell the same
// result, which nothing writes after the run. A Sweep is not safe for
// concurrent use.
type Sweep struct {
	opt  Options
	runs map[cell]*run
}

// NewSweep returns an empty run table for the options.
func NewSweep(o Options) *Sweep {
	return &Sweep{opt: o, runs: map[cell]*run{}}
}

// Runs returns how many simulations the sweep has run.
func (s *Sweep) Runs() int { return len(s.runs) }

// run simulates the listed cells the table lacks, with bounded
// parallelism. Each simulation is fully independent (own kernel and,
// when probed, its own sink), so results do not depend on scheduling.
// A probed sweep then prints every listed cell's trace line and
// breakdown in list order, whether the cell ran now or for an earlier
// driver.
func (s *Sweep) run(cells []cell) {
	sem := make(chan struct{}, s.opt.parallel())
	var wg sync.WaitGroup
	for _, c := range cells {
		if s.runs[c] != nil {
			continue
		}
		r := new(run)
		s.runs[c] = r
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			*r = s.opt.simulate(c)
		}()
	}
	wg.Wait()
	for _, c := range cells {
		fmt.Fprint(os.Stderr, s.runs[c].stderr)
		fmt.Print(s.runs[c].stdout)
	}
}

// simulate runs one cell. When probed it writes the cell's trace file
// and renders what the sweep prints for the cell.
func (o Options) simulate(c cell) (r run) {
	var sink *probe.Sink
	if o.Trace != "" || o.Breakdown {
		sink = probe.NewSinkCap(o.ringSpans())
	}
	// context.TODO never cancels, so RunCtx never errors.
	r.res, _ = tasks.RunCtx(context.TODO(), c.cfg, c.task, o.dataset(c.task), nil, sink, o.Mode)
	if o.Trace != "" {
		path := suffixed(o.Trace, c.cfg.Name()+"."+c.task.String())
		if err := sink.WriteTraceFile(path); err != nil {
			r.stderr = err.Error() + "\n"
			return r
		}
		r.stderr = fmt.Sprintf("trace written to %s (%d spans, %d dropped)\n",
			path, sink.SpansRecorded(), sink.Dropped())
	}
	if o.Breakdown {
		r.stdout = sink.BuildReport(c.task.String(), c.cfg.Name(), int64(r.res.Elapsed)).Render() + "\n"
	}
	return r
}

// result returns a cell's result; the caller must have run the cell.
func (s *Sweep) result(cfg arch.Config, task workload.TaskID) *tasks.Result {
	return s.runs[cell{cfg, task}].res
}

// seconds returns a run cell's simulated elapsed time in seconds.
func (s *Sweep) seconds(cfg arch.Config, task workload.TaskID) float64 {
	return s.result(cfg, task).Elapsed.Seconds()
}

// grid lists one cell per size, task and machine, nested in that
// order: the order a driver's probed output follows.
func grid(sizes []int, ts []workload.TaskID, machines func(n int) []arch.Config) []cell {
	var cells []cell
	for _, n := range sizes {
		for _, t := range ts {
			for _, cfg := range machines(n) {
				cells = append(cells, cell{cfg, t})
			}
		}
	}
	return cells
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
