package experiments

import (
	"fmt"
	"strings"

	"howsim/internal/arch"
	"howsim/internal/stats"
	"howsim/internal/tasks"
	"howsim/internal/workload"
)

// baselines returns the three architectures' baseline machines at size
// n, in arch.Kind order.
func baselines(n int) []arch.Config {
	return []arch.Config{arch.ActiveDisks(n), arch.Cluster(n), arch.SMP(n)}
}

// improvementPct returns how much faster after is than before, in
// percent of before.
func improvementPct(before, after float64) float64 {
	return (before - after) / before * 100
}

// Figure1 compares the three architectures on all eight tasks at every
// configuration size; results are normalized to the Active Disk time of
// the same size, exactly as in the paper's Figure 1.
type Figure1 struct {
	Sizes []int
	Tasks []workload.TaskID
	s     *Sweep
}

// RunFigure1 executes the 8 tasks x 3 architectures x sizes matrix.
func RunFigure1(s *Sweep) *Figure1 {
	f := &Figure1{Sizes: s.opt.sizes(), Tasks: AllTasks(), s: s}
	s.run(grid(f.Sizes, f.Tasks, baselines))
	return f
}

// Result returns one task's run on one architecture's baseline machine.
func (f *Figure1) Result(size int, t workload.TaskID, k arch.Kind) *tasks.Result {
	return f.s.result(baselines(size)[k], t)
}

// Render prints one grouped bar chart per configuration size.
func (f *Figure1) Render() string {
	return f.s.normalizedCharts("Figure 1: normalized execution time, %d-disk configurations (Active = 1.0)",
		f.Sizes, f.Tasks, []string{"Active", "Cluster", "SMP"}, baselines)
}

// normalizedCharts prints one grouped bar chart per size: each task's
// time on each machine, divided by its time on the baseline Active
// Disk farm of that size. The title takes the size.
func (s *Sweep) normalizedCharts(title string, sizes []int, ts []workload.TaskID,
	series []string, machines func(n int) []arch.Config) string {
	var sb strings.Builder
	for _, n := range sizes {
		ch := &stats.BarChart{Title: fmt.Sprintf(title, n), Series: series, Unit: "x"}
		for _, t := range ts {
			ch.Groups = append(ch.Groups, strings.ToUpper(t.String()))
			var row []float64
			for _, cfg := range machines(n) {
				row = append(row, s.seconds(cfg, t)/s.seconds(arch.ActiveDisks(n), t))
			}
			ch.Values = append(ch.Values, row)
		}
		sb.WriteString(ch.String())
		sb.WriteString("\n")
	}
	return sb.String()
}

// Figure2 varies the serial I/O interconnect (200 vs 400 MB/s) for
// Active Disk and SMP configurations at 64 and 128 disks; values are
// normalized to the 200 MB/s Active Disk time of the same size.
type Figure2 struct {
	Sizes []int
	Tasks []workload.TaskID
	s     *Sweep
}

// Figure2Variants are the four configurations of Figure 2's legend.
var Figure2Variants = []string{"200MB(A)", "400MB(A)", "200MB(S)", "400MB(S)"}

// figure2Config returns the machine behind a Figure 2 variant.
func figure2Config(variant string, n int) arch.Config {
	switch variant {
	case "200MB(A)":
		return arch.ActiveDisks(n)
	case "400MB(A)":
		return arch.ActiveDisks(n).WithFastIO()
	case "200MB(S)":
		return arch.SMP(n)
	case "400MB(S)":
		return arch.SMP(n).WithFastIO()
	}
	panic("experiments: no Figure 2 variant " + variant)
}

// RunFigure2 executes the interconnect sweep.
func RunFigure2(s *Sweep) *Figure2 {
	sizes := s.opt.sizes()
	if len(sizes) > 2 {
		sizes = sizes[len(sizes)-2:] // the paper shows 64 and 128 disks
	}
	f := &Figure2{Sizes: sizes, Tasks: AllTasks(), s: s}
	// The variants run in name order, which probed output follows.
	s.run(grid(sizes, f.Tasks, func(n int) []arch.Config {
		return []arch.Config{figure2Config("200MB(A)", n), figure2Config("200MB(S)", n),
			figure2Config("400MB(A)", n), figure2Config("400MB(S)", n)}
	}))
	return f
}

// Result returns one task's run on one Figure 2 variant.
func (f *Figure2) Result(size int, t workload.TaskID, variant string) *tasks.Result {
	return f.s.result(figure2Config(variant, size), t)
}

// Render prints one chart per size.
func (f *Figure2) Render() string {
	return f.s.normalizedCharts("Figure 2: impact of I/O interconnect bandwidth, %d disks (200MB(A) = 1.0)",
		f.Sizes, f.Tasks, Figure2Variants, func(n int) []arch.Config {
			var cfgs []arch.Config
			for _, v := range Figure2Variants {
				cfgs = append(cfgs, figure2Config(v, n))
			}
			return cfgs
		})
}

// Figure3 is the sort execution-time breakdown on Active Disk
// configurations: base, Fast Disk (Hitachi) and Fast I/O (400 MB/s)
// variants at every size.
type Figure3 struct {
	Sizes    []int
	Variants []string
	s        *Sweep
}

// Figure3Variants matches the figure's bar labels.
var Figure3Variants = []string{"base", "Fast Disk", "Fast I/O"}

// figure3Config returns the machine behind a Figure 3 variant.
func figure3Config(variant string, n int) arch.Config {
	switch variant {
	case "base":
		return arch.ActiveDisks(n)
	case "Fast Disk":
		return arch.ActiveDisks(n).WithFastDisk()
	case "Fast I/O":
		return arch.ActiveDisks(n).WithFastIO()
	}
	panic("experiments: no Figure 3 variant " + variant)
}

// RunFigure3 executes the sort breakdown sweep.
func RunFigure3(s *Sweep) *Figure3 {
	f := &Figure3{Sizes: s.opt.sizes(), Variants: Figure3Variants, s: s}
	// The variants run in name order, which probed output follows.
	s.run(grid(f.Sizes, []workload.TaskID{workload.Sort}, func(n int) []arch.Config {
		return []arch.Config{figure3Config("Fast Disk", n), figure3Config("Fast I/O", n), figure3Config("base", n)}
	}))
	return f
}

// Result returns the sort run on one Figure 3 variant.
func (f *Figure3) Result(size int, variant string) *tasks.Result {
	return f.s.result(figure3Config(variant, size), workload.Sort)
}

// Buckets is Figure 3(b)'s legend order.
var figure3Buckets = []string{"P1:Partitioner", "P1:Append", "P1:Sort", "P1:Idle", "P2:Merge", "P2:Idle"}

// Fractions returns each bucket's share of elapsed time for one
// size/variant.
func (f *Figure3) Fractions(size int, variant string) []float64 {
	res := f.Result(size, variant)
	out := make([]float64, len(figure3Buckets))
	for i, b := range figure3Buckets {
		out[i] = res.Breakdown.Fraction(b)
	}
	return out
}

// Render prints the stacked breakdown bars.
func (f *Figure3) Render() string {
	sb := &strings.Builder{}
	chart := &stats.StackedBars{
		Title:   "Figure 3: breakdown of sort on Active Disk configurations (% of elapsed time)",
		Buckets: figure3Buckets,
	}
	for _, n := range f.Sizes {
		for _, v := range f.Variants {
			chart.Groups = append(chart.Groups, fmt.Sprintf("%d disks / %s", n, v))
			chart.Fractions = append(chart.Fractions, f.Fractions(n, v))
		}
	}
	chart.Render(sb)
	for _, n := range f.Sizes {
		for _, v := range f.Variants {
			r := f.Result(n, v)
			fmt.Fprintf(sb, "%3d disks / %-9s elapsed %8.1fs (P1 %.1fs, P2 %.1fs, %.0f runs)\n",
				n, v, r.Elapsed.Seconds(), r.Details["p1_seconds"], r.Details["p2_seconds"], r.Details["runs"])
		}
	}
	return sb.String()
}

// Figure4 measures the improvement from growing Active Disk memory from
// 32 MB to 64 MB for the memory-sensitive tasks.
type Figure4 struct {
	Sizes []int
	Tasks []workload.TaskID
	s     *Sweep
}

// Figure4Tasks matches the figure's x-axis.
func Figure4Tasks() []workload.TaskID {
	return []workload.TaskID{workload.Select, workload.Sort, workload.Join, workload.DataCube, workload.MView}
}

// figure4Machines returns the 32 MB and the 64 MB Active Disk farm.
func figure4Machines(n int) []arch.Config {
	return []arch.Config{arch.ActiveDisks(n), arch.ActiveDisks(n).WithDiskMemory(64 << 20)}
}

// RunFigure4 executes the memory sweep.
func RunFigure4(s *Sweep) *Figure4 {
	f := &Figure4{Sizes: s.opt.sizes(), Tasks: Figure4Tasks(), s: s}
	s.run(grid(f.Sizes, f.Tasks, figure4Machines))
	return f
}

// ImprovementPct returns the percentage improvement of 64 MB over 32 MB.
func (f *Figure4) ImprovementPct(size int, t workload.TaskID) float64 {
	m := figure4Machines(size)
	return improvementPct(f.s.seconds(m[0], t), f.s.seconds(m[1], t))
}

// Render prints the improvement chart.
func (f *Figure4) Render() string {
	return bySize("Figure 4: % improvement in execution time with 64 MB (vs 32 MB) per Active Disk", "%",
		f.Sizes, f.Tasks, func(n int, t workload.TaskID) float64 {
			// Clamp sub-noise regressions, as a bar chart cannot show them.
			return max(f.ImprovementPct(n, t), 0)
		})
}

// bySize prints one bar chart with a bar per size in each task's group.
func bySize(title, unit string, sizes []int, ts []workload.TaskID, value func(n int, t workload.TaskID) float64) string {
	ch := &stats.BarChart{Title: title, Unit: unit}
	for _, n := range sizes {
		ch.Series = append(ch.Series, fmt.Sprintf("%d disks", n))
	}
	for _, t := range ts {
		ch.Groups = append(ch.Groups, strings.ToUpper(t.String()))
		var row []float64
		for _, n := range sizes {
			row = append(row, value(n, t))
		}
		ch.Values = append(ch.Values, row)
	}
	return ch.String()
}

// Figure5 restricts Active Disks to front-end-relayed communication and
// reports slowdowns relative to the direct architecture.
type Figure5 struct {
	Sizes []int
	Tasks []workload.TaskID
	s     *Sweep
}

// figure5Machines returns the direct and the front-end-only Active
// Disk farm.
func figure5Machines(n int) []arch.Config {
	return []arch.Config{arch.ActiveDisks(n), arch.ActiveDisks(n).WithFrontEndOnly()}
}

// RunFigure5 executes the communication-architecture sweep.
func RunFigure5(s *Sweep) *Figure5 {
	sizes := s.opt.sizes()
	if len(sizes) > 3 {
		sizes = sizes[len(sizes)-3:] // the paper shows 32/64/128 disks
	}
	f := &Figure5{Sizes: sizes, Tasks: AllTasks(), s: s}
	s.run(grid(sizes, f.Tasks, figure5Machines))
	return f
}

// Slowdown returns restricted/direct time for one size and task.
func (f *Figure5) Slowdown(size int, t workload.TaskID) float64 {
	m := figure5Machines(size)
	return f.s.seconds(m[1], t) / f.s.seconds(m[0], t)
}

// Render prints the slowdown chart.
func (f *Figure5) Render() string {
	return bySize("Figure 5: slowdown with front-end-only communication (direct = 1.0)", "x",
		f.Sizes, f.Tasks, f.Slowdown)
}
