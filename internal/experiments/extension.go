package experiments

import (
	"fmt"
	"strings"

	"howsim/internal/arch"
	"howsim/internal/stats"
	"howsim/internal/workload"
)

// ExtensionFibreSwitch evaluates the paper's future-work recommendation:
// "To scale to configurations larger than the ones examined in this
// paper, we recommend a more aggressive interconnect (e.g., multiple
// Fibre Channel loops connected by a FibreSwitch)." It runs the
// communication-intensive tasks on large Active Disk farms with the
// baseline single dual loop and with 4- and 8-loop FibreSwitch fabrics.
type ExtensionFibreSwitch struct {
	Sizes   []int
	Tasks   []workload.TaskID
	Fabrics []int // switched loop counts; 1 = baseline
	s       *Sweep
}

// fabric returns the Active Disk farm on the given number of switched
// loops (1: the baseline single loop).
func fabric(n, loops int) arch.Config {
	if loops > 1 {
		return arch.ActiveDisks(n).WithFibreSwitch(loops)
	}
	return arch.ActiveDisks(n)
}

// RunExtensionFibreSwitch executes the interconnect-scaling study on
// 128- and 256-disk farms (the latter beyond the paper's range).
func RunExtensionFibreSwitch(s *Sweep) *ExtensionFibreSwitch {
	sizes := []int{128, 256}
	if s.opt.sizes()[len(s.opt.sizes())-1] < 64 {
		// Test-scale runs use the caller's (small) sizes.
		sizes = s.opt.sizes()
	}
	f := &ExtensionFibreSwitch{
		Sizes:   sizes,
		Tasks:   []workload.TaskID{workload.Sort, workload.Join, workload.MView},
		Fabrics: []int{1, 4, 8},
		s:       s,
	}
	s.run(grid(f.Sizes, f.Tasks, func(n int) []arch.Config {
		var cfgs []arch.Config
		for _, loops := range f.Fabrics {
			cfgs = append(cfgs, fabric(n, loops))
		}
		return cfgs
	}))
	return f
}

// Speedup returns baseline time / switched time for one cell.
func (f *ExtensionFibreSwitch) Speedup(size int, t workload.TaskID, loops int) float64 {
	return f.s.seconds(fabric(size, 1), t) / f.s.seconds(fabric(size, loops), t)
}

// Render prints the scaling study.
func (f *ExtensionFibreSwitch) Render() string {
	tb := &stats.Table{
		Title: "Extension: FibreSwitch interconnects for large Active Disk farms (seconds; speedup vs single loop)",
		Cols:  []string{"Task", "Disks", "1 loop", "4 loops", "8 loops"},
	}
	for _, t := range f.Tasks {
		for _, n := range f.Sizes {
			row := []string{strings.ToUpper(t.String()), fmt.Sprintf("%d", n),
				fmt.Sprintf("%.1fs", f.s.seconds(fabric(n, 1), t))}
			for _, loops := range f.Fabrics[1:] {
				row = append(row, fmt.Sprintf("%.1fs (%.2fx)", f.s.seconds(fabric(n, loops), t), f.Speedup(n, t, loops)))
			}
			tb.AddRow(row...)
		}
	}
	return tb.String()
}

// ExtensionFrontEnd evaluates the paper's second configuration variant:
// scaling "the speed of the processor in the front-end host to 1 GHz".
// It runs the tasks whose critical path touches the front-end (group-by
// merging, data-mining candidate reductions, select result delivery) at
// both front-end clocks.
type ExtensionFrontEnd struct {
	Sizes []int
	Tasks []workload.TaskID
	s     *Sweep
}

// frontEnds returns the Active Disk farm with the 450 MHz and the
// 1 GHz front-end.
func frontEnds(n int) []arch.Config {
	return []arch.Config{arch.ActiveDisks(n), arch.ActiveDisks(n).WithFrontEnd(1e9)}
}

// RunExtensionFrontEnd executes the front-end clock sweep.
func RunExtensionFrontEnd(s *Sweep) *ExtensionFrontEnd {
	f := &ExtensionFrontEnd{
		Sizes: s.opt.sizes(),
		Tasks: []workload.TaskID{workload.Select, workload.GroupBy, workload.DataMine},
		s:     s,
	}
	s.run(grid(f.Sizes, f.Tasks, frontEnds))
	return f
}

// ImprovementPct returns the percentage improvement from the 1 GHz
// front-end.
func (f *ExtensionFrontEnd) ImprovementPct(size int, t workload.TaskID) float64 {
	m := frontEnds(size)
	return improvementPct(f.s.seconds(m[0], t), f.s.seconds(m[1], t))
}

// Render prints the front-end scaling study.
func (f *ExtensionFrontEnd) Render() string {
	tb := &stats.Table{
		Title: "Extension: 1 GHz front-end host (% improvement over 450 MHz)",
		Cols:  []string{"Task", "Disks", "450 MHz", "1 GHz", "Improvement"},
	}
	for _, t := range f.Tasks {
		for _, n := range f.Sizes {
			m := frontEnds(n)
			tb.AddRow(strings.ToUpper(t.String()), fmt.Sprintf("%d", n),
				fmt.Sprintf("%.1fs", f.s.seconds(m[0], t)),
				fmt.Sprintf("%.1fs", f.s.seconds(m[1], t)),
				fmt.Sprintf("%.1f%%", f.ImprovementPct(n, t)))
		}
	}
	return tb.String()
}

// ExtensionEmbeddedCPU evaluates the paper's core premise that Active
// Disk "processing power will evolve as the disk drives evolve": it
// scales the embedded processor from 200 MHz to 400 and 600 MHz on the
// compute-heaviest tasks at small configurations (where the embedded
// CPU, not I/O, is the constraint).
type ExtensionEmbeddedCPU struct {
	Sizes  []int
	Tasks  []workload.TaskID
	Clocks []float64
	s      *Sweep
}

// RunExtensionEmbeddedCPU executes the embedded-clock sweep.
func RunExtensionEmbeddedCPU(s *Sweep) *ExtensionEmbeddedCPU {
	sizes := s.opt.sizes()
	if len(sizes) > 2 {
		sizes = sizes[:2] // CPU-bound at small farms; 16 and 32 disks
	}
	f := &ExtensionEmbeddedCPU{
		Sizes:  sizes,
		Tasks:  []workload.TaskID{workload.Sort, workload.DataCube, workload.DataMine},
		Clocks: []float64{200e6, 400e6, 600e6},
		s:      s,
	}
	s.run(grid(f.Sizes, f.Tasks, func(n int) []arch.Config {
		var cfgs []arch.Config
		for _, hz := range f.Clocks {
			cfgs = append(cfgs, arch.ActiveDisks(n).WithEmbeddedCPU(hz))
		}
		return cfgs
	}))
	return f
}

// seconds returns one cell's time at an embedded clock.
func (f *ExtensionEmbeddedCPU) seconds(size int, t workload.TaskID, hz float64) float64 {
	return f.s.seconds(arch.ActiveDisks(size).WithEmbeddedCPU(hz), t)
}

// Speedup returns the 200 MHz time divided by the time at hz.
func (f *ExtensionEmbeddedCPU) Speedup(size int, t workload.TaskID, hz float64) float64 {
	return f.seconds(size, t, 200e6) / f.seconds(size, t, hz)
}

// Render prints the embedded-clock study.
func (f *ExtensionEmbeddedCPU) Render() string {
	tb := &stats.Table{
		Title: "Extension: embedded processor evolution (speedup vs 200 MHz Cyrix)",
		Cols:  []string{"Task", "Disks", "200 MHz", "400 MHz", "600 MHz"},
	}
	for _, t := range f.Tasks {
		for _, n := range f.Sizes {
			tb.AddRow(strings.ToUpper(t.String()), fmt.Sprintf("%d", n),
				fmt.Sprintf("%.1fs", f.seconds(n, t, 200e6)),
				fmt.Sprintf("%.1fs (%.2fx)", f.seconds(n, t, 400e6), f.Speedup(n, t, 400e6)),
				fmt.Sprintf("%.1fs (%.2fx)", f.seconds(n, t, 600e6), f.Speedup(n, t, 600e6)))
		}
	}
	return tb.String()
}

// ExtensionStraggler is a failure-injection study: one drive in the
// farm is derated to half speed. Architectures that statically
// partition work across disks (Active Disks, cluster) are bound by the
// straggler; the SMP's shared self-scheduling block queue absorbs it.
type ExtensionStraggler struct {
	Size  int
	Tasks []workload.TaskID
	s     *Sweep
}

// injured returns the machine with one drive derated to half speed.
func injured(cfg arch.Config) arch.Config { return cfg.WithDegradedDisks(1, 0.5) }

// RunExtensionStraggler executes the degraded-disk study at the largest
// configured size.
func RunExtensionStraggler(s *Sweep) *ExtensionStraggler {
	size := s.opt.sizes()[len(s.opt.sizes())-1]
	f := &ExtensionStraggler{
		Size:  size,
		Tasks: []workload.TaskID{workload.Select, workload.Sort},
		s:     s,
	}
	s.run(grid([]int{size}, f.Tasks, func(n int) []arch.Config {
		var cfgs []arch.Config
		for _, base := range baselines(n) {
			cfgs = append(cfgs, base, injured(base))
		}
		return cfgs
	}))
	return f
}

// SlowdownPct returns the percentage slowdown one straggler causes.
func (f *ExtensionStraggler) SlowdownPct(t workload.TaskID, k arch.Kind) float64 {
	base := baselines(f.Size)[k]
	h, i := f.s.seconds(base, t), f.s.seconds(injured(base), t)
	return (i - h) / h * 100
}

// Render prints the straggler study.
func (f *ExtensionStraggler) Render() string {
	tb := &stats.Table{
		Title: fmt.Sprintf("Extension: one half-speed drive in a %d-disk farm (%% slowdown)", f.Size),
		Cols:  []string{"Task", "Architecture", "healthy", "1 straggler", "slowdown"},
	}
	for _, t := range f.Tasks {
		for k, base := range baselines(f.Size) {
			tb.AddRow(strings.ToUpper(t.String()), arch.Kind(k).String(),
				fmt.Sprintf("%.1fs", f.s.seconds(base, t)),
				fmt.Sprintf("%.1fs", f.s.seconds(injured(base), t)),
				fmt.Sprintf("%.1f%%", f.SlowdownPct(t, arch.Kind(k))))
		}
	}
	return tb.String()
}
