// Command validate checks the simulator's component models against
// their published specifications and analytic expectations, the way the
// original DiskSim and Netsim were validated ("DiskSim has been
// validated against several disk drives using the published disk
// specifications"; "Netsim has been validated using a set of
// microbenchmarks ... yielding 2-6% accuracy"). Exit status is nonzero
// if any check falls outside its tolerance.
package main

import (
	"fmt"
	"os"

	"howsim/internal/bus"
	"howsim/internal/cpu"
	"howsim/internal/disk"
	"howsim/internal/netsim"
	"howsim/internal/sim"
)

type check struct {
	name      string
	measured  float64
	expected  float64
	unit      string
	tolerance float64 // relative
}

func (c check) ok() bool {
	if c.expected == 0 {
		return c.measured == 0
	}
	rel := (c.measured - c.expected) / c.expected
	if rel < 0 {
		rel = -rel
	}
	return rel <= c.tolerance
}

// checks measures every component model and pairs each measurement
// with its published or analytic value, in report order.
func checks() []check {
	spec := disk.Cheetah9LP()
	return []check{
		// --- Disk model vs Seagate ST39102 specification -----------------
		{
			name: "disk capacity", unit: "GB", tolerance: 0.05,
			measured: float64(spec.CapacityBytes()) / 1e9, expected: 9.1,
		},
		{
			name: "outer-zone media rate", unit: "MB/s", tolerance: 0.02,
			measured: spec.MaxMediaRate() / 1e6, expected: 21.3,
		},
		{
			name: "inner-zone media rate", unit: "MB/s", tolerance: 0.02,
			measured: spec.MinMediaRate() / 1e6, expected: 14.5,
		},
		{
			name: "sequential read throughput", unit: "MB/s", tolerance: 0.06,
			measured: seqReadRate() / 1e6, expected: spec.MaxMediaRate() / 1e6,
		},
		{
			name: "random 8KB read service", unit: "ms", tolerance: 0.35,
			measured: randomReadMs(),
			// avg seek + half rotation + transfer + controller overhead
			expected: spec.AvgSeekRead.Milliseconds() + spec.RotationPeriod().Milliseconds()/2 + 0.8,
		},

		// --- Interconnect models ------------------------------------------
		{
			name: "dual FC-AL aggregate bandwidth", unit: "MB/s", tolerance: 0.02,
			measured: fcalAggregate() / 1e6, expected: 200,
		},

		// --- Network model -------------------------------------------------
		{
			name: "cluster NIC point-to-point", unit: "MB/s", tolerance: 0.05,
			measured: p2pRate() / 1e6, expected: 11.7,
		},
		{
			name: "small-message latency", unit: "us", tolerance: 0.3,
			measured: p2pLatencyUS(),
			// two 1 KB serializations at 11.7 MB/s plus two 10 us hops
			expected: 2*(1024.0/11.7e6*1e6) + 20,
		},

		// --- Processor model -----------------------------------------------
		{
			name: "200 MHz cycle accounting", unit: "s", tolerance: 0.001,
			measured: cpuSecondsFor(200e6, 200e6), expected: 1.0,
		},
	}
}

func main() {
	fail := 0
	fmt.Printf("%-32s %12s %12s %8s  %s\n", "check", "measured", "expected", "tol", "status")
	for _, c := range checks() {
		status := "ok"
		if !c.ok() {
			status = "FAIL"
			fail++
		}
		fmt.Printf("%-32s %9.2f %s %9.2f %s %7.0f%%  %s\n",
			c.name, c.measured, c.unit, c.expected, c.unit, c.tolerance*100, status)
	}
	if fail > 0 {
		fmt.Fprintf(os.Stderr, "%d validation checks failed\n", fail)
		os.Exit(1)
	}
	fmt.Println("all component models within tolerance")
}

func seqReadRate() float64 {
	k := sim.NewKernel()
	d := disk.New(k, "d", disk.Cheetah9LP())
	const total = 64 << 20
	var elapsed sim.Time
	k.Spawn("r", func(p *sim.Proc) {
		start := p.Now()
		for off := int64(0); off < total; off += 256 << 10 {
			d.Read(p, off, 256<<10)
		}
		elapsed = p.Now() - start
	})
	k.Run()
	return float64(total) / elapsed.Seconds()
}

func randomReadMs() float64 {
	k := sim.NewKernel()
	d := disk.New(k, "d", disk.Cheetah9LP())
	const n = 256
	var elapsed sim.Time
	k.Spawn("r", func(p *sim.Proc) {
		start := p.Now()
		slots := d.Capacity() / (8 << 10)
		for j := int64(0); j < n; j++ {
			off := j * 2654435761 % slots * (8 << 10)
			d.Read(p, off, 8<<10)
		}
		elapsed = p.Now() - start
	})
	k.Run()
	return (elapsed / n).Milliseconds()
}

func fcalAggregate() float64 {
	k := sim.NewKernel()
	fc := bus.New(k, "fc", bus.FCAL(2, 100e6))
	const each = 100 << 20
	var last sim.Time
	for i := 0; i < 4; i++ {
		k.Spawn("s", func(p *sim.Proc) {
			fc.Transfer(p, each)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	k.Run()
	return float64(4*each) / last.Seconds()
}

func buildNet() (*sim.Kernel, *netsim.Network) {
	k := sim.NewKernel()
	n := netsim.New(k, 0)
	ft := netsim.NewFatTree(n, 4, netsim.DefaultFatTreeConfig())
	n.SetTopology(ft)
	return k, n
}

func p2pRate() float64 {
	k, n := buildNet()
	const bytes = 64 << 20
	var m *netsim.Message
	k.Spawn("s", func(p *sim.Proc) {
		m = n.Send(p, 0, 1, 0, bytes, nil)
		m.Wait(p)
	})
	k.Run()
	return float64(bytes) / (m.DeliveredAt - m.SentAt).Seconds()
}

func p2pLatencyUS() float64 {
	k, n := buildNet()
	var m *netsim.Message
	k.Spawn("s", func(p *sim.Proc) {
		m = n.Send(p, 0, 1, 0, 1024, nil)
		m.Wait(p)
	})
	k.Run()
	return float64(m.DeliveredAt-m.SentAt) / 1000
}

func cpuSecondsFor(cycles int64, hz float64) float64 {
	k := sim.NewKernel()
	c := cpu.New(k, "c", hz)
	var elapsed sim.Time
	k.Spawn("w", func(p *sim.Proc) {
		start := p.Now()
		c.Compute(p, cycles)
		elapsed = p.Now() - start
	})
	k.Run()
	return elapsed.Seconds()
}
