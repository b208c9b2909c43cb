// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablation benches for the design choices called out in
// DESIGN.md. Each figure benchmark runs the full experiment (every
// simulation it needs, on a fresh sweep) once per iteration and reports the headline
// numbers the paper reports as custom metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates the entire evaluation (Table 2, the dataset description,
// is printed by `experiments -only table2`). Set HOWSIM_BENCH_SCALE
// (e.g. 0.05) to shrink the datasets for a quick pass; the default is
// the full Table 2 scale.
package repro_test

import (
	"context"
	"os"
	"strconv"
	"testing"
	"time"

	"howsim/internal/arch"
	"howsim/internal/cost"
	"howsim/internal/diskos"
	"howsim/internal/experiments"
	"howsim/internal/sim"
	"howsim/internal/tasks"
	"howsim/internal/workload"
)

// benchOptions returns full-scale options unless HOWSIM_BENCH_SCALE
// overrides.
func benchOptions() experiments.Options {
	o := experiments.Default()
	if s := os.Getenv("HOWSIM_BENCH_SCALE"); s != "" {
		if f, err := strconv.ParseFloat(s, 64); err == nil && f > 0 && f <= 1 {
			o.Scale = f
		}
	}
	return o
}

// BenchmarkTable1CostModel regenerates Table 1 (cost evolution for
// 64-node configurations) and reports the headline price ratios.
func BenchmarkTable1CostModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.RenderTable1(64)
	}
	b.ReportMetric(cost.ActiveDiskTotal(cost.Jul99, 64)/cost.ClusterTotal(cost.Jul99, 64), "active/cluster-price")
	b.ReportMetric(cost.SMPTotal(64)/cost.ActiveDiskTotal(cost.Jul99, 64), "smp/active-price")
}

// BenchmarkFigure1 runs the core comparison (8 tasks x 3 architectures
// x 16..128 disks) and reports the paper's headline ratios at 128
// disks.
func BenchmarkFigure1(b *testing.B) {
	o := benchOptions()
	var f *experiments.Figure1
	for i := 0; i < b.N; i++ {
		f = experiments.RunFigure1(experiments.NewSweep(o))
	}
	large := f.Sizes[len(f.Sizes)-1]
	ratio := func(t workload.TaskID, k arch.Kind) float64 {
		return f.Result(large, t, k).Elapsed.Seconds() / f.Result(large, t, arch.KindActiveDisk).Elapsed.Seconds()
	}
	b.ReportMetric(ratio(workload.Select, arch.KindSMP), "smp/active-select")
	b.ReportMetric(ratio(workload.Sort, arch.KindSMP), "smp/active-sort")
	b.ReportMetric(ratio(workload.Select, arch.KindCluster), "cluster/active-select")
	if b.N > 0 {
		b.Log("\n" + f.Render())
	}
}

// BenchmarkFigure2 runs the interconnect-bandwidth sweep and reports
// how much a 400 MB/s loop helps each architecture at the largest size.
func BenchmarkFigure2(b *testing.B) {
	o := benchOptions()
	var f *experiments.Figure2
	for i := 0; i < b.N; i++ {
		f = experiments.RunFigure2(experiments.NewSweep(o))
	}
	n := f.Sizes[len(f.Sizes)-1]
	ratio := func(t workload.TaskID, a, c string) float64 {
		return f.Result(n, t, a).Elapsed.Seconds() / f.Result(n, t, c).Elapsed.Seconds()
	}
	b.ReportMetric(ratio(workload.Aggregate, "200MB(S)", "400MB(S)"), "smp-fastio-speedup-agg")
	b.ReportMetric(ratio(workload.Sort, "200MB(A)", "400MB(A)"), "active-fastio-speedup-sort")
	b.ReportMetric(ratio(workload.Sort, "400MB(S)", "200MB(A)"), "smp400/active200-sort")
	if b.N > 0 {
		b.Log("\n" + f.Render())
	}
}

// BenchmarkFigure3 runs the sort-breakdown sweep (base / Fast Disk /
// Fast I/O) and reports the idle fraction at the smallest and largest
// sizes.
func BenchmarkFigure3(b *testing.B) {
	o := benchOptions()
	var f *experiments.Figure3
	for i := 0; i < b.N; i++ {
		f = experiments.RunFigure3(experiments.NewSweep(o))
	}
	small, large := f.Sizes[0], f.Sizes[len(f.Sizes)-1]
	idle := func(n int) float64 {
		r := f.Result(n, "base")
		return r.Breakdown.Fraction("P1:Idle") + r.Breakdown.Fraction("P2:Idle")
	}
	b.ReportMetric(idle(small), "idle-frac-small")
	b.ReportMetric(idle(large), "idle-frac-large")
	base := f.Result(large, "base").Elapsed.Seconds()
	b.ReportMetric(base/f.Result(large, "Fast Disk").Elapsed.Seconds(), "fastdisk-speedup-large")
	b.ReportMetric(base/f.Result(large, "Fast I/O").Elapsed.Seconds(), "fastio-speedup-large")
	if b.N > 0 {
		b.Log("\n" + f.Render())
	}
}

// BenchmarkFigure4 runs the disk-memory sweep (32 vs 64 MB) and reports
// the improvement for dcube (the only memory-sensitive task) and sort.
func BenchmarkFigure4(b *testing.B) {
	o := benchOptions()
	var f *experiments.Figure4
	for i := 0; i < b.N; i++ {
		f = experiments.RunFigure4(experiments.NewSweep(o))
	}
	small := f.Sizes[0]
	b.ReportMetric(f.ImprovementPct(small, workload.DataCube), "dcube-improvement-small-%")
	b.ReportMetric(f.ImprovementPct(small, workload.Sort), "sort-improvement-small-%")
	if b.N > 0 {
		b.Log("\n" + f.Render())
	}
}

// BenchmarkFigure5 runs the communication-architecture sweep and
// reports the slowdown for the repartitioning tasks and a scan task.
func BenchmarkFigure5(b *testing.B) {
	o := benchOptions()
	var f *experiments.Figure5
	for i := 0; i < b.N; i++ {
		f = experiments.RunFigure5(experiments.NewSweep(o))
	}
	n := f.Sizes[len(f.Sizes)-1]
	b.ReportMetric(f.Slowdown(n, workload.Sort), "sort-slowdown")
	b.ReportMetric(f.Slowdown(n, workload.Join), "join-slowdown")
	b.ReportMetric(f.Slowdown(n, workload.Select), "select-slowdown")
	if b.N > 0 {
		b.Log("\n" + f.Render())
	}
}

// --- Ablation benches: design choices called out in DESIGN.md ---------------

// BenchmarkAblationLoopGranularity contrasts frame-level loop
// arbitration with whole-message arbitration: a small control transfer
// queued behind a bulk stream, measuring its completion latency.
func BenchmarkAblationLoopGranularity(b *testing.B) {
	run := func(frame int64) sim.Time {
		k := sim.NewKernel()
		defer k.Close()
		pipe := sim.NewPipe(k, "loop", 1, 100e6, 0)
		pipe.Frame = frame
		var smallDone sim.Time
		k.Spawn("bulk", func(p *sim.Proc) {
			pipe.Transfer(p, 512<<20)
		})
		k.Spawn("ctl", func(p *sim.Proc) {
			p.Delay(sim.Millisecond)
			pipe.Transfer(p, 64<<10)
			smallDone = p.Now()
		})
		k.Run()
		return smallDone
	}
	var fine, coarse sim.Time
	for i := 0; i < b.N; i++ {
		fine = run(128 << 10)
		coarse = run(512 << 20)
	}
	b.ReportMetric(fine.Seconds(), "ctl-latency-framed-s")
	b.ReportMetric(coarse.Seconds(), "ctl-latency-unframed-s")
}

// BenchmarkAblationSMPSelfScheduling contrasts the shared layout-order
// block queue against a-priori static partitioning of a striped scan
// (the paper: "a-priori partitioning of the dataset would result in a
// potentially long seek for every request").
func BenchmarkAblationSMPSelfScheduling(b *testing.B) {
	const totalBytes = 512 << 20
	run := func(shared bool) sim.Time {
		k := sim.NewKernel()
		defer k.Close()
		m := arch.SMP(8).BuildSMP(k)
		stripe := m.NewStripe([]int{0, 1, 2, 3, 4, 5, 6, 7}, 0)
		q := m.NewBlockQueue("q", totalBytes, 256<<10)
		for i := 0; i < 8; i++ {
			i := i
			k.Spawn("w", func(p *sim.Proc) {
				if shared {
					for {
						off, n, ok := q.Next(p, m.CPUs[i])
						if !ok {
							return
						}
						stripe.Read(p, m.CPUs[i], off, n)
					}
				} else {
					per := int64(totalBytes / 8)
					base := int64(i) * per
					for off := int64(0); off < per; off += 256 << 10 {
						stripe.Read(p, m.CPUs[i], base+off, 256<<10)
					}
				}
			})
		}
		return k.Run()
	}
	var sharedT, staticT sim.Time
	for i := 0; i < b.N; i++ {
		sharedT = run(true)
		staticT = run(false)
	}
	b.ReportMetric(sharedT.Seconds(), "shared-queue-s")
	b.ReportMetric(staticT.Seconds(), "static-partition-s")
	b.ReportMetric(staticT.Seconds()/sharedT.Seconds(), "static/shared")
}

// BenchmarkAblationPipelining contrasts the Active Disks' pipelined
// forwarding (ample communication buffers) against stop-and-stage
// streaming with minimal buffers, where the consumer's run writes stall
// the producers.
func BenchmarkAblationPipelining(b *testing.B) {
	run := func(commBuf int64) sim.Time {
		cfg := diskos.DefaultConfig(4)
		cfg.CommBufBytes = commBuf
		k := sim.NewKernel()
		defer k.Close()
		s := diskos.NewSystem(k, cfg)
		const bytes = 64 << 20
		for i := 0; i < 2; i++ {
			src, dst := s.Disks[i], s.Disks[2+i]
			k.Spawn("send", func(p *sim.Proc) {
				src.Send(p, dst.ID, bytes, nil)
			})
			k.Spawn("recv", func(p *sim.Proc) {
				var got, pend int64
				for got < bytes {
					c, ok := dst.Recv(p)
					if !ok {
						return
					}
					got += c.Bytes
					pend += c.Bytes
					if pend >= 4<<20 {
						// Stage the received data to media; with small
						// buffers the senders stall behind this write.
						dst.WriteLocal(p, 1<<30, pend/512*512)
						pend = 0
					}
					dst.Release(c.Bytes)
				}
			})
		}
		return k.Run()
	}
	var pipelined, staged sim.Time
	for i := 0; i < b.N; i++ {
		pipelined = run(8 << 20)
		staged = run(256 << 10)
	}
	b.ReportMetric(pipelined.Seconds(), "pipelined-s")
	b.ReportMetric(staged.Seconds(), "staged-s")
	b.ReportMetric(staged.Seconds()/pipelined.Seconds(), "staged/pipelined")
}

// BenchmarkAblationDiskGroups contrasts NOW-sort-style separate
// read/write disk groups with mixed groups for the SMP sort.
func BenchmarkAblationDiskGroups(b *testing.B) {
	const total = 256 << 20
	run := func(split bool) sim.Time {
		k := sim.NewKernel()
		defer k.Close()
		m := arch.SMP(8).BuildSMP(k)
		readDisks := []int{0, 1, 2, 3}
		writeDisks := []int{4, 5, 6, 7}
		if !split {
			readDisks = []int{0, 1, 2, 3, 4, 5, 6, 7}
			writeDisks = readDisks
		}
		rs := m.NewStripe(readDisks, 0)
		ws := m.NewStripe(writeDisks, 1<<30)
		q := m.NewBlockQueue("q", total, 256<<10)
		var wOff int64
		for i := 0; i < 8; i++ {
			i := i
			k.Spawn("w", func(p *sim.Proc) {
				for {
					off, n, ok := q.Next(p, m.CPUs[i])
					if !ok {
						return
					}
					rs.Read(p, m.CPUs[i], off, n)
					o := wOff
					wOff += n
					ws.Write(p, m.CPUs[i], o, n)
				}
			})
		}
		return k.Run()
	}
	var splitT, mixedT sim.Time
	for i := 0; i < b.N; i++ {
		splitT = run(true)
		mixedT = run(false)
	}
	b.ReportMetric(splitT.Seconds(), "split-groups-s")
	b.ReportMetric(mixedT.Seconds(), "mixed-groups-s")
	b.ReportMetric(mixedT.Seconds()/splitT.Seconds(), "mixed/split")
}

// BenchmarkSimulatorThroughput measures raw simulator speed: simulated
// seconds per wall second for a full-scale 128-disk Active Disk select.
func BenchmarkSimulatorThroughput(b *testing.B) {
	ds := workload.ForTask(workload.Select)
	var res *tasks.Result
	for i := 0; i < b.N; i++ {
		res, _ = tasks.RunCtx(context.Background(), arch.ActiveDisks(128), workload.Select, ds, nil, nil, tasks.ModeEvent)
	}
	b.ReportMetric(res.Elapsed.Seconds(), "simulated-s")
}

// BenchmarkParallelSpeedup measures the wall-clock speedup of sharded
// execution (ModeParallel) over the single-kernel event mode on a
// 64-disk Active Disk farm at scale 0.25, one sub-benchmark for each
// of three shardable tasks: the select scan, groupby's front-end merge
// and dmine's per-pass reduction. (Sort, join and mview run on one
// kernel in both modes, so they have nothing to measure here.) Each iteration runs the task once per mode, and the two
// runs must agree on the simulated elapsed time: the parallel mode is
// byte-equivalent, not approximately equal. Record with
//
//	go run ./scripts/bench -pkg . -bench ParallelSpeedup -out BENCH_parallel.json
//
// scripts/benchguard gates the speedup metric on hosts with enough cores.
func BenchmarkParallelSpeedup(b *testing.B) {
	const (
		disks = 64
		scale = 0.25
	)
	cfg := arch.ActiveDisks(disks)
	run := func(b *testing.B, task workload.TaskID, ds workload.Dataset, mode tasks.ExecMode) (sim.Time, time.Duration) {
		start := time.Now()
		res, err := tasks.RunCtx(context.Background(), cfg, task, ds, nil, nil, mode)
		if err != nil {
			b.Fatal(err)
		}
		return res.Elapsed, time.Since(start)
	}
	for _, task := range []workload.TaskID{workload.Select, workload.GroupBy, workload.DataMine} {
		ds, err := workload.ForTaskScaled(task, scale)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(task.String(), func(b *testing.B) {
			var single, parallel time.Duration
			for i := 0; i < b.N; i++ {
				evSim, evWall := run(b, task, ds, tasks.ModeEvent)
				parSim, parWall := run(b, task, ds, tasks.ModeParallel)
				if evSim != parSim {
					b.Fatalf("%s: simulated time diverged: event %v, parallel %v", task, evSim, parSim)
				}
				single += evWall
				parallel += parWall
			}
			n := float64(b.N)
			b.ReportMetric(single.Seconds()*1e3/n, "single_ms")
			b.ReportMetric(parallel.Seconds()*1e3/n, "parallel_ms")
			b.ReportMetric(single.Seconds()/parallel.Seconds(), "speedup")
		})
	}
}

// BenchmarkExtensionFibreSwitch runs the beyond-the-paper interconnect
// study: shuffle-heavy tasks on 128- and 256-disk farms with switched
// loop fabrics.
func BenchmarkExtensionFibreSwitch(b *testing.B) {
	o := benchOptions()
	var f *experiments.ExtensionFibreSwitch
	for i := 0; i < b.N; i++ {
		f = experiments.RunExtensionFibreSwitch(experiments.NewSweep(o))
	}
	n := f.Sizes[len(f.Sizes)-1]
	b.ReportMetric(f.Speedup(n, workload.Sort, 8), "sort-8loop-speedup")
	b.ReportMetric(f.Speedup(n, workload.Join, 8), "join-8loop-speedup")
	if b.N > 0 {
		b.Log("\n" + f.Render())
	}
}
