package tasks

import (
	"fmt"

	"howsim/internal/cpu"
	"howsim/internal/disk"
	"howsim/internal/fault"
	"howsim/internal/relational"
	"howsim/internal/sim"
	"howsim/internal/smp"
	"howsim/internal/workload"
)

// smpMachine is a shared-memory multiprocessor: one process per
// processor, shared self-scheduling block queues over striped files, and
// block transfers / remote queues for data movement between processors.
type smpMachine struct{ *smp.Machine }

func (sm smpMachine) start(task workload.TaskID, pl *placement, ds workload.Dataset, res *Result,
	_ *fault.Plan, deg *degrade) *sim.Signal {
	k, m := pl.k, sm.Machine
	switch task {
	case workload.Select:
		return smpScan(k, m, ds, SelectCycles, ds.Selectivity, deg)
	case workload.Aggregate:
		return smpScan(k, m, ds, AggregateCycles, 0, deg)
	case workload.GroupBy:
		return smpGroupBy(k, m, ds, res)
	case workload.Sort:
		return smpSort(k, m, ds, res)
	case workload.DataCube:
		return smpCube(k, m, ds, res)
	case workload.Join:
		return smpJoin(k, m, ds, res)
	case workload.DataMine:
		return smpMine(k, m, ds, res)
	case workload.MView:
		return smpMView(k, m, ds, res)
	}
	panic(fmt.Sprintf("tasks: unknown task %v", task))
}

// finish also takes the striping library's replica reads into deg.
func (sm smpMachine) finish(res *Result, deg *degrade) {
	res.Details["fc_bytes"] = float64(sm.FC.BytesMoved())
	res.Details["fc_util"] = sm.FC.Utilization()
	res.Details["xio_util"] = sm.XIO.Utilization()
	res.Details["blockxfer_bytes"] = float64(sm.BlockTransferred())
	deg.replica = sm.ReplicaBytes()
}

func (sm smpMachine) units() ([]*disk.Disk, []*cpu.CPU) { return sm.Disks, sm.CPUs }

// allDisks returns 0..n-1.
func allDisks(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// readWriteGroups splits n disks NOW-sort style: the first half reads
// the input (and later takes the output), the rest takes the runs or
// partitions. A one-disk machine does both on its one disk.
func readWriteGroups(n int) (read, write []int) {
	half := max(n/2, 1)
	all := allDisks(n)
	read, write = all[:half], all[half:]
	if len(write) == 0 {
		write = read
	}
	return read, write
}

// eachBlock takes blocks off the shared queue q for processor c until
// it is empty, calling fn with each block's offset and length.
func eachBlock(pr *sim.Proc, q *smp.BlockQueue, c *cpu.CPU, fn func(off, n int64)) {
	for {
		off, n, ok := q.Next(pr, c)
		if !ok {
			return
		}
		fn(off, n)
	}
}

// appender writes whole sectors to the end of a stripe that every
// processor appends to: next is the shared cursor.
type appender struct {
	s    *smp.Stripe
	next int64
}

// add writes n bytes, rounded up to whole sectors, at the cursor from
// processor c, and returns the bytes the stripe could not write.
func (a *appender) add(pr *sim.Proc, c *cpu.CPU, n int64) (lost int64) {
	w := alignSector(n)
	o := a.next
	a.next += w
	return a.s.Write(pr, c, o, w)
}

// smpMemReserve is the aggregate memory reserved for the OS, code and
// I/O buffers.
func smpMemReserve(m *smp.Machine) int64 {
	r := m.TotalMemoryBytes() / 5
	if r < 64<<20 {
		r = 64 << 20
	}
	return r
}

// smpScan: workers pull layout-ordered blocks off the shared queue, read
// them through the striping library (all data crossing the shared FC
// loop), and filter/aggregate. Selected output is written back striped.
// The striping library re-issues failed chunks to replica members when
// the plan declares replicas; bytes it could not serve either way are
// accumulated as lost.
func smpScan(k *sim.Kernel, m *smp.Machine, ds workload.Dataset,
	cycles int64, outFraction float64, deg *degrade) *sim.Signal {
	p := m.Cfg.Processors
	capEach := m.Disks[0].Capacity()
	in := m.NewStripe(allDisks(len(m.Disks)), 0)
	out := &appender{s: m.NewStripe(allDisks(len(m.Disks)), alignSector(2*capEach/3))}
	q := m.NewBlockQueue("scan", ds.TotalBytes, ioChunk)
	deg.total = ds.TotalBytes
	wg := sim.NewWaitGroup(p)
	for i := 0; i < p; i++ {
		c := m.CPUs[i]
		k.Spawn(fmt.Sprintf("scan%d", i), func(pr *sim.Proc) {
			var pend int64
			eachBlock(pr, q, c, func(off, n int64) {
				deg.lost += in.Read(pr, c, off, n)
				c.Compute(pr, tuplesIn(n, ds.TupleBytes)*cycles)
				pend += int64(float64(n) * outFraction)
				if pend >= flushBatch {
					deg.lost += out.add(pr, c, pend)
					pend = 0
				}
			})
			if pend > 0 {
				deg.lost += out.add(pr, c, pend)
			}
			wg.Done()
		})
	}
	return coord(k, wg, nil)
}

// smpGroupBy: shared-queue scan with per-processor partial tables,
// then a block-transfer merge of the partials across boards. The result
// stays in shared memory; no front-end is involved.
func smpGroupBy(k *sim.Kernel, m *smp.Machine, ds workload.Dataset, res *Result) *sim.Signal {
	p := m.Cfg.Processors
	in := m.NewStripe(allDisks(len(m.Disks)), 0)
	q := m.NewBlockQueue("scan", ds.TotalBytes, ioChunk)
	perCPU := tuplesIn(ds.TotalBytes, ds.TupleBytes) / int64(p)
	partial := expectedDistinct(perCPU, ds.DistinctGroups) * GroupEntryBytes
	res.Details["partial_bytes_per_cpu"] = float64(partial)
	barrier := sim.NewBarrier(k, "gby.merge", p)
	wg := sim.NewWaitGroup(p)
	for i := 0; i < p; i++ {
		c := m.CPUs[i]
		k.Spawn(fmt.Sprintf("gby%d", i), func(pr *sim.Proc) {
			eachBlock(pr, q, c, func(off, n int64) {
				in.Read(pr, c, off, n)
				c.Compute(pr, tuplesIn(n, ds.TupleBytes)*GroupByCycles)
			})
			barrier.Wait(pr)
			// Hash-repartition the partial tables between processors and
			// fold the received share.
			if p > 1 {
				m.BlockTransfer(pr, partial*int64(p-1)/int64(p))
			}
			c.Compute(pr, partial/GroupEntryBytes*GroupMergeCycles)
			wg.Done()
		})
	}
	return coord(k, wg, nil)
}

// smpSort follows NOW-sort: the disks are split into a read group
// (input, later the sorted output) and a write group (runs), avoiding
// the seek storm of interleaved reads and writes. Tuples are
// repartitioned between processors with block transfers; each processor
// forms, sorts, writes and later merges its own runs.
func smpSort(k *sim.Kernel, m *smp.Machine, ds workload.Dataset, res *Result) *sim.Signal {
	p := m.Cfg.Processors
	readGroup, writeGroup := readWriteGroups(len(m.Disks))
	capEach := m.Disks[0].Capacity()
	in := m.NewStripe(readGroup, 0)
	runs := &appender{s: m.NewStripe(writeGroup, 0)}
	out := m.NewStripe(readGroup, alignSector(capEach/3))

	runBytes := alignSector((m.TotalMemoryBytes() - smpMemReserve(m)) / int64(p))
	if runBytes < 1<<20 {
		runBytes = 1 << 20
	}
	perCPU := perNodeBytes(ds.TotalBytes, p)
	if runBytes > perCPU {
		runBytes = alignSector(perCPU)
	}
	plan := relational.PlanExternalSort(perCPU, runBytes)
	res.Details["runs_per_cpu"] = float64(plan.Runs)

	q := m.NewBlockQueue("sort.read", ds.TotalBytes, ioChunk)
	barrier := sim.NewBarrier(k, "sort.phase", p)
	wg := sim.NewWaitGroup(p)
	var cPart, cAppend, cSort, cMerge int64
	var p1End sim.Time

	for i := 0; i < p; i++ {
		c := m.CPUs[i]
		k.Spawn(fmt.Sprintf("sort%d", i), func(pr *sim.Proc) {
			var fill int64
			var runOffs, runSizes []int64
			flushRun := func(bytes int64) {
				t := tuplesIn(bytes, ds.TupleBytes)
				c.Compute(pr, t*RunSortCycles)
				cSort += t * RunSortCycles
				runOffs = append(runOffs, runs.next)
				runSizes = append(runSizes, alignSector(bytes))
				runs.add(pr, c, bytes)
			}
			eachBlock(pr, q, c, func(off, n int64) {
				in.Read(pr, c, off, n)
				t := tuplesIn(n, ds.TupleBytes)
				c.Compute(pr, t*PartitionCycles)
				cPart += t * PartitionCycles
				// Repartition between processors through shared memory.
				if p > 1 {
					m.BlockTransfer(pr, n*int64(p-1)/int64(p))
				}
				c.Compute(pr, t*AppendCycles)
				cAppend += t * AppendCycles
				fill += n
				for fill >= runBytes {
					flushRun(runBytes)
					fill -= runBytes
				}
			})
			if fill > 0 {
				flushRun(fill)
			}
			if pr.Now() > p1End {
				p1End = pr.Now()
			}
			barrier.Wait(pr)
			// Merge phase: read this processor's runs, write its output
			// range.
			merged := sortRuns{tupleBytes: ds.TupleBytes, starts: runOffs, sizes: runSizes}
			cMerge += merged.merge(pr, stripeIO{runs.s, out, c}, int64(i)*perCPU)
			wg.Done()
		})
	}
	return coord(k, wg, func(pr *sim.Proc) {
		sortBreakdown(res, m.Cfg.CPUHz, p, cPart, cAppend, cSort, cMerge, p1End, pr.Now())
	})
}

// stripeIO is processor c's side of an SMP sort's merge: it reads the
// runs from one stripe and writes the output to another.
type stripeIO struct {
	in, out *smp.Stripe
	c       *cpu.CPU
}

func (s stripeIO) ReadLocal(p *sim.Proc, off, n int64) error {
	s.in.Read(p, s.c, off, n)
	return nil
}

func (s stripeIO) WriteLocal(p *sim.Proc, off, n int64) error {
	s.out.Write(p, s.c, off, n)
	return nil
}

func (s stripeIO) Compute(p *sim.Proc, cycles int64) { s.c.Compute(p, cycles) }

// smpJoin: project both relations off the read group, repartition
// between processors via block transfers, stage the projected
// partitions on the write group, then build+probe and write the output.
func smpJoin(k *sim.Kernel, m *smp.Machine, ds workload.Dataset, res *Result) *sim.Signal {
	p := m.Cfg.Processors
	readGroup, writeGroup := readWriteGroups(len(m.Disks))
	capEach := m.Disks[0].Capacity()
	in := m.NewStripe(readGroup, 0)
	parts := &appender{s: m.NewStripe(writeGroup, 0)}
	out := &appender{s: m.NewStripe(readGroup, alignSector(capEach/3))}

	rBytes := ds.TotalBytes / 2
	sBytes := ds.TotalBytes - rBytes
	projFrac := float64(ds.ProjectedTupleBytes) / float64(ds.TupleBytes)
	buildTotal := alignSector(int64(float64(rBytes) * projFrac))

	qR := m.NewBlockQueue("join.r", rBytes, ioChunk)
	qS := m.NewBlockQueue("join.s", sBytes, ioChunk)
	qBuild := m.NewBlockQueue("join.build", buildTotal, ioChunk)
	qProbe := m.NewBlockQueue("join.probe", alignSector(int64(float64(sBytes)*projFrac)), ioChunk)
	barrier := sim.NewBarrier(k, "join.phase", p)
	wg := sim.NewWaitGroup(p)

	for i := 0; i < p; i++ {
		c := m.CPUs[i]
		k.Spawn(fmt.Sprintf("join%d", i), func(pr *sim.Proc) {
			shuffle := func(q *smp.BlockQueue, srcBase int64) {
				var pend int64
				eachBlock(pr, q, c, func(off, n int64) {
					in.Read(pr, c, srcBase+off, n)
					c.Compute(pr, tuplesIn(n, ds.TupleBytes)*ProjectCycles)
					proj := int64(float64(n) * projFrac)
					if p > 1 {
						m.BlockTransfer(pr, proj*int64(p-1)/int64(p))
					}
					pend += proj
					if pend >= flushBatch {
						parts.add(pr, c, pend)
						pend = 0
					}
				})
				if pend > 0 {
					parts.add(pr, c, pend)
				}
			}
			shuffle(qR, 0)
			barrier.Wait(pr)
			shuffle(qS, alignSector(rBytes))
			barrier.Wait(pr)
			// Build + probe over the staged partitions.
			eachBlock(pr, qBuild, c, func(off, n int64) {
				parts.s.Read(pr, c, off, n)
				c.Compute(pr, tuplesIn(n, ds.ProjectedTupleBytes)*BuildCycles)
			})
			barrier.Wait(pr)
			eachBlock(pr, qProbe, c, func(off, n int64) {
				parts.s.Read(pr, c, buildTotal+off, n)
				c.Compute(pr, tuplesIn(n, ds.ProjectedTupleBytes)*ProbeCycles)
				if o := int64(float64(n) * JoinOutputFraction); o > 0 {
					out.add(pr, c, o)
				}
			})
			wg.Done()
		})
	}
	return coord(k, wg, nil)
}

// smpCube: PipeHash with the hash tables in the machine's aggregate
// memory (which scales with processors); passes over the striped data
// through the shared FC loop.
func smpCube(k *sim.Kernel, m *smp.Machine, ds workload.Dataset, res *Result) *sim.Signal {
	p := m.Cfg.Processors
	capEach := m.Disks[0].Capacity()
	in := m.NewStripe(allDisks(len(m.Disks)), 0)
	inter := &appender{s: m.NewStripe(allDisks(len(m.Disks)), alignSector(capEach/3))}
	tables := m.NewStripe(allDisks(len(m.Disks)), alignSector(2*capEach/3))

	shape, tablesTotal := cubeShape(ds)
	plan := shape.Plan(1, m.TotalMemoryBytes(), smpMemReserve(m))
	res.Details["passes"] = float64(plan.Passes)
	interBytes := alignSector(int64(float64(ds.TotalBytes) * CubeIntermediateFraction))

	wg := sim.NewWaitGroup(p)
	barrier := sim.NewBarrier(k, "cube.pass", p)
	queues := []*smp.BlockQueue{m.NewBlockQueue("cube.p0", ds.TotalBytes, ioChunk)}
	for pass := 1; pass < plan.Passes; pass++ {
		queues = append(queues, m.NewBlockQueue(fmt.Sprintf("cube.p%d", pass), interBytes, ioChunk))
	}
	qTables := m.NewBlockQueue("cube.tables", alignSector(tablesTotal), ioChunk)
	for i := 0; i < p; i++ {
		c := m.CPUs[i]
		k.Spawn(fmt.Sprintf("cube%d", i), func(pr *sim.Proc) {
			for pass := 0; pass < plan.Passes; pass++ {
				stripe := in
				if pass > 0 {
					stripe = inter.s
				}
				var pend int64
				eachBlock(pr, queues[pass], c, func(off, n int64) {
					stripe.Read(pr, c, off, n)
					c.Compute(pr, tuplesIn(n, ds.TupleBytes)*CubeCycles)
					if pass == 0 {
						pend += int64(float64(n) * CubeIntermediateFraction)
						if pend >= flushBatch {
							inter.add(pr, c, pend)
							pend = 0
						}
					}
				})
				if pend > 0 {
					inter.add(pr, c, pend)
				}
				barrier.Wait(pr)
			}
			eachBlock(pr, qTables, c, func(off, n int64) {
				tables.Write(pr, c, off, n)
			})
			wg.Done()
		})
	}
	return coord(k, wg, nil)
}

// smpMine: MinePasses shared-queue scans; the candidate counters are
// merged through shared memory between passes (cheap next to the scans).
func smpMine(k *sim.Kernel, m *smp.Machine, ds workload.Dataset, res *Result) *sim.Signal {
	p := m.Cfg.Processors
	in := m.NewStripe(allDisks(len(m.Disks)), 0)
	counters := mineCounters(ds)
	res.Details["passes"] = float64(MinePasses)
	queues := make([]*smp.BlockQueue, MinePasses)
	for i := range queues {
		queues[i] = m.NewBlockQueue(fmt.Sprintf("mine.p%d", i), ds.TotalBytes, ioChunk)
	}
	barrier := sim.NewBarrier(k, "mine.pass", p)
	wg := sim.NewWaitGroup(p)
	for i := 0; i < p; i++ {
		c := m.CPUs[i]
		k.Spawn(fmt.Sprintf("mine%d", i), func(pr *sim.Proc) {
			for pass := 0; pass < MinePasses; pass++ {
				eachBlock(pr, queues[pass], c, func(off, n int64) {
					in.Read(pr, c, off, n)
					c.Compute(pr, tuplesIn(n, ds.TupleBytes)*MineCycles)
				})
				if p > 1 {
					m.BlockTransfer(pr, counters)
				}
				c.Compute(pr, counters/MineCounterEntryBytes*MineMergeCycles)
				barrier.Wait(pr)
			}
			wg.Done()
		})
	}
	return coord(k, wg, nil)
}

// smpMView: scan deltas and base off the stripes, repartition deltas and
// derived updates between processors through shared memory, then
// read-modify-write the derived relations.
func smpMView(k *sim.Kernel, m *smp.Machine, ds workload.Dataset, res *Result) *sim.Signal {
	p := m.Cfg.Processors
	capEach := m.Disks[0].Capacity()
	in := m.NewStripe(allDisks(len(m.Disks)), 0)
	derived := m.NewStripe(allDisks(len(m.Disks)), alignSector(capEach/3))
	stage := &appender{s: m.NewStripe(allDisks(len(m.Disks)), alignSector(2*capEach/3))}

	base := baseBytes(ds)
	qDelta := m.NewBlockQueue("mv.delta", ds.DeltaBytes, ioChunk)
	qBase := m.NewBlockQueue("mv.base", base, ioChunk)
	qDerived := m.NewBlockQueue("mv.derived", ds.DerivedBytes, ioChunk)
	updates := ds.DeltaBytes * ViewFanout
	barrier := sim.NewBarrier(k, "mv.phase", p)
	wg := sim.NewWaitGroup(p)
	for i := 0; i < p; i++ {
		c := m.CPUs[i]
		k.Spawn(fmt.Sprintf("mview%d", i), func(pr *sim.Proc) {
			eachBlock(pr, qDelta, c, func(off, n int64) {
				in.Read(pr, c, off, n)
				c.Compute(pr, tuplesIn(n, ds.TupleBytes)*PartitionCycles/3)
				if p > 1 {
					m.BlockTransfer(pr, n*int64(p-1)/int64(p))
				}
			})
			barrier.Wait(pr)
			baseStart := alignSector(ds.DeltaBytes)
			updPerByte := float64(updates) / float64(base)
			eachBlock(pr, qBase, c, func(off, n int64) {
				in.Read(pr, c, baseStart+off, n)
				c.Compute(pr, tuplesIn(n, ds.TupleBytes)*ViewProbeCycles)
				if upd := int64(float64(n) * updPerByte); p > 1 && upd > 0 {
					m.BlockTransfer(pr, upd*int64(p-1)/int64(p))
				}
			})
			barrier.Wait(pr)
			updPerDerived := float64(updates) / float64(ds.DerivedBytes)
			eachBlock(pr, qDerived, c, func(off, n int64) {
				derived.Read(pr, c, off, n)
				upd := int64(float64(n) * updPerDerived / float64(ds.TupleBytes))
				c.Compute(pr, tuplesIn(n, ds.TupleBytes)*ViewScanCycles+upd*ViewDeltaCycles)
				stage.add(pr, c, n)
			})
			wg.Done()
		})
	}
	return coord(k, wg, nil)
}
