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
	out := m.NewStripe(allDisks(len(m.Disks)), alignSector(2*capEach/3))
	q := m.NewBlockQueue("scan", ds.TotalBytes, ioChunk)
	deg.total = ds.TotalBytes
	wg := sim.NewWaitGroup(p)
	var outOff int64
	for i := 0; i < p; i++ {
		c := m.CPUs[i]
		k.Spawn(fmt.Sprintf("scan%d", i), func(pr *sim.Proc) {
			var pend int64
			for {
				off, n, ok := q.Next(pr, c)
				if !ok {
					break
				}
				deg.lost += in.Read(pr, c, off, n)
				t := tuplesIn(n, ds.TupleBytes)
				c.Compute(pr, t*cycles)
				pend += int64(float64(n) * outFraction)
				if pend >= flushBatch {
					w := alignSector(pend)
					o := outOff
					outOff += w
					deg.lost += out.Write(pr, c, o, w)
					pend = 0
				}
			}
			if pend > 0 {
				w := alignSector(pend)
				o := outOff
				outOff += w
				deg.lost += out.Write(pr, c, o, w)
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
			for {
				off, n, ok := q.Next(pr, c)
				if !ok {
					break
				}
				in.Read(pr, c, off, n)
				t := tuplesIn(n, ds.TupleBytes)
				c.Compute(pr, t*GroupByCycles)
			}
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
	nd := len(m.Disks)
	half := nd / 2
	if half < 1 {
		half = 1
	}
	readGroup := allDisks(nd)[:half]
	writeGroup := allDisks(nd)[half:]
	if len(writeGroup) == 0 {
		writeGroup = readGroup
	}
	capEach := m.Disks[0].Capacity()
	in := m.NewStripe(readGroup, 0)
	runs := m.NewStripe(writeGroup, 0)
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
	var runAlloc int64 // next free offset in the run stripe
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
				sz := alignSector(bytes)
				o := runAlloc
				runAlloc += sz
				runs.Write(pr, c, o, sz)
				runOffs = append(runOffs, o)
				runSizes = append(runSizes, sz)
			}
			for {
				off, n, ok := q.Next(pr, c)
				if !ok {
					break
				}
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
			}
			if fill > 0 {
				flushRun(fill)
			}
			if pr.Now() > p1End {
				p1End = pr.Now()
			}
			barrier.Wait(pr)
			// Merge phase: read this processor's runs (512 KB per run
			// visit), write its output range.
			const visit = 512 << 10
			var total int64
			for _, sz := range runSizes {
				total += sz
			}
			consumed := make([]int64, len(runSizes))
			lvl := log2Ceil(len(runSizes))
			outBase := int64(i) * perCPU
			var outPend, outOff, readTotal int64
			r := 0
			for readTotal < total {
				for consumed[r] >= runSizes[r] {
					r = (r + 1) % len(runSizes)
				}
				n := int64(visit)
				if rem := runSizes[r] - consumed[r]; rem < n {
					n = rem
				}
				runs.Read(pr, c, runOffs[r]+consumed[r], n)
				consumed[r] += n
				readTotal += n
				t := tuplesIn(n, ds.TupleBytes)
				c.Compute(pr, t*(MergeCyclesBase+MergeCyclesPerLevel*lvl))
				cMerge += t * (MergeCyclesBase + MergeCyclesPerLevel*lvl)
				outPend += n
				if outPend >= flushBatch {
					out.Write(pr, c, outBase+outOff, outPend)
					outOff += outPend
					outPend = 0
				}
				r = (r + 1) % len(runSizes)
			}
			if outPend > 0 {
				out.Write(pr, c, outBase+outOff, alignSector(outPend))
			}
			wg.Done()
		})
	}
	return coord(k, wg, func(pr *sim.Proc) {
		// Attribute average per-processor CPU buckets and idle
		// remainders, mirroring the Active Disk Figure 3 breakdown.
		total := pr.Now()
		toTime := func(cycles int64) sim.Time {
			return sim.Time(float64(cycles) / m.Cfg.CPUHz / float64(p) * float64(sim.Second))
		}
		bd := res.Breakdown
		bd.Add("P1:Partitioner", toTime(cPart))
		bd.Add("P1:Append", toTime(cAppend))
		bd.Add("P1:Sort", toTime(cSort))
		p1CPU := toTime(cPart + cAppend + cSort)
		if p1End > p1CPU {
			bd.Add("P1:Idle", p1End-p1CPU)
		}
		bd.Add("P2:Merge", toTime(cMerge))
		if p2 := total - p1End; p2 > toTime(cMerge) {
			bd.Add("P2:Idle", p2-toTime(cMerge))
		}
		res.Details["p1_seconds"] = p1End.Seconds()
		res.Details["p2_seconds"] = (total - p1End).Seconds()
	})
}

// smpJoin: project both relations off the read group, repartition
// between processors via block transfers, stage the projected
// partitions on the write group, then build+probe and write the output.
func smpJoin(k *sim.Kernel, m *smp.Machine, ds workload.Dataset, res *Result) *sim.Signal {
	p := m.Cfg.Processors
	nd := len(m.Disks)
	half := nd / 2
	if half < 1 {
		half = 1
	}
	readGroup := allDisks(nd)[:half]
	writeGroup := allDisks(nd)[half:]
	if len(writeGroup) == 0 {
		writeGroup = readGroup
	}
	capEach := m.Disks[0].Capacity()
	in := m.NewStripe(readGroup, 0)
	parts := m.NewStripe(writeGroup, 0)
	out := m.NewStripe(readGroup, alignSector(capEach/3))

	rBytes := ds.TotalBytes / 2
	sBytes := ds.TotalBytes - rBytes
	projFrac := float64(ds.ProjectedTupleBytes) / float64(ds.TupleBytes)
	projTotal := alignSector(int64(float64(ds.TotalBytes) * projFrac))

	qR := m.NewBlockQueue("join.r", rBytes, ioChunk)
	qS := m.NewBlockQueue("join.s", sBytes, ioChunk)
	qBuild := m.NewBlockQueue("join.build", alignSector(int64(float64(rBytes)*projFrac)), ioChunk)
	qProbe := m.NewBlockQueue("join.probe", alignSector(int64(float64(sBytes)*projFrac)), ioChunk)
	barrier := sim.NewBarrier(k, "join.phase", p)
	wg := sim.NewWaitGroup(p)
	var partAlloc, outAlloc int64
	_ = projTotal

	for i := 0; i < p; i++ {
		c := m.CPUs[i]
		k.Spawn(fmt.Sprintf("join%d", i), func(pr *sim.Proc) {
			shuffle := func(q *smp.BlockQueue, srcBase int64) {
				var pend int64
				for {
					off, n, ok := q.Next(pr, c)
					if !ok {
						break
					}
					in.Read(pr, c, srcBase+off, n)
					t := tuplesIn(n, ds.TupleBytes)
					c.Compute(pr, t*ProjectCycles)
					proj := int64(float64(n) * projFrac)
					if p > 1 {
						m.BlockTransfer(pr, proj*int64(p-1)/int64(p))
					}
					pend += proj
					if pend >= flushBatch {
						w := alignSector(pend)
						o := partAlloc
						partAlloc += w
						parts.Write(pr, c, o, w)
						pend = 0
					}
				}
				if pend > 0 {
					w := alignSector(pend)
					o := partAlloc
					partAlloc += w
					parts.Write(pr, c, o, w)
				}
			}
			shuffle(qR, 0)
			barrier.Wait(pr)
			shuffle(qS, alignSector(rBytes))
			barrier.Wait(pr)
			// Build + probe over the staged partitions.
			for {
				off, n, ok := qBuild.Next(pr, c)
				if !ok {
					break
				}
				parts.Read(pr, c, off, n)
				t := tuplesIn(n, ds.ProjectedTupleBytes)
				c.Compute(pr, t*BuildCycles)
			}
			barrier.Wait(pr)
			buildTotal := alignSector(int64(float64(rBytes) * projFrac))
			for {
				off, n, ok := qProbe.Next(pr, c)
				if !ok {
					break
				}
				parts.Read(pr, c, buildTotal+off, n)
				t := tuplesIn(n, ds.ProjectedTupleBytes)
				c.Compute(pr, t*ProbeCycles)
				o := int64(float64(n) * JoinOutputFraction)
				if o > 0 {
					w := alignSector(o)
					oo := outAlloc
					outAlloc += w
					out.Write(pr, c, oo, w)
				}
			}
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
	inter := m.NewStripe(allDisks(len(m.Disks)), alignSector(capEach/3))
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
	var interAlloc int64
	for i := 0; i < p; i++ {
		c := m.CPUs[i]
		k.Spawn(fmt.Sprintf("cube%d", i), func(pr *sim.Proc) {
			for pass := 0; pass < plan.Passes; pass++ {
				stripe := in
				if pass > 0 {
					stripe = inter
				}
				var pend int64
				for {
					off, n, ok := queues[pass].Next(pr, c)
					if !ok {
						break
					}
					stripe.Read(pr, c, off, n)
					t := tuplesIn(n, ds.TupleBytes)
					c.Compute(pr, t*CubeCycles)
					if pass == 0 {
						pend += int64(float64(n) * CubeIntermediateFraction)
						if pend >= flushBatch {
							w := alignSector(pend)
							o := interAlloc
							interAlloc += w
							inter.Write(pr, c, o, w)
							pend = 0
						}
					}
				}
				if pend > 0 {
					w := alignSector(pend)
					o := interAlloc
					interAlloc += w
					inter.Write(pr, c, o, w)
				}
				barrier.Wait(pr)
			}
			for {
				off, n, ok := qTables.Next(pr, c)
				if !ok {
					break
				}
				tables.Write(pr, c, off, n)
			}
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
				for {
					off, n, ok := queues[pass].Next(pr, c)
					if !ok {
						break
					}
					in.Read(pr, c, off, n)
					txns := tuplesIn(n, ds.TupleBytes)
					c.Compute(pr, txns*MineCycles)
				}
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
	stage := m.NewStripe(allDisks(len(m.Disks)), alignSector(2*capEach/3))

	base := baseBytes(ds)
	qDelta := m.NewBlockQueue("mv.delta", ds.DeltaBytes, ioChunk)
	qBase := m.NewBlockQueue("mv.base", base, ioChunk)
	qDerived := m.NewBlockQueue("mv.derived", ds.DerivedBytes, ioChunk)
	updates := ds.DeltaBytes * ViewFanout
	barrier := sim.NewBarrier(k, "mv.phase", p)
	wg := sim.NewWaitGroup(p)
	var stageAlloc int64
	for i := 0; i < p; i++ {
		c := m.CPUs[i]
		k.Spawn(fmt.Sprintf("mview%d", i), func(pr *sim.Proc) {
			for {
				off, n, ok := qDelta.Next(pr, c)
				if !ok {
					break
				}
				in.Read(pr, c, off, n)
				t := tuplesIn(n, ds.TupleBytes)
				c.Compute(pr, t*PartitionCycles/3)
				if p > 1 {
					m.BlockTransfer(pr, n*int64(p-1)/int64(p))
				}
			}
			barrier.Wait(pr)
			baseStart := alignSector(ds.DeltaBytes)
			updPerByte := float64(updates) / float64(base)
			for {
				off, n, ok := qBase.Next(pr, c)
				if !ok {
					break
				}
				in.Read(pr, c, baseStart+off, n)
				t := tuplesIn(n, ds.TupleBytes)
				c.Compute(pr, t*ViewProbeCycles)
				upd := int64(float64(n) * updPerByte)
				if p > 1 && upd > 0 {
					m.BlockTransfer(pr, upd*int64(p-1)/int64(p))
				}
			}
			barrier.Wait(pr)
			updPerDerived := float64(updates) / float64(ds.DerivedBytes)
			for {
				off, n, ok := qDerived.Next(pr, c)
				if !ok {
					break
				}
				derived.Read(pr, c, off, n)
				t := tuplesIn(n, ds.TupleBytes)
				upd := int64(float64(n) * updPerDerived / float64(ds.TupleBytes))
				c.Compute(pr, t*ViewScanCycles+upd*ViewDeltaCycles)
				w := alignSector(n)
				o := stageAlloc
				stageAlloc += w
				stage.Write(pr, c, o, w)
			}
			wg.Done()
		})
	}
	return coord(k, wg, nil)
}
