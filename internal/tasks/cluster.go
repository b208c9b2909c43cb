package tasks

import (
	"fmt"

	"howsim/internal/cluster"
	"howsim/internal/cpu"
	"howsim/internal/disk"
	"howsim/internal/fault"
	"howsim/internal/mpi"
	"howsim/internal/relational"
	"howsim/internal/sim"
	"howsim/internal/workload"
)

// Message tags for the cluster implementations.
const (
	tagData = iota + 1
	tagDone
	tagResult
	tagCounters
)

// sendWindow bounds a process's in-flight asynchronous sends, after
// the paper's "up to 16 asynchronous receives".
const sendWindow = 16

// clusterMachine is a commodity cluster: hosts with local disks that
// talk over MPI.
type clusterMachine struct{ *cluster.Machine }

func (c clusterMachine) start(task workload.TaskID, pl *placement, ds workload.Dataset, res *Result,
	plan *fault.Plan, deg *degrade) *sim.Signal {
	k, m := pl.k, c.Machine
	switch task {
	case workload.Select:
		// The tuned cluster select materializes matches on the local
		// disk rather than pushing 1% of 16 GB through the front-end's
		// 100 Mb/s link.
		return clusterScan(k, m, ds, SelectCycles, ds.Selectivity, 0, plan, deg)
	case workload.Aggregate:
		return clusterScan(k, m, ds, AggregateCycles, 0, 512, plan, deg)
	case workload.GroupBy:
		return clusterGroupBy(k, m, ds, res)
	case workload.Sort:
		return clusterSort(k, m, ds, res)
	case workload.DataCube:
		return clusterCube(k, m, ds, res)
	case workload.Join:
		return clusterJoin(k, m, ds, res)
	case workload.DataMine:
		return clusterMine(k, m, ds, res)
	case workload.MView:
		return clusterMView(k, m, ds, res)
	}
	panic(fmt.Sprintf("tasks: unknown task %v", task))
}

func (c clusterMachine) finish(res *Result, _ *degrade) {
	res.Details["net_bytes"] = float64(c.Net.BytesDelivered())
	res.Details["net_msgs"] = float64(c.Net.MessagesDelivered())
	mediaDetails(res, len(c.Nodes), func(i int) *disk.Disk { return c.Nodes[i].Disk })
}

func (c clusterMachine) units() ([]*disk.Disk, []*cpu.CPU) {
	disks := make([]*disk.Disk, len(c.Nodes))
	cpus := make([]*cpu.CPU, len(c.Nodes))
	for i, n := range c.Nodes {
		disks[i], cpus[i] = n.Disk, n.CPU
	}
	return disks, cpus
}

// receive spawns name on k to take messages from ep until dones
// tagDone messages have arrived, passing the size of each tagData
// message to onData, and returns the signal it fires when done.
func receive(k *sim.Kernel, name string, ep *mpi.Endpoint, dones int,
	onData func(rp *sim.Proc, bytes int64)) *sim.Signal {
	fired := sim.NewSignal()
	k.Spawn(name, func(rp *sim.Proc) {
		for dones > 0 {
			msg := ep.Recv(rp, mpi.AnySource, mpi.AnyTag)
			switch msg.Tag {
			case tagDone:
				dones--
			case tagData:
				onData(rp, msg.Bytes)
			}
		}
		fired.Fire()
	})
	return fired
}

// finishSends waits out node i's sends in flight in w, then tells each
// of its d-1 peers that it is done.
func finishSends(p *sim.Proc, ep *mpi.Endpoint, w *mpi.Window, i, d int) {
	w.Drain(p)
	for j := 0; j < d; j++ {
		if j != i {
			ep.Send(p, j, tagDone, 0, nil)
		}
	}
}

// clusterScan: every node scans its local partition; outFraction of the
// bytes scanned is written back to the local disk (select's result
// relation); finalBytes go to the front-end (aggregate's scalar).
//
// Recovery: cluster hosts can only address their own disk, so when a
// node's drive fails and the plan declares replicas, the peer node
// holding the replica copy takes over the rest of the partition — its
// CPU, disk and buses are charged, and the failed node's remaining
// output lands in a spare region of the peer's disk. Without a replica
// the remainder of the partition is reported lost. A hard media error
// loses just its chunk.
func clusterScan(k *sim.Kernel, m *cluster.Machine, ds workload.Dataset,
	cycles int64, outFraction float64, finalBytes int64,
	plan *fault.Plan, deg *degrade) *sim.Signal {
	d := len(m.Nodes)
	per := perNodeBytes(ds.TotalBytes, d)
	deg.total = per * int64(d)
	capEach := m.Nodes[0].Disk.Capacity()
	outRegion := alignSector(2 * capEach / 3)
	replicaRegion := replicaRegionOf(capEach)
	// The take-over output region sits above the replica copy so it never
	// collides with the peer's own output range.
	replicaOut := alignSector(11 * capEach / 12)
	wg := sim.NewWaitGroup(d)
	if finalBytes > 0 {
		k.Spawn("fe.collect", func(p *sim.Proc) {
			for i := 0; i < d; i++ {
				m.FE.Endpoint().Recv(p, mpi.AnySource, tagResult)
			}
		})
	}
	for i := range m.Nodes {
		n := m.Nodes[i]
		k.Spawn(fmt.Sprintf("scan%d", i), func(p *sim.Proc) {
			src, base, outBase := n, int64(0), outRegion
			var pend, outOff int64
			for off := int64(0); off < per; {
				sz := int64(ioChunk)
				if per-off < sz {
					sz = alignSector(per - off)
				}
				err := src.ReadLocal(p, base+off, sz)
				if err == disk.ErrDiskFailed {
					if plan != nil && plan.Replica && d > 1 && base == 0 {
						src, base, outBase = m.Nodes[(i+1)%d], replicaRegion, replicaOut
						outOff = 0
						continue
					}
					deg.lost += per - off
					break
				}
				if err != nil {
					deg.lost += sz
				} else {
					if base != 0 {
						deg.replica += sz
					}
					t := tuplesIn(sz, ds.TupleBytes)
					src.Compute(p, t*cycles)
					pend += int64(float64(sz) * outFraction)
					if pend >= flushBatch {
						src.WriteLocal(p, outBase+outOff, alignSector(pend))
						outOff += alignSector(pend)
						pend = 0
					}
				}
				off += sz
			}
			if pend > 0 {
				src.WriteLocal(p, outBase+outOff, alignSector(pend))
			}
			if finalBytes > 0 {
				n.Endpoint().Send(p, m.FERank, tagResult, finalBytes, nil)
			}
			wg.Done()
		})
	}
	return coord(k, wg, nil)
}

// clusterGroupBy: local hash aggregation, a hash repartition of the
// partial tables among the nodes (the scalable part), then every node
// ships its share of the *result relation* (64-byte result tuples) to
// the front-end — whose 100 Mb/s link is the bottleneck the paper calls
// out for this task.
func clusterGroupBy(k *sim.Kernel, m *cluster.Machine, ds workload.Dataset, res *Result) *sim.Signal {
	d := len(m.Nodes)
	per := perNodeBytes(ds.TotalBytes, d)
	localTuples := tuplesIn(per, ds.TupleBytes)
	partial := expectedDistinct(localTuples, ds.DistinctGroups) * GroupEntryBytes
	resultShare := ds.DistinctGroups * GroupResultTupleBytes / int64(d)
	res.Details["partial_bytes_per_node"] = float64(partial)
	res.Details["fe_result_bytes"] = float64(resultShare * int64(d))

	wg := sim.NewWaitGroup(d)
	k.Spawn("fe.collect", func(p *sim.Proc) {
		for i := 0; i < d; i++ {
			msg := m.FE.Endpoint().Recv(p, mpi.AnySource, tagResult)
			m.FE.CPU.Compute(p, msg.Bytes/GroupResultTupleBytes*GroupMergeCycles)
		}
	})
	for i := range m.Nodes {
		n := m.Nodes[i]
		k.Spawn(fmt.Sprintf("gby%d", i), func(p *sim.Proc) {
			ep := n.Endpoint()
			scanLocal(p, n, 0, per, ds.TupleBytes, GroupByCycles)
			// Repartition partial tables: send each peer its hash range.
			w := mpi.NewWindow(sendWindow)
			share := partial / int64(d)
			for j := 0; j < d; j++ {
				if j == i || share == 0 {
					continue
				}
				w.Add(p, ep.Isend(p, j, tagData, share, nil))
			}
			for j := 0; j < d-1; j++ {
				msg := ep.Recv(p, mpi.AnySource, tagData)
				n.Compute(p, msg.Bytes/GroupEntryBytes*GroupMergeCycles)
			}
			w.Drain(p)
			// Ship this node's share of the result relation to the FE.
			ep.Send(p, m.FERank, tagResult, resultShare, nil)
			wg.Done()
		})
	}
	return coord(k, wg, nil)
}

// clusterSort mirrors the Active Disk sort: partition + shuffle over the
// fat tree, run formation in the 104 MB of usable node memory, local
// merge.
func clusterSort(k *sim.Kernel, m *cluster.Machine, ds workload.Dataset, res *Result) *sim.Signal {
	d := len(m.Nodes)
	per := perNodeBytes(ds.TotalBytes, d)
	runRegion, outRegion := regions(m.Nodes[0].Disk.Capacity())
	runBytes := alignSector(m.UsableMemoryBytes() - 24<<20)
	if runBytes > per {
		runBytes = alignSector(per)
	}
	plan := relational.PlanExternalSort(per, runBytes)
	res.Details["runs"] = float64(plan.Runs)

	workers := sim.NewWaitGroup(d)
	var p1End sim.Time // latest shuffle/run-formation finish across nodes
	for i := range m.Nodes {
		n := m.Nodes[i]
		k.Spawn(fmt.Sprintf("sort%d", i), func(p *sim.Proc) {
			ep := n.Endpoint()
			w := mpi.NewWindow(sendWindow)
			runs := sortRuns{region: runRegion, size: runBytes, tupleBytes: ds.TupleBytes}
			// Interleave scan/partition/send with receive processing:
			// receives are drained opportunistically between chunks via a
			// receiver goroutine per node.
			recvDone := receive(k, fmt.Sprintf("recv%d", i), ep, d-1, func(rp *sim.Proc, bytes int64) {
				n.Compute(rp, tuplesIn(bytes, ds.TupleBytes)*AppendCycles)
				runs.fill += bytes
				runs.spillFull(rp, n)
			})
			rot := 0
			chunksOf(per, func(off, sz int64) {
				n.ReadLocal(p, off, sz)
				t := tuplesIn(sz, ds.TupleBytes)
				n.Compute(p, t*PartitionCycles)
				remote := sz * int64(d-1) / int64(d)
				if remote > 0 && d > 1 {
					dst := (i + 1 + rot) % d
					rot = (rot + 1) % (d - 1)
					w.Add(p, ep.Isend(p, dst, tagData, remote, nil))
				}
				local := sz - remote
				t = tuplesIn(local, ds.TupleBytes)
				n.Compute(p, t*AppendCycles)
				runs.fill += local
			})
			finishSends(p, ep, w, i, d)
			recvDone.Wait(p)
			runs.spillTail(p, n)
			// Merge phase on the local disk.
			if now := p.Now(); now > p1End {
				p1End = now
			}
			runs.merge(p, n, outRegion)
			workers.Done()
		})
	}
	return coord(k, workers, func(p *sim.Proc) {
		res.Details["p1_seconds"] = p1End.Seconds()
		res.Details["p2_seconds"] = (p.Now() - p1End).Seconds()
	})
}

// clusterCube: PipeHash with the tables partitioned across the nodes'
// 104 MB memories. The larger per-node memory (vs 32 MB Active Disks)
// gives the cluster fewer passes at small configurations — the paper's
// "dcube about 35% faster than Active Disks for 16 disks".
func clusterCube(k *sim.Kernel, m *cluster.Machine, ds workload.Dataset, res *Result) *sim.Signal {
	d := len(m.Nodes)
	per := perNodeBytes(ds.TotalBytes, d)
	shape, tables := cubeShape(ds)
	plan := shape.Plan(d, m.UsableMemoryBytes(), 24<<20)
	res.Details["passes"] = float64(plan.Passes)
	res.Details["spill_bytes"] = float64(plan.SpillBytes)

	cn := newCubeNode(per, m.Nodes[0].Disk.Capacity(), tables, d, plan.Passes, ds.TupleBytes)

	wg := sim.NewWaitGroup(d)
	if plan.SpillBytes > 0 {
		k.Spawn("fe.spill", func(p *sim.Proc) {
			for i := 0; i < d; i++ {
				msg := m.FE.Endpoint().Recv(p, mpi.AnySource, tagData)
				m.FE.CPU.Compute(p, msg.Bytes/32*GroupMergeCycles)
			}
		})
	}
	for i := range m.Nodes {
		n := m.Nodes[i]
		k.Spawn(fmt.Sprintf("cube%d", i), func(p *sim.Proc) {
			cn.firstPass(p, n, nil)
			if plan.SpillBytes > 0 {
				n.Endpoint().Send(p, m.FERank, tagData, plan.SpillBytes/int64(d), nil)
			}
			cn.finish(p, n)
			wg.Done()
		})
	}
	return coord(k, wg, nil)
}

// clusterJoin: project + hash repartition of both relations over the
// network, partitions staged on the local disks, then a node-local
// Grace join.
func clusterJoin(k *sim.Kernel, m *cluster.Machine, ds workload.Dataset, res *Result) *sim.Signal {
	d := len(m.Nodes)
	rBytes := ds.TotalBytes / 2
	sBytes := ds.TotalBytes - rBytes
	perR := perNodeBytes(rBytes, d)
	perS := perNodeBytes(sBytes, d)
	projFrac := float64(ds.ProjectedTupleBytes) / float64(ds.TupleBytes)
	partRegion, outRegion := regions(m.Nodes[0].Disk.Capacity())
	projR := alignSector(int64(float64(perR) * projFrac))
	projS := alignSector(int64(float64(perS) * projFrac))

	workers := sim.NewWaitGroup(d)
	for i := range m.Nodes {
		n := m.Nodes[i]
		k.Spawn(fmt.Sprintf("join%d", i), func(p *sim.Proc) {
			ep := n.Endpoint()
			js := joinStage{region: partRegion}
			// A done per peer per relation.
			recvDone := receive(k, fmt.Sprintf("jrecv%d", i), ep, 2*(d-1), func(rp *sim.Proc, bytes int64) {
				n.Compute(rp, tuplesIn(bytes, ds.ProjectedTupleBytes)*AppendCycles/4)
				js.stage(rp, n, bytes, false)
			})
			shuffle := func(per int64) {
				w := mpi.NewWindow(sendWindow)
				rot := 0
				chunksOf(per, func(off, sz int64) {
					n.ReadLocal(p, off, sz)
					t := tuplesIn(sz, ds.TupleBytes)
					n.Compute(p, t*ProjectCycles)
					proj := int64(float64(sz) * projFrac)
					remote := proj * int64(d-1) / int64(d)
					if remote > 0 && d > 1 {
						dst := (i + 1 + rot) % d
						rot = (rot + 1) % (d - 1)
						w.Add(p, ep.Isend(p, dst, tagData, remote, nil))
					}
				})
				finishSends(p, ep, w, i, d)
			}
			shuffle(perR)
			shuffle(perS)
			recvDone.Wait(p)
			js.stage(p, n, (projR+projS)/int64(d), true) // locally retained share
			js.join(p, n, outRegion, projR, projS, ds.ProjectedTupleBytes)
			workers.Done()
		})
	}
	return coord(k, workers, nil)
}

// clusterMine: MinePasses scans with a butterfly (dissemination)
// all-reduce of the candidate counters between passes — the scalable
// alternative to funnelling every counter set through the front-end.
func clusterMine(k *sim.Kernel, m *cluster.Machine, ds workload.Dataset, res *Result) *sim.Signal {
	d := len(m.Nodes)
	per := perNodeBytes(ds.TotalBytes, d)
	counters := mineCounters(ds)
	res.Details["passes"] = float64(MinePasses)
	rounds := 0
	for v := d - 1; v > 0; v >>= 1 {
		rounds++
	}
	workers := sim.NewWaitGroup(d)
	for i := range m.Nodes {
		n := m.Nodes[i]
		k.Spawn(fmt.Sprintf("mine%d", i), func(p *sim.Proc) {
			ep := n.Endpoint()
			for pass := 0; pass < MinePasses; pass++ {
				scanLocal(p, n, 0, per, ds.TupleBytes, MineCycles)
				// Butterfly all-reduce of the counters.
				for r := 0; r < rounds; r++ {
					partner := i ^ (1 << r)
					if partner >= d {
						continue
					}
					h := ep.Isend(p, partner, tagCounters, counters, nil)
					msg := ep.Recv(p, partner, tagCounters)
					n.Compute(p, msg.Bytes/MineCounterEntryBytes*MineMergeCycles)
					h.Wait(p)
				}
			}
			workers.Done()
		})
	}
	return coord(k, workers, nil)
}

// clusterMView mirrors the Active Disk view maintenance: shuffle deltas
// to base owners, scan base + join, shuffle derived updates to view
// owners, read-modify-write the derived relations.
func clusterMView(k *sim.Kernel, m *cluster.Machine, ds workload.Dataset, res *Result) *sim.Signal {
	d := len(m.Nodes)
	base := perNodeBytes(baseBytes(ds), d)
	deltas := perNodeBytes(ds.DeltaBytes, d)
	derived := perNodeBytes(ds.DerivedBytes, d)
	updates := deltas * ViewFanout

	stageRegion, derivedRegion := regions(m.Nodes[0].Disk.Capacity())

	workers := sim.NewWaitGroup(d)
	for i := range m.Nodes {
		n := m.Nodes[i]
		k.Spawn(fmt.Sprintf("mview%d", i), func(p *sim.Proc) {
			ep := n.Endpoint()
			recvDone := receive(k, fmt.Sprintf("mvrecv%d", i), ep, d-1, func(rp *sim.Proc, bytes int64) {
				n.Compute(rp, tuplesIn(bytes, ds.TupleBytes)*AppendCycles/4)
			})
			w := mpi.NewWindow(sendWindow)
			rot := 0
			sendRemote := func(bytes int64) {
				if bytes <= 0 || d == 1 {
					return
				}
				dst := (i + 1 + rot) % d
				rot = (rot + 1) % (d - 1)
				w.Add(p, ep.Isend(p, dst, tagData, bytes, nil))
			}
			chunksOf(deltas, func(off, sz int64) {
				n.ReadLocal(p, off, sz)
				t := tuplesIn(sz, ds.TupleBytes)
				n.Compute(p, t*PartitionCycles/3)
				sendRemote(sz * int64(d-1) / int64(d))
			})
			baseStart := alignSector(deltas)
			perChunkUpd := float64(updates) / float64(base)
			var pendUpd float64
			chunksOf(base, func(off, sz int64) {
				n.ReadLocal(p, baseStart+off, sz)
				t := tuplesIn(sz, ds.TupleBytes)
				n.Compute(p, t*ViewProbeCycles)
				pendUpd += float64(sz) * perChunkUpd
				if int64(pendUpd) >= flushBatch {
					sendRemote(int64(pendUpd) * int64(d-1) / int64(d))
					pendUpd = 0
				}
			})
			if int64(pendUpd) > 0 {
				sendRemote(int64(pendUpd) * int64(d-1) / int64(d))
			}
			finishSends(p, ep, w, i, d)
			recvDone.Wait(p)
			applyViews(p, n, derived, updates, derivedRegion, stageRegion, ds.TupleBytes)
			workers.Done()
		})
	}
	return coord(k, workers, nil)
}
