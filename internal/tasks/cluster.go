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
	case workload.Select, workload.Aggregate:
		if task == workload.Aggregate {
			feCollect(k, m, "fe.collect", tagResult, 0, 0) // before the scans
		}
		return recoveringScan(pl, &clusterExchange{m: m}, len(m.Nodes), m.Nodes[0].Disk.Capacity(), task, ds, plan, deg)
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

// feCollect spawns name on the front-end to take one tag message per
// node, merging entryBytes entries at cyclesPerEntry each (none for a
// scalar, when cyclesPerEntry is 0).
func feCollect(k *sim.Kernel, m *cluster.Machine, name string, tag int, entryBytes, cyclesPerEntry int64) {
	k.Spawn(name, func(p *sim.Proc) {
		for range m.Nodes {
			msg := m.FE.Endpoint().Recv(p, mpi.AnySource, tag)
			if cyclesPerEntry > 0 {
				m.FE.CPU.Compute(p, msg.Bytes/entryBytes*cyclesPerEntry)
			}
		}
	})
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
	feCollect(k, m, "fe.collect", tagResult, GroupResultTupleBytes, GroupMergeCycles)
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
	x := &clusterExchange{m: m, peers: make([]clusterPeers, d)}
	var p1End sim.Time // latest shuffle/run-formation finish across nodes
	for i := range m.Nodes {
		n := m.Nodes[i]
		k.Spawn(fmt.Sprintf("sort%d", i), func(p *sim.Proc) {
			runs := sortRuns{region: runRegion, size: runBytes, tupleBytes: ds.TupleBytes}
			// Interleave scan/partition/send with receive processing:
			// receives are drained opportunistically between chunks via a
			// receiver goroutine per node.
			recvDone := receive(k, fmt.Sprintf("recv%d", i), n.Endpoint(), d-1, func(rp *sim.Proc, bytes int64) {
				n.Compute(rp, tuplesIn(bytes, ds.TupleBytes)*AppendCycles)
				runs.fill += bytes
				runs.spillFull(rp, n)
			})
			partitionRuns(p, x, i, d, per, ds.TupleBytes, func(local int64) {
				n.Compute(p, tuplesIn(local, ds.TupleBytes)*AppendCycles)
				runs.fill += local
			})
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
		feCollect(k, m, "fe.spill", tagData, 32, GroupMergeCycles)
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
	perR, perS, projR, projS, projFrac := joinShares(ds, d)
	partRegion, outRegion := regions(m.Nodes[0].Disk.Capacity())

	workers := sim.NewWaitGroup(d)
	x := &clusterExchange{m: m, peers: make([]clusterPeers, d)}
	for i := range m.Nodes {
		n := m.Nodes[i]
		k.Spawn(fmt.Sprintf("join%d", i), func(p *sim.Proc) {
			js := joinStage{region: partRegion}
			// A done per peer per relation.
			recvDone := receive(k, fmt.Sprintf("jrecv%d", i), n.Endpoint(), 2*(d-1), func(rp *sim.Proc, bytes int64) {
				n.Compute(rp, tuplesIn(bytes, ds.ProjectedTupleBytes)*AppendCycles/4)
				js.stage(rp, n, bytes, false)
			})
			shuffleProjected(p, x, i, d, perR, ds.TupleBytes, projFrac)
			shuffleProjected(p, x, i, d, perS, ds.TupleBytes, projFrac)
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
	base, deltas, derived, updates := viewShares(ds, d)
	stageRegion, derivedRegion := regions(m.Nodes[0].Disk.Capacity())

	workers := sim.NewWaitGroup(d)
	x := &clusterExchange{m: m, peers: make([]clusterPeers, d)}
	for i := range m.Nodes {
		n := m.Nodes[i]
		k.Spawn(fmt.Sprintf("mview%d", i), func(p *sim.Proc) {
			recvDone := receive(k, fmt.Sprintf("mvrecv%d", i), n.Endpoint(), d-1, func(rp *sim.Proc, bytes int64) {
				n.Compute(rp, tuplesIn(bytes, ds.TupleBytes)*AppendCycles/4)
			})
			produceViews(p, x, i, d, deltas, base, updates, ds.TupleBytes)
			recvDone.Wait(p)
			applyViews(p, n, derived, updates, derivedRegion, stageRegion, ds.TupleBytes)
			workers.Done()
		})
	}
	return coord(k, workers, nil)
}
