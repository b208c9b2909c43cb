package tasks

import (
	"fmt"

	"howsim/internal/arch"
	"howsim/internal/cluster"
	"howsim/internal/cpu"
	"howsim/internal/disk"
	"howsim/internal/fault"
	"howsim/internal/mpi"
	"howsim/internal/probe"
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

// runCluster executes one task on a commodity-cluster configuration.
func runCluster(cfg arch.Config, task workload.TaskID, ds workload.Dataset, res *Result,
	plan *fault.Plan, sink *probe.Sink, rc *runCtl) {
	mp := takePair(cfg, sink)
	defer mp.release()
	k, m := mp.k, mp.cl
	m.InstallFaults(plan)
	deg := &degrade{}
	var done *sim.Signal
	switch task {
	case workload.Select:
		// The tuned cluster select materializes matches on the local
		// disk rather than pushing 1% of 16 GB through the front-end's
		// 100 Mb/s link.
		done = clusterScan(k, m, ds, res, SelectCycles,
			func(n int64) int64 { return int64(float64(n) * ds.Selectivity) }, 0, plan, deg)
	case workload.Aggregate:
		done = clusterScan(k, m, ds, res, AggregateCycles, func(int64) int64 { return 0 }, 512, plan, deg)
	case workload.GroupBy:
		done = clusterGroupBy(k, m, ds, res)
	case workload.Sort:
		done = clusterSort(k, m, ds, res)
	case workload.DataCube:
		done = clusterCube(k, m, ds, res)
	case workload.Join:
		done = clusterJoin(k, m, ds, res)
	case workload.DataMine:
		done = clusterMine(k, m, ds, res)
	case workload.MView:
		done = clusterMView(k, m, ds, res)
	default:
		panic(fmt.Sprintf("tasks: unknown task %v", task))
	}
	res.Elapsed = rc.run(k)
	if rc.cancelled {
		return
	}
	completed := done.Fired()
	if !completed && plan == nil {
		panic(fmt.Sprintf("tasks: %v on %s deadlocked at %v (%d blocked)\n%s",
			task, cfg.Name(), res.Elapsed, k.Blocked(), k.DeadlockReport()))
	}
	res.Details["net_bytes"] = float64(m.Net.BytesDelivered())
	res.Details["net_msgs"] = float64(m.Net.MessagesDelivered())
	var mediaRead, mediaWrite int64
	disks := make([]*disk.Disk, len(m.Nodes))
	for i, n := range m.Nodes {
		st := n.Disk.Stats()
		mediaRead += st.BytesRead
		mediaWrite += st.BytesWritten
		disks[i] = n.Disk
	}
	res.Details["media_read_bytes"] = float64(mediaRead)
	res.Details["media_write_bytes"] = float64(mediaWrite)
	cpus := make([]*cpu.CPU, len(m.Nodes))
	for i, n := range m.Nodes {
		cpus[i] = n.CPU
	}
	var deadlock string
	if !completed {
		deadlock = k.DeadlockReport()
	}
	faultEpilogue(res, plan, deg, completed, deadlock, disks, cpus, nil)
	probeEpilogue(res, k)
}

// clusterScan: every node scans its local partition; emitted bytes are
// written back to the local disk (select's result relation); finalBytes
// go to the front-end (aggregate's scalar).
//
// Recovery: cluster hosts can only address their own disk, so when a
// node's drive fails and the plan declares replicas, the peer node
// holding the replica copy takes over the rest of the partition — its
// CPU, disk and buses are charged, and the failed node's remaining
// output lands in a spare region of the peer's disk. Without a replica
// the remainder of the partition is reported lost. A hard media error
// loses just its chunk.
func clusterScan(k *sim.Kernel, m *cluster.Machine, ds workload.Dataset, res *Result,
	cycles int64, emit func(int64) int64, finalBytes int64,
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
	done := sim.NewSignal()
	wg := sim.NewWaitGroup(d)
	if finalBytes > 0 {
		k.Spawn("fe.collect", func(p *sim.Proc) {
			for i := 0; i < d; i++ {
				m.FE.Endpoint().Recv(p, mpi.AnySource, tagResult)
			}
		})
	}
	for i := range m.Nodes {
		i := i
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
					pend += emit(sz)
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
	k.Spawn("coord", func(p *sim.Proc) {
		wg.Wait(p)
		done.Fire()
	})
	return done
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

	done := sim.NewSignal()
	wg := sim.NewWaitGroup(d)
	k.Spawn("fe.collect", func(p *sim.Proc) {
		for i := 0; i < d; i++ {
			msg := m.FE.Endpoint().Recv(p, mpi.AnySource, tagResult)
			m.FE.CPU.Compute(p, msg.Bytes/GroupResultTupleBytes*GroupMergeCycles)
		}
	})
	for i := range m.Nodes {
		i := i
		n := m.Nodes[i]
		k.Spawn(fmt.Sprintf("gby%d", i), func(p *sim.Proc) {
			ep := n.Endpoint()
			chunksOf(per, func(off, sz int64) {
				n.ReadLocal(p, off, sz)
				t := tuplesIn(sz, ds.TupleBytes)
				n.Compute(p, t*GroupByCycles)
			})
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
	k.Spawn("coord", func(p *sim.Proc) {
		wg.Wait(p)
		done.Fire()
	})
	return done
}

// clusterSort mirrors the Active Disk sort: partition + shuffle over the
// fat tree, run formation in the 104 MB of usable node memory, local
// merge.
func clusterSort(k *sim.Kernel, m *cluster.Machine, ds workload.Dataset, res *Result) *sim.Signal {
	d := len(m.Nodes)
	per := perNodeBytes(ds.TotalBytes, d)
	capEach := m.Nodes[0].Disk.Capacity()
	runRegion := alignSector(capEach / 3)
	outRegion := alignSector(2 * capEach / 3)
	runBytes := alignSector(m.UsableMemoryBytes() - 24<<20)
	if runBytes > per {
		runBytes = alignSector(per)
	}
	plan := relational.PlanExternalSort(per, runBytes)
	res.Details["runs"] = float64(plan.Runs)

	done := sim.NewSignal()
	workers := sim.NewWaitGroup(d)
	var p1End sim.Time // latest shuffle/run-formation finish across nodes
	for i := range m.Nodes {
		i := i
		n := m.Nodes[i]
		k.Spawn(fmt.Sprintf("sort%d", i), func(p *sim.Proc) {
			ep := n.Endpoint()
			w := mpi.NewWindow(sendWindow)
			var fill int64
			var runSizes []int64
			// Interleave scan/partition/send with receive processing:
			// receives are drained opportunistically between chunks via a
			// receiver goroutine per node.
			recvDone := sim.NewSignal()
			peersLeft := d - 1
			k.Spawn(fmt.Sprintf("recv%d", i), func(rp *sim.Proc) {
				for peersLeft > 0 {
					msg := ep.Recv(rp, mpi.AnySource, mpi.AnyTag)
					switch msg.Tag {
					case tagDone:
						peersLeft--
					case tagData:
						t := tuplesIn(msg.Bytes, ds.TupleBytes)
						n.Compute(rp, t*AppendCycles)
						fill += msg.Bytes
						for fill >= runBytes {
							rt := tuplesIn(runBytes, ds.TupleBytes)
							n.Compute(rp, rt*RunSortCycles)
							var written int64
							for _, r := range runSizes {
								written += r
							}
							n.WriteLocal(rp, runRegion+written, runBytes)
							runSizes = append(runSizes, runBytes)
							fill -= runBytes
						}
					}
				}
				recvDone.Fire()
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
				fill += local
			})
			w.Drain(p)
			for j := 0; j < d; j++ {
				if j != i {
					ep.Send(p, j, tagDone, 0, nil)
				}
			}
			recvDone.Wait(p)
			// Final partial run.
			if fill > 0 {
				t := tuplesIn(fill, ds.TupleBytes)
				n.Compute(p, t*RunSortCycles)
				var written int64
				for _, r := range runSizes {
					written += r
				}
				sz := alignSector(fill)
				n.WriteLocal(p, runRegion+written, sz)
				runSizes = append(runSizes, sz)
			}
			// Merge phase on the local disk.
			if now := p.Now(); now > p1End {
				p1End = now
			}
			clusterMerge(p, n, runSizes, runRegion, outRegion, ds.TupleBytes)
			workers.Done()
		})
	}
	k.Spawn("coord", func(p *sim.Proc) {
		workers.Wait(p)
		res.Details["p1_seconds"] = p1End.Seconds()
		res.Details["p2_seconds"] = (p.Now() - p1End).Seconds()
		done.Fire()
	})
	return done
}

// clusterMerge is the node-local merge of sorted runs (identical
// structure to the Active Disk merge).
func clusterMerge(p *sim.Proc, n *cluster.Node, runSizes []int64,
	runRegion, outRegion int64, tupleBytes int) {
	if len(runSizes) == 0 {
		return
	}
	const visit = 512 << 10
	runStarts := make([]int64, len(runSizes))
	var total int64
	for i, sz := range runSizes {
		runStarts[i] = runRegion + total
		total += sz
	}
	consumed := make([]int64, len(runSizes))
	lvl := log2Ceil(len(runSizes))
	var outPend, outOff, readTotal int64
	r := 0
	for readTotal < total {
		for consumed[r] >= runSizes[r] {
			r = (r + 1) % len(runSizes)
		}
		sz := int64(visit)
		if rem := runSizes[r] - consumed[r]; rem < sz {
			sz = rem
		}
		n.ReadLocal(p, runStarts[r]+consumed[r], sz)
		consumed[r] += sz
		readTotal += sz
		t := tuplesIn(sz, tupleBytes)
		n.Compute(p, t*(MergeCyclesBase+MergeCyclesPerLevel*lvl))
		outPend += sz
		if outPend >= flushBatch {
			n.WriteLocal(p, outRegion+outOff, outPend)
			outOff += outPend
			outPend = 0
		}
		r = (r + 1) % len(runSizes)
	}
	if outPend > 0 {
		n.WriteLocal(p, outRegion+outOff, alignSector(outPend))
	}
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

	interRegion := alignSector(m.Nodes[0].Disk.Capacity() / 3)
	tableRegion := alignSector(2 * m.Nodes[0].Disk.Capacity() / 3)
	interBytes := alignSector(int64(float64(per) * CubeIntermediateFraction))
	tablesPer := alignSector(tables / int64(d))

	done := sim.NewSignal()
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
			var interWritten int64
			chunksOf(per, func(off, sz int64) {
				n.ReadLocal(p, off, sz)
				t := tuplesIn(sz, ds.TupleBytes)
				n.Compute(p, t*CubeCycles)
				if interWritten < interBytes {
					w := sz
					if interBytes-interWritten < w {
						w = alignSector(interBytes - interWritten)
					}
					n.WriteLocal(p, interRegion+interWritten, w)
					interWritten += w
				}
			})
			if plan.SpillBytes > 0 {
				n.Endpoint().Send(p, m.FERank, tagData, plan.SpillBytes/int64(d), nil)
			}
			for pass := 1; pass < plan.Passes; pass++ {
				chunksOf(interBytes, func(off, sz int64) {
					n.ReadLocal(p, interRegion+off, sz)
					t := tuplesIn(sz, ds.TupleBytes)
					n.Compute(p, t*CubeCycles)
				})
			}
			chunksOf(tablesPer, func(off, sz int64) {
				n.WriteLocal(p, tableRegion+off, sz)
			})
			wg.Done()
		})
	}
	k.Spawn("coord", func(p *sim.Proc) {
		wg.Wait(p)
		done.Fire()
	})
	return done
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
	partRegion := alignSector(m.Nodes[0].Disk.Capacity() / 3)
	outRegion := alignSector(2 * m.Nodes[0].Disk.Capacity() / 3)
	projR := alignSector(int64(float64(perR) * projFrac))
	projS := alignSector(int64(float64(perS) * projFrac))

	done := sim.NewSignal()
	workers := sim.NewWaitGroup(d)
	for i := range m.Nodes {
		i := i
		n := m.Nodes[i]
		k.Spawn(fmt.Sprintf("join%d", i), func(p *sim.Proc) {
			ep := n.Endpoint()
			var pend, written int64
			flush := func(final bool) {
				if pend >= flushBatch || (final && pend > 0) {
					w := alignSector(pend)
					n.WriteLocal(p, partRegion+written, w)
					written += w
					pend = 0
				}
			}
			recvDone := sim.NewSignal()
			peersLeft := 2 * (d - 1) // a done per peer per relation
			k.Spawn(fmt.Sprintf("jrecv%d", i), func(rp *sim.Proc) {
				for peersLeft > 0 {
					msg := ep.Recv(rp, mpi.AnySource, mpi.AnyTag)
					switch msg.Tag {
					case tagDone:
						peersLeft--
					case tagData:
						t := tuplesIn(msg.Bytes, ds.ProjectedTupleBytes)
						n.Compute(rp, t*AppendCycles/4)
						pend += msg.Bytes
						flushInner := pend >= flushBatch
						if flushInner {
							w := alignSector(pend)
							n.WriteLocal(rp, partRegion+written, w)
							written += w
							pend = 0
						}
					}
				}
				recvDone.Fire()
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
				w.Drain(p)
				for j := 0; j < d; j++ {
					if j != i {
						ep.Send(p, j, tagDone, 0, nil)
					}
				}
			}
			shuffle(perR)
			shuffle(perS)
			recvDone.Wait(p)
			pend += (projR + projS) / int64(d) // locally retained share
			flush(true)

			// Node-local Grace join.
			totalPart := written
			rShare := totalPart * projR / (projR + projS)
			sShare := totalPart - rShare
			chunksOf(rShare, func(off, sz int64) {
				n.ReadLocal(p, partRegion+off, sz)
				t := tuplesIn(sz, ds.ProjectedTupleBytes)
				n.Compute(p, t*BuildCycles)
			})
			var outOff int64
			chunksOf(sShare, func(off, sz int64) {
				n.ReadLocal(p, partRegion+rShare+off, sz)
				t := tuplesIn(sz, ds.ProjectedTupleBytes)
				n.Compute(p, t*ProbeCycles)
				out := int64(float64(sz) * JoinOutputFraction)
				if out > 0 {
					n.WriteLocal(p, outRegion+outOff, alignSector(out))
					outOff += alignSector(out)
				}
			})
			workers.Done()
		})
	}
	k.Spawn("coord", func(p *sim.Proc) {
		workers.Wait(p)
		done.Fire()
	})
	return done
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
	done := sim.NewSignal()
	workers := sim.NewWaitGroup(d)
	for i := range m.Nodes {
		i := i
		n := m.Nodes[i]
		k.Spawn(fmt.Sprintf("mine%d", i), func(p *sim.Proc) {
			ep := n.Endpoint()
			for pass := 0; pass < MinePasses; pass++ {
				chunksOf(per, func(off, sz int64) {
					n.ReadLocal(p, off, sz)
					txns := tuplesIn(sz, ds.TupleBytes)
					n.Compute(p, txns*MineCycles)
				})
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
	k.Spawn("coord", func(p *sim.Proc) {
		workers.Wait(p)
		done.Fire()
	})
	return done
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

	stageRegion := alignSector(m.Nodes[0].Disk.Capacity() / 3)
	derivedRegion := alignSector(2 * m.Nodes[0].Disk.Capacity() / 3)

	done := sim.NewSignal()
	workers := sim.NewWaitGroup(d)
	for i := range m.Nodes {
		i := i
		n := m.Nodes[i]
		k.Spawn(fmt.Sprintf("mview%d", i), func(p *sim.Proc) {
			ep := n.Endpoint()
			recvDone := sim.NewSignal()
			peersLeft := d - 1
			k.Spawn(fmt.Sprintf("mvrecv%d", i), func(rp *sim.Proc) {
				for peersLeft > 0 {
					msg := ep.Recv(rp, mpi.AnySource, mpi.AnyTag)
					switch msg.Tag {
					case tagDone:
						peersLeft--
					case tagData:
						t := tuplesIn(msg.Bytes, ds.TupleBytes)
						n.Compute(rp, t*AppendCycles/4)
					}
				}
				recvDone.Fire()
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
			w.Drain(p)
			for j := 0; j < d; j++ {
				if j != i {
					ep.Send(p, j, tagDone, 0, nil)
				}
			}
			recvDone.Wait(p)
			// Apply updates to the local derived relations.
			updPerByte := float64(updates) / float64(derived)
			var outOff int64
			chunksOf(derived, func(off, sz int64) {
				n.ReadLocal(p, derivedRegion+off, sz)
				t := tuplesIn(sz, ds.TupleBytes)
				upd := int64(float64(sz) * updPerByte / float64(ds.TupleBytes))
				n.Compute(p, t*ViewScanCycles+upd*ViewDeltaCycles)
				n.WriteLocal(p, stageRegion+outOff, sz)
				outOff += sz
			})
			workers.Done()
		})
	}
	k.Spawn("coord", func(p *sim.Proc) {
		workers.Wait(p)
		done.Fire()
	})
	return done
}
