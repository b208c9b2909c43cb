package tasks

import (
	"fmt"

	"howsim/internal/cpu"
	"howsim/internal/disk"
	"howsim/internal/diskos"
	"howsim/internal/fault"
	"howsim/internal/relational"
	"howsim/internal/sim"
	"howsim/internal/workload"
)

// activeMachine is an Active Disk system, on one kernel or on a shard
// group. The tasks that shard write their bodies once against the
// placement seam; sort, join and mview, which never shard, take the one
// kernel.
type activeMachine struct{ *diskos.System }

func (a activeMachine) start(task workload.TaskID, pl *placement, ds workload.Dataset, res *Result,
	plan *fault.Plan, deg *degrade) *sim.Signal {
	s := a.System
	spawnRebuild(pl.hub(), s, ds, plan, &deg.rebuild)
	switch task {
	case workload.Select, workload.Aggregate:
		return recoveringScan(pl, activeExchanges(pl, s, plan), len(s.Disks), s.Disks[0].Disk.Capacity(), task, ds, plan, deg)
	case workload.GroupBy:
		return activeGroupBy(pl, s, ds, res)
	case workload.Sort:
		return activeSort(pl, s, ds, res)
	case workload.DataCube:
		return activeCube(pl, s, ds, res)
	case workload.Join:
		return activeJoin(pl, s, ds, res)
	case workload.DataMine:
		return activeMine(pl, s, ds, res)
	case workload.MView:
		return activeMView(pl, s, ds, res)
	}
	panic(fmt.Sprintf("tasks: unknown task %v", task))
}

func (a activeMachine) finish(res *Result, _ *degrade) {
	s := a.System
	res.Details["loop_bytes"] = float64(s.LoopBytesMoved())
	res.Details["loop_util"] = s.LoopUtilization()
	res.Details["loops"] = float64(s.Loops())
	res.Details["fe_recv_bytes"] = float64(s.FE.ReceivedBytes())
	res.Details["fe_relay_bytes"] = float64(s.FE.RelayedBytes())
	mediaDetails(res, len(s.Disks), func(i int) *disk.Disk { return s.Disks[i].Disk })
}

func (a activeMachine) units() ([]*disk.Disk, []*cpu.CPU) {
	disks := make([]*disk.Disk, len(a.Disks), len(a.Disks)+1)
	cpus := make([]*cpu.CPU, len(a.Disks))
	for i, ad := range a.Disks {
		disks[i], cpus[i] = ad.Disk, ad.CPU
	}
	if a.Spare != nil {
		disks = append(disks, a.Spare)
	}
	return disks, cpus
}

// replicaRegionOf places each disk's replica copy of a peer's partition:
// disk i's data is mirrored onto disk (i+1) mod d starting at this
// offset (the top sixth of the drive, clear of the run/output regions
// the tasks carve out of the lower two-thirds).
func replicaRegionOf(capEach int64) int64 { return alignSector(5 * capEach / 6) }

// feMerger drains the front-end inbox, charging the front-end CPU a
// merge cost per table entry, until the inbox closes.
func feMerger(k *sim.Kernel, s *diskos.System, entryBytes, cyclesPerEntry int64) *sim.Signal {
	sig := sim.NewSignal()
	k.Spawn("fe.merge", func(p *sim.Proc) {
		for {
			c, ok := s.FE.Recv(p)
			if !ok {
				break
			}
			entries := c.Bytes / entryBytes
			if entries < 1 {
				entries = 1
			}
			s.FE.CPU.Compute(p, entries*cyclesPerEntry)
		}
		sig.Fire()
	})
	return sig
}

// drainInbox passes the size of each chunk that reaches ad to fn until
// the inbox closes, releasing each chunk's credit just before the next
// Recv.
func drainInbox(p *sim.Proc, ad *diskos.ActiveDisk, fn func(bytes int64)) {
	for {
		c, ok := ad.Recv(p)
		if !ok {
			return
		}
		fn(c.Bytes)
		if c.Bytes > 0 {
			ad.Release(c.Bytes)
		}
	}
}

// activeGroupBy: each disklet hash-aggregates its local partition
// within its scratch memory and pipelines partial result tuples to the
// front-end, which performs the final merge. The front-end ingests
// roughly GroupDedupFactor times the result relation (the same group
// surfaces in several disks' partials), which is why group-by becomes
// dominated by the transfer to the front-end at 64+ disks and extra
// disk memory does not help (the paper's Figure 4 discussion).
func activeGroupBy(pl *placement, s *diskos.System, ds workload.Dataset, res *Result) *sim.Signal {
	d := len(s.Disks)
	per := perNodeBytes(ds.TotalBytes, d)
	result := ds.DistinctGroups * GroupResultTupleBytes
	fwd := result * GroupDedupFactor / int64(d)
	res.Details["fwd_bytes_per_disk"] = float64(fwd)
	ratio := float64(fwd) / float64(per)

	wg := sim.NewWaitGroup(d)
	merged := feMerger(pl.hub(), s, GroupResultTupleBytes, GroupMergeCycles)
	for i := range s.Disks {
		ad := s.Disks[i]
		pl.kernel(i).Spawn(fmt.Sprintf("gby%d", i), func(p *sim.Proc) {
			var pend float64
			chunksOf(per, func(off, n int64) {
				ad.ReadLocal(p, off, n)
				t := tuplesIn(n, ds.TupleBytes)
				ad.Compute(p, t*GroupByCycles)
				pend += float64(n) * ratio
				if pend >= flushBatch {
					pl.sendFE(p, ad, int64(pend))
					pend = 0
				}
			})
			pl.cross(p, i, func(hp *sim.Proc) {
				if pend >= 1 {
					ad.SendToFrontEnd(hp, int64(pend), nil)
				}
				wg.Done()
			})
		})
	}
	return coord(pl.hub(), wg, func(p *sim.Proc) {
		s.FE.CloseInbox()
		merged.Wait(p)
	})
}

// activeSort is the two-phase external sort: phase 1 repartitions every
// tuple to its destination disk (partitioner disklet), accumulates
// arriving tuples into runs (sorter disklet), sorts and writes each run;
// phase 2 merges the runs and writes the sorted output. The breakdown
// buckets match Figure 3's legend. Each disk runs two disklets, so sort
// never shards: it runs on one kernel in both exec modes.
func activeSort(pl *placement, s *diskos.System, ds workload.Dataset, res *Result) *sim.Signal {
	k, d := pl.k, len(s.Disks)
	per := perNodeBytes(ds.TotalBytes, d)
	runRegion, outRegion := regions(s.Disks[0].Disk.Capacity())

	runBytes := alignSector(s.ScratchBytes() - 3<<20)
	if runBytes < 1<<20 {
		runBytes = 1 << 20
	}
	if runBytes > per {
		runBytes = alignSector(per)
	}
	plan := relational.PlanExternalSort(per, runBytes)
	res.Details["runs"] = float64(plan.Runs)
	res.Details["run_bytes"] = float64(runBytes)

	hz := s.Disks[0].CPU.Hz()
	var cPart, cAppend, cMerge int64
	var p1End sim.Time

	type runState struct {
		sortRuns
		mu *sim.Mutex // partitioner and sorter disklets share the run buffer
	}
	states := make([]*runState, d)
	for i := range states {
		states[i] = &runState{
			sortRuns: sortRuns{region: runRegion, size: runBytes, tupleBytes: ds.TupleBytes},
			mu:       sim.NewMutex(k, fmt.Sprintf("run%d", i)),
		}
	}

	// absorb accumulates arriving bytes into the current run, sorting
	// and writing whenever the run buffer fills. The run buffer is
	// shared between the partitioner (local share) and sorter (remote
	// tuples) disklets, so flushes are serialized.
	absorb := func(p *sim.Proc, i int, bytes int64) {
		ad := s.Disks[i]
		st := states[i]
		st.mu.Lock(p)
		defer st.mu.Unlock()
		t := tuplesIn(bytes, ds.TupleBytes)
		ad.Compute(p, t*AppendCycles)
		cAppend += t * AppendCycles
		st.fill += bytes
		st.spillFull(p, ad)
	}

	barrier := sim.NewBarrier(k, "sort.p1", d)
	readers := sim.NewWaitGroup(d)
	sorters := sim.NewWaitGroup(d)
	x := activeExchanges(pl, s, nil, readers)

	for i := range s.Disks {
		ad := s.Disks[i]
		// Partitioner disklet: scan local input, keep the local share,
		// stream the rest to peer disks in rotating batches.
		k.Spawn(fmt.Sprintf("part%d", i), func(p *sim.Proc) {
			cPart += partitionRuns(p, x, i, d, per, ds.TupleBytes, func(local int64) { absorb(p, i, local) })
		})
		// Sorter disklet: absorb arriving tuples into runs, then merge.
		k.Spawn(fmt.Sprintf("sort%d", i), func(p *sim.Proc) {
			drainInbox(p, ad, func(bytes int64) { absorb(p, i, bytes) })
			st := states[i]
			st.spillTail(p, ad)
			barrier.Wait(p)
			if i == 0 {
				p1End = p.Now()
			}
			cMerge += st.merge(p, ad, outRegion)
			sorters.Done()
		})
	}
	// Close inboxes once every partitioner has finished sending.
	spawnCloser(k, s, readers)
	return coord(k, sorters, func(p *sim.Proc) {
		var cSort int64
		for _, st := range states {
			cSort += st.cycles
		}
		sortBreakdown(res, hz, d, cPart, cAppend, cSort, cMerge, p1End, p.Now())
	})
}

// activeCube runs PipeHash: the pass/spill plan comes from
// PipeHashShape.Plan; pass 1 scans the raw partition (spilling
// partial hash tables to the front-end if the largest group-by's share
// does not fit), later passes scan the smaller intermediate results, and
// the finished group-by tables are written locally.
func activeCube(pl *placement, s *diskos.System, ds workload.Dataset, res *Result) *sim.Signal {
	d := len(s.Disks)
	per := perNodeBytes(ds.TotalBytes, d)
	shape, tables := cubeShape(ds)
	reserve := s.Cfg.DiskMemBytes - s.ScratchBytes() + 1<<20
	plan := shape.Plan(d, s.Cfg.DiskMemBytes, reserve)
	res.Details["passes"] = float64(plan.Passes)
	res.Details["spill_bytes"] = float64(plan.SpillBytes)

	cn := newCubeNode(per, s.Disks[0].Disk.Capacity(), tables, d, plan.Passes, ds.TupleBytes)
	spillShare := plan.SpillBytes / int64(d)
	spillRatio := float64(spillShare) / float64(per)

	wg := sim.NewWaitGroup(d)
	var merged *sim.Signal
	if plan.SpillBytes > 0 {
		merged = feMerger(pl.hub(), s, 32, GroupMergeCycles)
	}
	for i := range s.Disks {
		ad := s.Disks[i]
		pl.kernel(i).Spawn(fmt.Sprintf("cube%d", i), func(p *sim.Proc) {
			// Pass 1 streams the disk's share of the spilled partial
			// tables to the front-end as it scans.
			var pend float64
			var spill func(n int64)
			if spillShare > 0 {
				spill = func(n int64) {
					pend += float64(n) * spillRatio
					if pend >= flushBatch {
						pl.sendFE(p, ad, int64(pend))
						pend = 0
					}
				}
			}
			cn.firstPass(p, ad, spill)
			if pend >= 1 {
				pl.sendFE(p, ad, int64(pend))
			}
			cn.finish(p, ad)
			pl.cross(p, i, func(*sim.Proc) { wg.Done() })
		})
	}
	return coord(pl.hub(), wg, func(p *sim.Proc) {
		s.FE.CloseInbox()
		if merged != nil {
			merged.Wait(p)
		}
	})
}

// activeJoin is the Grace-style project-join: both relations are
// scanned, projected to 32-byte tuples and hash-repartitioned across the
// disks; each disk then joins its partitions locally (build + probe per
// Grace partition) and writes the output. Each disk runs two disklets,
// so join never shards.
func activeJoin(pl *placement, s *diskos.System, ds workload.Dataset, res *Result) *sim.Signal {
	k, d := pl.k, len(s.Disks)
	perR, perS, projR, projS, projFrac := joinShares(ds, d)
	partRegion, outRegion := regions(s.Disks[0].Disk.Capacity())
	gp := relational.PlanGraceJoin(projR, s.ScratchBytes()-2<<20)
	res.Details["grace_partitions"] = float64(gp.Partitions)

	phase := [2]*sim.Barrier{sim.NewBarrier(k, "join.p1", d), sim.NewBarrier(k, "join.p2", d)}
	readersR := sim.NewWaitGroup(d)
	readersS := sim.NewWaitGroup(d)
	workers := sim.NewWaitGroup(d)
	x := activeExchanges(pl, s, nil, readersR, readersS)

	for i := range s.Disks {
		ad := s.Disks[i]
		// Scanner disklet: project+shuffle R, barrier, then S.
		k.Spawn(fmt.Sprintf("jscan%d", i), func(p *sim.Proc) {
			shuffleProjected(p, x, i, d, perR, ds.TupleBytes, projFrac)
			phase[0].Wait(p)
			if i == 0 {
				res.Details["p1_seconds"] = p.Now().Seconds()
			}
			shuffleProjected(p, x, i, d, perS, ds.TupleBytes, projFrac)
		})
		// Writer disklet: receive projected tuples (both relations,
		// locally retained share accounted analytically), write the
		// partition files, then build+probe each Grace partition. The
		// credit release follows the append compute but precedes the
		// (possible) partition write.
		k.Spawn(fmt.Sprintf("jwork%d", i), func(p *sim.Proc) {
			js := joinStage{region: partRegion}
			for {
				c, ok := ad.Recv(p)
				if !ok {
					break
				}
				t := tuplesIn(c.Bytes, ds.ProjectedTupleBytes)
				ad.Compute(p, t*AppendCycles/4)
				ad.Release(c.Bytes)
				js.stage(p, ad, c.Bytes, false)
			}
			// Locally retained projected share of both relations.
			js.stage(p, ad, (projR+projS)/int64(d), true)
			phase[1].Wait(p)
			if i == 0 {
				res.Details["p2_seconds"] = p.Now().Seconds() - res.Details["p1_seconds"]
			}
			js.join(p, ad, outRegion, projR, projS, ds.ProjectedTupleBytes)
			workers.Done()
		})
	}
	spawnCloser(k, s, readersR, readersS)
	return coord(k, workers, nil)
}

// activeMine runs level-wise association mining: MinePasses scans over
// the local transactions, with a counter reduction through the
// front-end after every pass (each disk forwards its 5.4 MB of
// candidate counters; the front-end merges them and broadcasts the next
// level's candidates back).
func activeMine(pl *placement, s *diskos.System, ds workload.Dataset, res *Result) *sim.Signal {
	d := len(s.Disks)
	per := perNodeBytes(ds.TotalBytes, d)
	counters := mineCounters(ds)
	res.Details["passes"] = float64(MinePasses)
	res.Details["counter_bytes"] = float64(counters)

	hub := pl.hub()
	workers := sim.NewWaitGroup(d)
	barrier := sim.NewBarrier(hub, "mine.pass", d)

	// Front-end reduction server: every pass it consumes one counter
	// chunk per disk, merges, then broadcasts candidates back.
	hub.Spawn("fe.reduce", func(p *sim.Proc) {
		for pass := 0; pass < MinePasses; pass++ {
			for i := 0; i < d; i++ {
				c, ok := s.FE.Recv(p)
				if !ok {
					return
				}
				s.FE.CPU.Compute(p, c.Bytes/MineCounterEntryBytes*MineMergeCycles)
			}
			if pass == MinePasses-1 {
				break // no next level to broadcast
			}
			bwg := sim.NewWaitGroup(d)
			for i := 0; i < d; i++ {
				hub.Spawn(fmt.Sprintf("fe.bcast%d", i), func(bp *sim.Proc) {
					s.FrontEndSend(bp, i, counters, nil)
					bwg.Done()
				})
			}
			bwg.Wait(p)
		}
	})

	for i := range s.Disks {
		ad := s.Disks[i]
		pl.kernel(i).Spawn(fmt.Sprintf("mine%d", i), func(p *sim.Proc) {
			for pass := 0; pass < MinePasses; pass++ {
				scanLocal(p, ad, 0, per, ds.TupleBytes, MineCycles)
				pl.sendFE(p, ad, counters)
				if pass < MinePasses-1 {
					// Wait for the next level's candidates.
					got := int64(0)
					for got < counters {
						c, ok := pl.recv(p, ad)
						if !ok {
							break
						}
						got += c.Bytes
						pl.release(p, ad, c.Bytes)
					}
				}
				pl.cross(p, i, func(hp *sim.Proc) {
					barrier.Wait(hp)
					if i == 0 {
						res.Details[passKey(pass+1)] = hp.Now().Seconds()
					}
				})
			}
			pl.cross(p, i, func(*sim.Proc) { workers.Done() })
		})
	}
	return coord(hub, workers, func(p *sim.Proc) {
		s.FE.CloseInbox()
		for _, ad := range s.Disks {
			ad.CloseInbox()
		}
	})
}

// activeMView maintains the materialized views: the delta batch is
// hash-repartitioned to the disks owning the matching base partitions,
// joined against a scan of the base relation, the resulting derived
// updates are repartitioned again to the disks owning the view
// partitions, and the derived relations are read, updated and written
// back. Each disk runs two disklets, so mview never shards.
func activeMView(pl *placement, s *diskos.System, ds workload.Dataset, res *Result) *sim.Signal {
	k, d := pl.k, len(s.Disks)
	base, deltas, derived, updates := viewShares(ds, d)
	stageRegion, derivedRegion := regions(s.Disks[0].Disk.Capacity())

	senders := sim.NewWaitGroup(d)
	workers := sim.NewWaitGroup(d)
	applyPhase := sim.NewBarrier(k, "mview.apply", d)
	x := activeExchanges(pl, s, nil, senders)

	for i := range s.Disks {
		ad := s.Disks[i]
		// Producer disklet: shuffle deltas, scan base + join, shuffle
		// the derived updates.
		k.Spawn(fmt.Sprintf("mvprod%d", i), func(p *sim.Proc) {
			produceViews(p, x, i, d, deltas, base, updates, ds.TupleBytes)
		})
		// Consumer disklet: absorb shuffled deltas and updates, then
		// apply updates to the local derived relations.
		k.Spawn(fmt.Sprintf("mvapply%d", i), func(p *sim.Proc) {
			drainInbox(p, ad, func(bytes int64) {
				ad.Compute(p, tuplesIn(bytes, ds.TupleBytes)*AppendCycles/4)
			})
			applyPhase.Wait(p)
			if i == 0 {
				res.Details["shuffle_seconds"] = p.Now().Seconds()
			}
			applyViews(p, ad, derived, updates, derivedRegion, stageRegion, ds.TupleBytes)
			workers.Done()
		})
	}
	spawnCloser(k, s, senders)
	return coord(k, workers, nil)
}
