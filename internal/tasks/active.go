package tasks

import (
	"fmt"

	"howsim/internal/cpu"
	"howsim/internal/disk"
	"howsim/internal/diskos"
	"howsim/internal/fault"
	"howsim/internal/probe"
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
	case workload.Select:
		return activeScan(pl, s, ds, SelectCycles, ds.Selectivity, 0, plan, deg)
	case workload.Aggregate:
		return activeScan(pl, s, ds, AggregateCycles, 0, 512, plan, deg)
	case workload.GroupBy:
		return activeGroupBy(pl, s, ds, res)
	case workload.Sort:
		return activeSort(pl.k, s, ds, res)
	case workload.DataCube:
		return activeCube(pl, s, ds, res)
	case workload.Join:
		return activeJoin(pl.k, s, ds, res)
	case workload.DataMine:
		return activeMine(pl, s, ds, res)
	case workload.MView:
		return activeMView(pl.k, s, ds, res)
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

// activeScan is the shared scan skeleton for select and aggregate: every
// disk scans its partition with the disklet, forwarding outFraction of
// the bytes scanned to the front-end in batches and finalBytes once at
// the end.
//
// Recovery: a hard media error loses just that chunk; a failed drive
// either hands the rest of the partition to the replica copy on the next
// disk (when the plan declares replicas — that disklet then does double
// duty; such plans never shard) or abandons the remainder, which is
// reported as lost bytes. Lost and replica bytes accumulate proc-local
// and fold into the degrade accumulator in the disklet's final
// crossing. The fault-free path issues exactly the same simulated
// events as before the fault plumbing existed.
func activeScan(pl *placement, s *diskos.System, ds workload.Dataset,
	cycles int64, outFraction float64, finalBytes int64,
	plan *fault.Plan, deg *degrade) *sim.Signal {
	d := len(s.Disks)
	per := perNodeBytes(ds.TotalBytes, d)
	deg.total = per * int64(d)
	replicaRegion := replicaRegionOf(s.Disks[0].Disk.Capacity())
	wg := sim.NewWaitGroup(d)
	for i := range s.Disks {
		k := pl.kernel(i)
		// The recovery ref lives on the disk's own kernel sink and exists
		// only under a plan, so that fault-free traces stay byte-identical
		// to runs built before the fault plumbing.
		var skipRef probe.Ref
		var skipKind probe.Kind
		if plan != nil {
			skipRef = k.Probe().Register("recovery", "scan")
			skipKind = skipRef.KindNamed("degraded_skip")
		}
		k.Spawn(fmt.Sprintf("scan%d", i), func(p *sim.Proc) {
			src, base := s.Disks[i], int64(0)
			var pend, lost, replica int64
			for off := int64(0); off < per; {
				n := int64(ioChunk)
				if per-off < n {
					n = alignSector(per - off)
				}
				err := src.ReadLocal(p, base+off, n)
				if err == disk.ErrDiskFailed {
					if plan != nil && plan.Replica && d > 1 && base == 0 {
						// Fail over to the replica copy on the next disk and
						// retry the same chunk there.
						src, base = s.Disks[(i+1)%d], replicaRegion
						continue
					}
					lost += per - off
					if skipRef.On() {
						skipRef.SpanArg(skipKind, int64(p.Now()), int64(p.Now()), per-off)
					}
					break
				}
				if err != nil {
					// Unrecoverable sector: this chunk is lost, the scan
					// continues.
					lost += n
					if skipRef.On() {
						skipRef.SpanArg(skipKind, int64(p.Now()), int64(p.Now()), n)
					}
				} else {
					if base != 0 {
						replica += n
					}
					t := tuplesIn(n, ds.TupleBytes)
					src.Compute(p, t*cycles)
					pend += int64(float64(n) * outFraction)
					if pend >= flushBatch {
						pl.sendFE(p, src, pend)
						pend = 0
					}
				}
				off += n
			}
			// The tail flushes, loss accounting and the completion mark are
			// all hub work at one instant: one crossing.
			pl.cross(p, i, func(hp *sim.Proc) {
				if pend > 0 {
					src.SendToFrontEnd(hp, pend, nil)
				}
				if finalBytes > 0 {
					src.SendToFrontEnd(hp, finalBytes, nil)
				}
				deg.lost += lost
				deg.replica += replica
				wg.Done()
			})
		})
	}
	return coord(pl.hub(), wg, nil)
}

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
func activeSort(k *sim.Kernel, s *diskos.System, ds workload.Dataset, res *Result) *sim.Signal {
	d := len(s.Disks)
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

	for i := range s.Disks {
		ad := s.Disks[i]
		peers := peersOf(i, d)
		// Partitioner disklet: scan local input, keep the local share,
		// stream the rest to peer disks in rotating batches.
		k.Spawn(fmt.Sprintf("part%d", i), func(p *sim.Proc) {
			rot := 0
			chunksOf(per, func(off, n int64) {
				ad.ReadLocal(p, off, n)
				t := tuplesIn(n, ds.TupleBytes)
				ad.Compute(p, t*PartitionCycles)
				cPart += t * PartitionCycles
				remote := n * int64(d-1) / int64(d)
				if remote > 0 && len(peers) > 0 {
					ad.Send(p, peers[rot], remote, nil)
					rot = (rot + 1) % len(peers)
				}
				absorb(p, i, n-remote)
			})
			readers.Done()
		})
		// Sorter disklet: absorb arriving tuples into runs, then merge.
		// Each chunk's credit is released just before the next Recv.
		k.Spawn(fmt.Sprintf("sort%d", i), func(p *sim.Proc) {
			var rel int64
			for {
				if rel > 0 {
					ad.Release(rel)
				}
				c, ok := ad.Recv(p)
				if !ok {
					break
				}
				absorb(p, i, c.Bytes)
				rel = c.Bytes
			}
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
	k.Spawn("closer", func(p *sim.Proc) {
		readers.Wait(p)
		for _, ad := range s.Disks {
			ad.CloseInbox()
		}
	})
	return coord(k, sorters, func(p *sim.Proc) {
		// Attribute CPU buckets (average per disk) and idle remainders,
		// matching Figure 3's legend.
		total := p.Now()
		var cSort int64
		for _, st := range states {
			cSort += st.cycles
		}
		toTime := func(cycles int64) sim.Time {
			return sim.Time(float64(cycles) / hz / float64(d) * float64(sim.Second))
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
		p2 := total - p1End
		if p2 > toTime(cMerge) {
			bd.Add("P2:Idle", p2-toTime(cMerge))
		}
		res.Details["p1_seconds"] = p1End.Seconds()
		res.Details["p2_seconds"] = (total - p1End).Seconds()
	})
}

// peersOf lists every disk but i, in ascending order: the rotation a
// repartitioning disklet streams its remote share through.
func peersOf(i, d int) []int {
	peers := make([]int, 0, d-1)
	for j := 0; j < d; j++ {
		if j != i {
			peers = append(peers, j)
		}
	}
	return peers
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
func activeJoin(k *sim.Kernel, s *diskos.System, ds workload.Dataset, res *Result) *sim.Signal {
	d := len(s.Disks)
	rBytes := ds.TotalBytes / 2
	sBytes := ds.TotalBytes - rBytes
	perR := perNodeBytes(rBytes, d)
	perS := perNodeBytes(sBytes, d)
	projFrac := float64(ds.ProjectedTupleBytes) / float64(ds.TupleBytes)
	partRegion, outRegion := regions(s.Disks[0].Disk.Capacity())

	projR := alignSector(int64(float64(perR) * projFrac))
	projS := alignSector(int64(float64(perS) * projFrac))
	gp := relational.PlanGraceJoin(projR, s.ScratchBytes()-2<<20)
	res.Details["grace_partitions"] = float64(gp.Partitions)

	var phase [2]*sim.Barrier
	phase[0] = sim.NewBarrier(k, "join.p1", d)
	phase[1] = sim.NewBarrier(k, "join.p2", d)
	readersR := sim.NewWaitGroup(d)
	readersS := sim.NewWaitGroup(d)
	workers := sim.NewWaitGroup(d)

	for i := range s.Disks {
		ad := s.Disks[i]
		peers := peersOf(i, d)
		// shuffle scans a local relation partition, projects it and
		// streams the remote share to peers.
		shuffle := func(p *sim.Proc, per int64) {
			rot := 0
			chunksOf(per, func(off, n int64) {
				ad.ReadLocal(p, off, n)
				t := tuplesIn(n, ds.TupleBytes)
				ad.Compute(p, t*ProjectCycles)
				proj := int64(float64(n) * projFrac)
				remote := proj * int64(d-1) / int64(d)
				if remote > 0 && len(peers) > 0 {
					ad.Send(p, peers[rot], remote, nil)
					rot = (rot + 1) % len(peers)
				}
			})
		}
		// Scanner disklet: project+shuffle R, barrier, then S.
		k.Spawn(fmt.Sprintf("jscan%d", i), func(p *sim.Proc) {
			shuffle(p, perR)
			readersR.Done()
			phase[0].Wait(p)
			if i == 0 {
				res.Details["p1_seconds"] = p.Now().Seconds()
			}
			shuffle(p, perS)
			readersS.Done()
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
	k.Spawn("closer", func(p *sim.Proc) {
		readersR.Wait(p)
		readersS.Wait(p)
		for _, ad := range s.Disks {
			ad.CloseInbox()
		}
	})
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
func activeMView(k *sim.Kernel, s *diskos.System, ds workload.Dataset, res *Result) *sim.Signal {
	d := len(s.Disks)
	base := perNodeBytes(baseBytes(ds), d)
	deltas := perNodeBytes(ds.DeltaBytes, d)
	derived := perNodeBytes(ds.DerivedBytes, d)
	updates := deltas * ViewFanout // derived updates produced per disk
	deltaTupB := ds.TupleBytes

	stageRegion, derivedRegion := regions(s.Disks[0].Disk.Capacity())

	senders := sim.NewWaitGroup(d)
	workers := sim.NewWaitGroup(d)
	applyPhase := sim.NewBarrier(k, "mview.apply", d)

	for i := range s.Disks {
		ad := s.Disks[i]
		peers := peersOf(i, d)
		// Producer disklet: shuffle deltas, scan base + join, shuffle
		// the derived updates.
		k.Spawn(fmt.Sprintf("mvprod%d", i), func(p *sim.Proc) {
			rot := 0
			chunksOf(deltas, func(off, n int64) {
				ad.ReadLocal(p, off, n)
				t := tuplesIn(n, deltaTupB)
				ad.Compute(p, t*PartitionCycles/3)
				remote := n * int64(d-1) / int64(d)
				if remote > 0 && len(peers) > 0 {
					ad.Send(p, peers[rot], remote, nil)
					rot = (rot + 1) % len(peers)
				}
			})
			// Scan base, probing the (repartitioned) delta table and
			// producing derived updates that are shuffled to the view
			// owners.
			baseStart := alignSector(deltas) // base follows the deltas in the input region
			perChunkUpd := float64(updates) / float64(base)
			var pendUpd float64
			chunksOf(base, func(off, n int64) {
				ad.ReadLocal(p, baseStart+off, n)
				t := tuplesIn(n, deltaTupB)
				ad.Compute(p, t*ViewProbeCycles)
				pendUpd += float64(n) * perChunkUpd
				if int64(pendUpd) >= flushBatch && len(peers) > 0 {
					remote := int64(pendUpd) * int64(d-1) / int64(d)
					ad.Send(p, peers[rot], remote, nil)
					rot = (rot + 1) % len(peers)
					pendUpd = 0
				}
			})
			if int64(pendUpd) > 0 && len(peers) > 0 {
				ad.Send(p, peers[rot], int64(pendUpd)*int64(d-1)/int64(d), nil)
			}
			senders.Done()
		})
		// Consumer disklet: absorb shuffled deltas and updates, then
		// apply updates to the local derived relations. Each chunk's
		// credit is released just before the next Recv.
		k.Spawn(fmt.Sprintf("mvapply%d", i), func(p *sim.Proc) {
			var rel int64
			for {
				if rel > 0 {
					ad.Release(rel)
				}
				c, ok := ad.Recv(p)
				if !ok {
					break
				}
				t := tuplesIn(c.Bytes, deltaTupB)
				ad.Compute(p, t*AppendCycles/4)
				rel = c.Bytes
			}
			applyPhase.Wait(p)
			if i == 0 {
				res.Details["shuffle_seconds"] = p.Now().Seconds()
			}
			applyViews(p, ad, derived, updates, derivedRegion, stageRegion, deltaTupB)
			workers.Done()
		})
	}
	k.Spawn("closer", func(p *sim.Proc) {
		senders.Wait(p)
		for _, ad := range s.Disks {
			ad.CloseInbox()
		}
	})
	return coord(k, workers, nil)
}
