package tasks

import (
	"fmt"

	"howsim/internal/arch"
	"howsim/internal/cpu"
	"howsim/internal/disk"
	"howsim/internal/diskos"
	"howsim/internal/fault"
	"howsim/internal/probe"
	"howsim/internal/relational"
	"howsim/internal/sim"
	"howsim/internal/workload"
)

// runActive executes one task on an Active Disk configuration.
func runActive(cfg arch.Config, task workload.TaskID, ds workload.Dataset, res *Result,
	plan *fault.Plan, sink *probe.Sink, rc *runCtl) {
	if rc.mode == sim.ModeParallel && shardable(cfg, task, plan) {
		runActiveSharded(cfg, task, ds, res, plan, sink)
		return
	}
	k := sim.NewKernel()
	k.SetExecMode(rc.mode)
	defer release(k)
	k.SetProbe(sink)
	s := cfg.BuildActive(k)
	s.InstallFaults(plan)
	deg := &degrade{}
	rb := &rebuildState{}
	spawnRebuild(k, s, ds, plan, rb)
	var done *sim.Signal
	switch task {
	case workload.Select:
		done = activeScan(k, s, ds, res, SelectCycles,
			func(n int64) int64 { return int64(float64(n) * ds.Selectivity) }, 0, plan, deg)
	case workload.Aggregate:
		done = activeScan(k, s, ds, res, AggregateCycles, func(int64) int64 { return 0 }, 512, plan, deg)
	case workload.GroupBy:
		done = activeGroupBy(k, s, ds, res)
	case workload.Sort:
		done = activeSort(k, s, ds, res)
	case workload.DataCube:
		done = activeCube(k, s, ds, res)
	case workload.Join:
		done = activeJoin(k, s, ds, res)
	case workload.DataMine:
		done = activeMine(k, s, ds, res)
	case workload.MView:
		done = activeMView(k, s, ds, res)
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
	res.Details["loop_bytes"] = float64(s.LoopBytesMoved())
	res.Details["loop_util"] = s.LoopUtilization()
	res.Details["loops"] = float64(s.Loops())
	res.Details["fe_recv_bytes"] = float64(s.FE.ReceivedBytes())
	res.Details["fe_relay_bytes"] = float64(s.FE.RelayedBytes())
	var mediaRead, mediaWrite int64
	disks := make([]*disk.Disk, len(s.Disks))
	cpus := make([]*cpu.CPU, len(s.Disks))
	for i, ad := range s.Disks {
		st := ad.Disk.Stats()
		mediaRead += st.BytesRead
		mediaWrite += st.BytesWritten
		disks[i] = ad.Disk
		cpus[i] = ad.CPU
	}
	if s.Spare != nil {
		disks = append(disks, s.Spare)
	}
	res.Details["media_read_bytes"] = float64(mediaRead)
	res.Details["media_write_bytes"] = float64(mediaWrite)
	var deadlock string
	if !completed {
		deadlock = k.DeadlockReport()
	}
	faultEpilogue(res, plan, deg, completed, deadlock, disks, cpus, rb)
	probeEpilogue(res, k)
}

// replicaRegionOf places each disk's replica copy of a peer's partition:
// disk i's data is mirrored onto disk (i+1) mod d starting at this
// offset (the top sixth of the drive, clear of the run/output regions
// the tasks carve out of the lower two-thirds).
func replicaRegionOf(capEach int64) int64 { return alignSector(5 * capEach / 6) }

// activeScan is the shared scan skeleton for select and aggregate: every
// disk scans its partition with the disklet, forwarding emitted result
// bytes to the front-end in batches.
//
// Recovery: a hard media error loses just that chunk; a failed drive
// either hands the rest of the partition to the replica copy on the next
// disk (when the plan declares replicas — that disklet then does double
// duty) or abandons the remainder, which is reported as lost bytes. The
// fault-free path issues exactly the same simulated events as before the
// fault plumbing existed.
func activeScan(k *sim.Kernel, s *diskos.System, ds workload.Dataset, res *Result,
	cycles int64, emit func(chunkBytes int64) int64, finalBytes int64,
	plan *fault.Plan, deg *degrade) *sim.Signal {
	d := len(s.Disks)
	per := perNodeBytes(ds.TotalBytes, d)
	deg.total = per * int64(d)
	replicaRegion := replicaRegionOf(s.Disks[0].Disk.Capacity())
	done := sim.NewSignal()
	wg := sim.NewWaitGroup(d)
	// The recovery ref exists only under a plan so that fault-free traces
	// stay byte-identical to runs built before the fault plumbing.
	var skipRef probe.Ref
	var skipKind probe.Kind
	if plan != nil {
		skipRef = k.Probe().Register("recovery", "scan")
		skipKind = skipRef.KindNamed("degraded_skip")
	}
	for i := range s.Disks {
		i := i
		k.Spawn(fmt.Sprintf("scan%d", i), func(p *sim.Proc) {
			src, base := s.Disks[i], int64(0)
			var pend int64
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
					deg.lost += per - off
					if skipRef.On() {
						skipRef.SpanArg(skipKind, int64(p.Now()), int64(p.Now()), per-off)
					}
					break
				}
				if err != nil {
					// Unrecoverable sector: this chunk is lost, the scan
					// continues.
					deg.lost += n
					if skipRef.On() {
						skipRef.SpanArg(skipKind, int64(p.Now()), int64(p.Now()), n)
					}
				} else {
					if base != 0 {
						deg.replica += n
					}
					t := tuplesIn(n, ds.TupleBytes)
					src.Compute(p, t*cycles)
					pend += emit(n)
					if pend >= flushBatch {
						src.SendToFrontEnd(p, pend, nil)
						pend = 0
					}
				}
				off += n
			}
			if pend > 0 {
				src.SendToFrontEnd(p, pend, nil)
			}
			if finalBytes > 0 {
				src.SendToFrontEnd(p, finalBytes, nil)
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

// feMerger drains the front-end inbox, charging the front-end CPU a
// merge cost per table entry, until the inbox closes.
func feMerger(k *sim.Kernel, s *diskos.System, entryBytes, cyclesPerEntry int64) *sim.Signal {
	sig := sim.NewSignal()
	k.Spawn("fe.merge", func(p *sim.Proc) {
		for {
			v, ok := s.FE.Inbox().Get(p)
			if !ok {
				break
			}
			c := v.(diskos.Chunk)
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
func activeGroupBy(k *sim.Kernel, s *diskos.System, ds workload.Dataset, res *Result) *sim.Signal {
	d := len(s.Disks)
	per := perNodeBytes(ds.TotalBytes, d)
	result := ds.DistinctGroups * GroupResultTupleBytes
	fwd := result * GroupDedupFactor / int64(d)
	res.Details["fwd_bytes_per_disk"] = float64(fwd)
	ratio := float64(fwd) / float64(per)

	done := sim.NewSignal()
	wg := sim.NewWaitGroup(d)
	merged := feMerger(k, s, GroupResultTupleBytes, GroupMergeCycles)
	for i := range s.Disks {
		ad := s.Disks[i]
		k.Spawn(fmt.Sprintf("gby%d", i), func(p *sim.Proc) {
			var pend float64
			chunksOf(per, func(off, n int64) {
				ad.ReadLocal(p, off, n)
				t := tuplesIn(n, ds.TupleBytes)
				ad.Compute(p, t*GroupByCycles)
				pend += float64(n) * ratio
				if pend >= flushBatch {
					ad.SendToFrontEnd(p, int64(pend), nil)
					pend = 0
				}
			})
			if pend >= 1 {
				ad.SendToFrontEnd(p, int64(pend), nil)
			}
			wg.Done()
		})
	}
	k.Spawn("coord", func(p *sim.Proc) {
		wg.Wait(p)
		s.FE.Inbox().Close()
		merged.Wait(p)
		done.Fire()
	})
	return done
}

// activeSort is the two-phase external sort: phase 1 repartitions every
// tuple to its destination disk (partitioner disklet), accumulates
// arriving tuples into runs (sorter disklet), sorts and writes each run;
// phase 2 merges the runs and writes the sorted output. The breakdown
// buckets match Figure 3's legend.
func activeSort(k *sim.Kernel, s *diskos.System, ds workload.Dataset, res *Result) *sim.Signal {
	d := len(s.Disks)
	per := perNodeBytes(ds.TotalBytes, d)
	capEach := s.Disks[0].Disk.Capacity()
	runRegion := alignSector(capEach / 3)
	outRegion := alignSector(2 * capEach / 3)

	runBytes := alignSector(s.ScratchBytes() - 3<<20)
	if runBytes < 1<<20 {
		runBytes = 1 << 20
	}
	if runBytes > per {
		runBytes = alignSector(per)
	}
	plan := relational.PlanExternalSort(per, runBytes, 0)
	res.Details["runs"] = float64(plan.Runs)
	res.Details["run_bytes"] = float64(runBytes)

	hz := s.Disks[0].CPU.Hz()
	var cPart, cAppend, cSort, cMerge int64
	var p1End sim.Time

	type runState struct {
		fill     int64
		runSizes []int64
		mu       *sim.Mutex // partitioner and sorter disklets share the run buffer
	}
	states := make([]*runState, d)
	for i := range states {
		states[i] = &runState{mu: sim.NewMutex(k, fmt.Sprintf("run%d", i))}
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
		for st.fill >= runBytes {
			rt := tuplesIn(runBytes, ds.TupleBytes)
			ad.Compute(p, rt*RunSortCycles)
			cSort += rt * RunSortCycles
			var written int64
			for _, r := range st.runSizes {
				written += r
			}
			ad.WriteLocal(p, runRegion+written, runBytes)
			st.runSizes = append(st.runSizes, runBytes)
			st.fill -= runBytes
		}
	}

	barrier := sim.NewBarrier(k, "sort.p1", d)
	readers := sim.NewWaitGroup(d)
	sorters := sim.NewWaitGroup(d)
	done := sim.NewSignal()

	for i := range s.Disks {
		i := i
		ad := s.Disks[i]
		peers := make([]int, 0, d-1)
		for j := 0; j < d; j++ {
			if j != i {
				peers = append(peers, j)
			}
		}
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
		k.Spawn(fmt.Sprintf("sort%d", i), func(p *sim.Proc) {
			for {
				c, ok := ad.Recv(p)
				if !ok {
					break
				}
				absorb(p, i, c.Bytes)
				ad.Release(c.Bytes)
			}
			st := states[i]
			if st.fill > 0 {
				t := tuplesIn(st.fill, ds.TupleBytes)
				ad.Compute(p, t*RunSortCycles)
				cSort += t * RunSortCycles
				var written int64
				for _, r := range st.runSizes {
					written += r
				}
				sz := alignSector(st.fill)
				ad.WriteLocal(p, runRegion+written, sz)
				st.runSizes = append(st.runSizes, sz)
				st.fill = 0
			}
			barrier.Wait(p)
			if i == 0 {
				p1End = p.Now()
			}
			activeMerge(p, ad, st.runSizes, runRegion, outRegion, ds.TupleBytes, &cMerge)
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
	k.Spawn("coord", func(p *sim.Proc) {
		sorters.Wait(p)
		// Attribute CPU buckets (average per disk) and idle remainders,
		// matching Figure 3's legend.
		total := p.Now()
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
		done.Fire()
	})
	return done
}

// activeMerge reads the sorted runs round-robin (512 KB per run visit,
// seeking between runs as a real merge does), charges the merge CPU
// cost, and writes the sorted output sequentially.
func activeMerge(p *sim.Proc, ad *diskos.ActiveDisk, runSizes []int64,
	runRegion, outRegion int64, tupleBytes int, cMerge *int64) {
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
		// Find the next run with data, round-robin.
		for consumed[r] >= runSizes[r] {
			r = (r + 1) % len(runSizes)
		}
		n := int64(visit)
		if rem := runSizes[r] - consumed[r]; rem < n {
			n = rem
		}
		ad.ReadLocal(p, runStarts[r]+consumed[r], n)
		consumed[r] += n
		readTotal += n
		t := tuplesIn(n, tupleBytes)
		cost := t * (MergeCyclesBase + MergeCyclesPerLevel*lvl)
		ad.Compute(p, cost)
		*cMerge += cost
		outPend += n
		if outPend >= flushBatch {
			ad.WriteLocal(p, outRegion+outOff, outPend)
			outOff += outPend
			outPend = 0
		}
		r = (r + 1) % len(runSizes)
	}
	if outPend > 0 {
		ad.WriteLocal(p, outRegion+outOff, alignSector(outPend))
	}
}

// activeCube runs PipeHash: the pass/spill plan comes from the
// relational engine's planner; pass 1 scans the raw partition (spilling
// partial hash tables to the front-end if the largest group-by's share
// does not fit), later passes scan the smaller intermediate results, and
// the finished group-by tables are written locally.
func activeCube(k *sim.Kernel, s *diskos.System, ds workload.Dataset, res *Result) *sim.Signal {
	d := len(s.Disks)
	per := perNodeBytes(ds.TotalBytes, d)
	shape := relational.PaperCubeShape()
	if ds.TotalBytes < workload.ForTask(workload.DataCube).TotalBytes {
		// Scaled-down instances shrink the plan proportionally.
		f := float64(ds.TotalBytes) / float64(workload.ForTask(workload.DataCube).TotalBytes)
		shape.LargestTableBytes = int64(float64(shape.LargestTableBytes) * f)
		for i := range shape.OtherTablesBytes {
			shape.OtherTablesBytes[i] = int64(float64(shape.OtherTablesBytes[i]) * f)
		}
	}
	reserve := s.Cfg.DiskMemBytes - s.ScratchBytes() + 1<<20
	plan := shape.Plan(d, s.Cfg.DiskMemBytes, reserve)
	res.Details["passes"] = float64(plan.Passes)
	res.Details["spill_bytes"] = float64(plan.SpillBytes)

	interRegion := alignSector(s.Disks[0].Disk.Capacity() / 3)
	tableRegion := alignSector(2 * s.Disks[0].Disk.Capacity() / 3)
	interBytes := alignSector(int64(float64(per) * CubeIntermediateFraction))
	var tables int64 = shape.LargestTableBytes
	for _, t := range shape.OtherTablesBytes {
		tables += t
	}
	tablesPer := alignSector(tables / int64(d))

	done := sim.NewSignal()
	wg := sim.NewWaitGroup(d)
	var merged *sim.Signal
	if plan.SpillBytes > 0 {
		merged = feMerger(k, s, 32, GroupMergeCycles)
	}
	for i := range s.Disks {
		ad := s.Disks[i]
		k.Spawn(fmt.Sprintf("cube%d", i), func(p *sim.Proc) {
			spillShare := plan.SpillBytes / int64(d)
			spillRatio := float64(spillShare) / float64(per)
			var pend float64
			// Pass 1 over the raw partition, writing the intermediate.
			var interWritten int64
			chunksOf(per, func(off, n int64) {
				ad.ReadLocal(p, off, n)
				t := tuplesIn(n, ds.TupleBytes)
				ad.Compute(p, t*CubeCycles)
				if spillShare > 0 {
					pend += float64(n) * spillRatio
					if pend >= flushBatch {
						ad.SendToFrontEnd(p, int64(pend), nil)
						pend = 0
					}
				}
				if interWritten < interBytes {
					w := n
					if interBytes-interWritten < w {
						w = alignSector(interBytes - interWritten)
					}
					ad.WriteLocal(p, interRegion+interWritten, w)
					interWritten += w
				}
			})
			if pend >= 1 {
				ad.SendToFrontEnd(p, int64(pend), nil)
			}
			// Remaining passes over the intermediate results.
			for pass := 1; pass < plan.Passes; pass++ {
				chunksOf(interBytes, func(off, n int64) {
					ad.ReadLocal(p, interRegion+off, n)
					t := tuplesIn(n, ds.TupleBytes)
					ad.Compute(p, t*CubeCycles)
				})
			}
			// Write the finished group-by tables.
			chunksOf(tablesPer, func(off, n int64) {
				ad.WriteLocal(p, tableRegion+off, n)
			})
			wg.Done()
		})
	}
	k.Spawn("coord", func(p *sim.Proc) {
		wg.Wait(p)
		s.FE.Inbox().Close()
		if merged != nil {
			merged.Wait(p)
		}
		done.Fire()
	})
	return done
}

// activeJoin is the Grace-style project-join: both relations are
// scanned, projected to 32-byte tuples and hash-repartitioned across the
// disks; each disk then joins its partitions locally (build + probe per
// Grace partition) and writes the output.
func activeJoin(k *sim.Kernel, s *diskos.System, ds workload.Dataset, res *Result) *sim.Signal {
	d := len(s.Disks)
	rBytes := ds.TotalBytes / 2
	sBytes := ds.TotalBytes - rBytes
	perR := perNodeBytes(rBytes, d)
	perS := perNodeBytes(sBytes, d)
	projFrac := float64(ds.ProjectedTupleBytes) / float64(ds.TupleBytes)
	partRegion := alignSector(s.Disks[0].Disk.Capacity() / 3)
	outRegion := alignSector(2 * s.Disks[0].Disk.Capacity() / 3)

	projR := alignSector(int64(float64(perR) * projFrac))
	projS := alignSector(int64(float64(perS) * projFrac))
	gp := relational.PlanGraceJoin(projR, s.ScratchBytes()-2<<20)
	res.Details["grace_partitions"] = float64(gp.Partitions)

	done := sim.NewSignal()
	var phase [2]*sim.Barrier
	phase[0] = sim.NewBarrier(k, "join.p1", d)
	phase[1] = sim.NewBarrier(k, "join.p2", d)
	readersR := sim.NewWaitGroup(d)
	readersS := sim.NewWaitGroup(d)
	workers := sim.NewWaitGroup(d)

	// shuffle scans a local relation partition, projects it, streams the
	// remote share to peers and returns the locally retained projected
	// bytes (which the receiver disklet also accounts for peers).
	shuffle := func(p *sim.Proc, i int, per int64, peers []int) {
		ad := s.Disks[i]
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

	for i := range s.Disks {
		i := i
		ad := s.Disks[i]
		peers := make([]int, 0, d-1)
		for j := 0; j < d; j++ {
			if j != i {
				peers = append(peers, j)
			}
		}
		// Scanner disklet: project+shuffle R, barrier, then S.
		k.Spawn(fmt.Sprintf("jscan%d", i), func(p *sim.Proc) {
			shuffle(p, i, perR, peers)
			readersR.Done()
			phase[0].Wait(p)
			if i == 0 {
				res.Details["p1_seconds"] = p.Now().Seconds()
			}
			shuffle(p, i, perS, peers)
			readersS.Done()
		})
		// Writer disklet: receive projected tuples (both relations,
		// locally retained share accounted analytically), write the
		// partition files, then build+probe each Grace partition.
		k.Spawn(fmt.Sprintf("jwork%d", i), func(p *sim.Proc) {
			var pend, written int64
			flush := func(final bool) {
				if pend >= flushBatch || (final && pend > 0) {
					w := alignSector(pend)
					ad.WriteLocal(p, partRegion+written, w)
					written += w
					pend = 0
				}
			}
			for {
				c, ok := ad.Recv(p)
				if !ok {
					break
				}
				t := tuplesIn(c.Bytes, ds.ProjectedTupleBytes)
				ad.Compute(p, t*AppendCycles/4)
				pend += c.Bytes
				ad.Release(c.Bytes)
				flush(false)
			}
			// Locally retained projected share of both relations.
			local := (projR + projS) / int64(d)
			pend += local
			flush(true)
			phase[1].Wait(p)
			if i == 0 {
				res.Details["p2_seconds"] = p.Now().Seconds() - res.Details["p1_seconds"]
			}

			// Local Grace join over the received partitions.
			totalPart := written
			rShare := totalPart * projR / (projR + projS)
			sShare := totalPart - rShare
			chunksOf(rShare, func(off, n int64) {
				ad.ReadLocal(p, partRegion+off, n)
				t := tuplesIn(n, ds.ProjectedTupleBytes)
				ad.Compute(p, t*BuildCycles)
			})
			var outOff int64
			chunksOf(sShare, func(off, n int64) {
				ad.ReadLocal(p, partRegion+rShare+off, n)
				t := tuplesIn(n, ds.ProjectedTupleBytes)
				ad.Compute(p, t*ProbeCycles)
				out := int64(float64(n) * JoinOutputFraction)
				if out > 0 {
					ad.WriteLocal(p, outRegion+outOff, alignSector(out))
					outOff += alignSector(out)
				}
			})
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
	k.Spawn("coord", func(p *sim.Proc) {
		workers.Wait(p)
		done.Fire()
	})
	return done
}

// activeMine runs level-wise association mining: MinePasses scans over
// the local transactions, with a counter reduction through the
// front-end after every pass (each disk forwards its 5.4 MB of
// candidate counters; the front-end merges them and broadcasts the next
// level's candidates back).
func activeMine(k *sim.Kernel, s *diskos.System, ds workload.Dataset, res *Result) *sim.Signal {
	d := len(s.Disks)
	per := perNodeBytes(ds.TotalBytes, d)
	counters := int64(MineCounterBytes)
	if ds.TotalBytes < workload.ForTask(workload.DataMine).TotalBytes {
		f := float64(ds.TotalBytes) / float64(workload.ForTask(workload.DataMine).TotalBytes)
		counters = int64(float64(counters) * f)
		if counters < 4096 {
			counters = 4096
		}
	}
	res.Details["passes"] = float64(MinePasses)
	res.Details["counter_bytes"] = float64(counters)

	done := sim.NewSignal()
	workers := sim.NewWaitGroup(d)
	barrier := sim.NewBarrier(k, "mine.pass", d)

	// Front-end reduction server: every pass it consumes one counter
	// chunk per disk, merges, then broadcasts candidates back.
	k.Spawn("fe.reduce", func(p *sim.Proc) {
		for pass := 0; pass < MinePasses; pass++ {
			for i := 0; i < d; i++ {
				v, ok := s.FE.Inbox().Get(p)
				if !ok {
					return
				}
				c := v.(diskos.Chunk)
				s.FE.CPU.Compute(p, c.Bytes/MineCounterEntryBytes*MineMergeCycles)
			}
			if pass == MinePasses-1 {
				break // no next level to broadcast
			}
			bwg := sim.NewWaitGroup(d)
			for i := 0; i < d; i++ {
				i := i
				k.Spawn(fmt.Sprintf("fe.bcast%d", i), func(bp *sim.Proc) {
					s.FrontEndSend(bp, i, counters, nil)
					bwg.Done()
				})
			}
			bwg.Wait(p)
		}
	})

	for i := range s.Disks {
		ad := s.Disks[i]
		k.Spawn(fmt.Sprintf("mine%d", i), func(p *sim.Proc) {
			for pass := 0; pass < MinePasses; pass++ {
				chunksOf(per, func(off, n int64) {
					ad.ReadLocal(p, off, n)
					txns := tuplesIn(n, ds.TupleBytes)
					ad.Compute(p, txns*MineCycles)
				})
				ad.SendToFrontEnd(p, counters, nil)
				if pass < MinePasses-1 {
					// Wait for the next level's candidates.
					got := int64(0)
					for got < counters {
						c, ok := ad.Recv(p)
						if !ok {
							break
						}
						got += c.Bytes
						ad.Release(c.Bytes)
					}
				}
				barrier.Wait(p)
				if i == 0 {
					res.Details[passKey(pass+1)] = p.Now().Seconds()
				}
			}
			workers.Done()
		})
	}
	k.Spawn("coord", func(p *sim.Proc) {
		workers.Wait(p)
		s.FE.Inbox().Close()
		for _, ad := range s.Disks {
			ad.CloseInbox()
		}
		done.Fire()
	})
	return done
}

// activeMView maintains the materialized views: the delta batch is
// hash-repartitioned to the disks owning the matching base partitions,
// joined against a scan of the base relation, the resulting derived
// updates are repartitioned again to the disks owning the view
// partitions, and the derived relations are read, updated and written
// back.
func activeMView(k *sim.Kernel, s *diskos.System, ds workload.Dataset, res *Result) *sim.Signal {
	d := len(s.Disks)
	base := perNodeBytes(baseBytes(ds), d)
	deltas := perNodeBytes(ds.DeltaBytes, d)
	derived := perNodeBytes(ds.DerivedBytes, d)
	updates := deltas * ViewFanout // derived updates produced per disk
	deltaTupB := ds.TupleBytes

	stageRegion := alignSector(s.Disks[0].Disk.Capacity() / 3)
	derivedRegion := alignSector(2 * s.Disks[0].Disk.Capacity() / 3)

	done := sim.NewSignal()
	senders := sim.NewWaitGroup(d)
	workers := sim.NewWaitGroup(d)
	applyPhase := sim.NewBarrier(k, "mview.apply", d)

	for i := range s.Disks {
		i := i
		ad := s.Disks[i]
		peers := make([]int, 0, d-1)
		for j := 0; j < d; j++ {
			if j != i {
				peers = append(peers, j)
			}
		}
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
		// apply updates to the local derived relations.
		k.Spawn(fmt.Sprintf("mvapply%d", i), func(p *sim.Proc) {
			for {
				c, ok := ad.Recv(p)
				if !ok {
					break
				}
				t := tuplesIn(c.Bytes, deltaTupB)
				ad.Compute(p, t*AppendCycles/4)
				ad.Release(c.Bytes)
			}
			applyPhase.Wait(p)
			if i == 0 {
				res.Details["shuffle_seconds"] = p.Now().Seconds()
			}
			// Read-modify-write the derived relations.
			updPerByte := float64(updates) / float64(derived)
			var outOff int64
			chunksOf(derived, func(off, n int64) {
				ad.ReadLocal(p, derivedRegion+off, n)
				t := tuplesIn(n, deltaTupB)
				upd := int64(float64(n) * updPerByte / float64(deltaTupB))
				ad.Compute(p, t*ViewScanCycles+upd*ViewDeltaCycles)
				ad.WriteLocal(p, stageRegion+outOff, n)
				outOff += n
			})
			workers.Done()
		})
	}
	k.Spawn("closer", func(p *sim.Proc) {
		senders.Wait(p)
		for _, ad := range s.Disks {
			ad.CloseInbox()
		}
	})
	k.Spawn("coord", func(p *sim.Proc) {
		workers.Wait(p)
		done.Fire()
	})
	return done
}
