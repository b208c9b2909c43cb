package tasks

// The exchange seam: how bytes leave a shared-nothing node. An Active
// Disk and a cluster node both scan their own disk with their own
// processor and differ only in the way out: diskos streams to peers and
// to the front-end, against MPI messages and scan output written to the
// node's own disk. Each machine builds one exchange for a run, and the
// bodies whose event order is the same on both architectures are
// written once against it. DESIGN.md §6f lists the bodies left paired,
// and why.

import (
	"fmt"

	"howsim/internal/cluster"
	"howsim/internal/disk"
	"howsim/internal/diskos"
	"howsim/internal/fault"
	"howsim/internal/mpi"
	"howsim/internal/sim"
	"howsim/internal/workload"
)

// exchange is a machine's way out of its nodes for one run. Each
// method acts for node i.
type exchange interface {
	// home is node i's own disk and processor.
	home(i int) node
	// send ships bytes to the next peer of node i's rotation.
	send(p *sim.Proc, i int, bytes int64)
	// done ends node i's round of sends: its peers learn that it has
	// sent everything, and its rotation starts over.
	done(p *sim.Proc, i int)
	// emit takes n bytes of node i's scan output produced on src (its
	// own disk, or the peer holding its replica), placed at bytes into
	// what src holds for node i, and returns where the next output goes.
	emit(p *sim.Proc, i int, src node, at, n int64) int64
	// lose records n bytes node i's scan could not read.
	lose(p *sim.Proc, i int, n int64)
	// end flushes what node i's scan left, then folds its loss.
	end(p *sim.Proc, i int, e scanEnd)
}

// scanEnd is what a node's scan leaves for its final step: output
// pending on src (which holds at bytes of it already), the bytes owed
// to the front-end, and the loss that folds into deg before the scan
// marks wg.
type scanEnd struct {
	src                            node
	at, pend, final, lost, replica int64
	deg                            *degrade
	wg                             *sim.WaitGroup
}

func (e scanEnd) fold() {
	e.deg.lost += e.lost
	e.deg.replica += e.replica
	e.wg.Done()
}

// remoteShare is the part of n bytes a node ships to its d-1 peers
// under an even hash repartition.
func remoteShare(n int64, d int) int64 { return n * int64(d-1) / int64(d) }

// recoveringScan is select and aggregate on d nodes: every node scans
// its partition and emits select's matches in flushBatch batches, or
// owes the front-end aggregate's 512-byte partial.
//
// Recovery: a hard media error loses just that chunk; a failed drive
// either hands the rest of the partition to the replica copy on the
// next node (when the plan declares replicas; that node's disk,
// processor and buses then do double duty, and a plan that fails a
// disk never shards) or abandons the remainder, which is reported as
// lost bytes. Loss accumulates proc-locally and folds into deg in the
// scan's final step. The fault-free path issues exactly the same
// simulated events as before the fault plumbing existed.
func recoveringScan(pl *placement, x exchange, d int, capEach int64, task workload.TaskID,
	ds workload.Dataset, plan *fault.Plan, deg *degrade) *sim.Signal {
	per := perNodeBytes(ds.TotalBytes, d)
	deg.total = per * int64(d)
	replicaRegion := replicaRegionOf(capEach)
	wg := sim.NewWaitGroup(d)
	for i := range d {
		pl.kernel(i).Spawn(fmt.Sprintf("scan%d", i), func(p *sim.Proc) {
			cycles, outFraction, finalBytes := int64(SelectCycles), ds.Selectivity, int64(0)
			if task == workload.Aggregate {
				cycles, outFraction, finalBytes = AggregateCycles, 0, 512
			}
			src, base, at := x.home(i), int64(0), int64(0)
			var pend, lost, replica int64
			for off := int64(0); off < per; {
				n := int64(ioChunk)
				if per-off < n {
					n = alignSector(per - off)
				}
				err := src.ReadLocal(p, base+off, n)
				if err == disk.ErrDiskFailed {
					if plan != nil && plan.Replica && d > 1 && base == 0 {
						// Retry the same chunk on the replica copy.
						src, base, at = x.home((i+1)%d), replicaRegion, 0
						continue
					}
					lost += per - off
					x.lose(p, i, per-off)
					break
				}
				if err != nil {
					// Unrecoverable sector: this chunk is lost, the scan
					// continues.
					lost += n
					x.lose(p, i, n)
				} else {
					if base != 0 {
						replica += n
					}
					src.Compute(p, tuplesIn(n, ds.TupleBytes)*cycles)
					pend += int64(float64(n) * outFraction)
					if pend >= flushBatch {
						at = x.emit(p, i, src, at, pend)
						pend = 0
					}
				}
				off += n
			}
			x.end(p, i, scanEnd{src, at, pend, finalBytes, lost, replica, deg, wg})
		})
	}
	return coord(pl.hub(), wg, nil)
}

// partitionRuns is sort's partition loop on node i of d: it scans per
// bytes, ships each chunk's remote share, hands the local share to keep
// and ends the round. It returns the partition cycles charged.
func partitionRuns(p *sim.Proc, x exchange, i, d int, per int64, tupleBytes int,
	keep func(local int64)) (cycles int64) {
	nd := x.home(i)
	chunksOf(per, func(off, n int64) {
		nd.ReadLocal(p, off, n)
		t := tuplesIn(n, tupleBytes)
		nd.Compute(p, t*PartitionCycles)
		cycles += t * PartitionCycles
		remote := remoteShare(n, d)
		if remote > 0 {
			x.send(p, i, remote)
		}
		keep(n - remote)
	})
	x.done(p, i)
	return cycles
}

// joinShares splits the join's relations R and S across d nodes: each
// node's bytes of R and S, of their sector-aligned projections, and the
// projected fraction of a tuple.
func joinShares(ds workload.Dataset, d int) (perR, perS, projR, projS int64, projFrac float64) {
	rBytes := ds.TotalBytes / 2
	perR, perS = perNodeBytes(rBytes, d), perNodeBytes(ds.TotalBytes-rBytes, d)
	projFrac = float64(ds.ProjectedTupleBytes) / float64(ds.TupleBytes)
	return perR, perS, alignSector(int64(float64(perR) * projFrac)), alignSector(int64(float64(perS) * projFrac)), projFrac
}

// shuffleProjected is one round of the join shuffle on node i of d: it
// scans per bytes of a relation, projects each chunk, ships the remote
// share of the projected tuples and ends the round.
func shuffleProjected(p *sim.Proc, x exchange, i, d int, per int64, tupleBytes int, projFrac float64) {
	nd := x.home(i)
	chunksOf(per, func(off, n int64) {
		nd.ReadLocal(p, off, n)
		nd.Compute(p, tuplesIn(n, tupleBytes)*ProjectCycles)
		if remote := remoteShare(int64(float64(n)*projFrac), d); remote > 0 {
			x.send(p, i, remote)
		}
	})
	x.done(p, i)
}

// viewShares splits view maintenance across d nodes: each node's base,
// delta and derived bytes, and the derived updates it produces.
func viewShares(ds workload.Dataset, d int) (base, deltas, derived, updates int64) {
	deltas = perNodeBytes(ds.DeltaBytes, d)
	return perNodeBytes(baseBytes(ds), d), deltas, perNodeBytes(ds.DerivedBytes, d), deltas * ViewFanout
}

// produceViews is mview's producer on node i of d: it shuffles its
// deltas to the base owners, scans base bytes probing the repartitioned
// delta table, ships the derived updates to the view owners as they
// accumulate, and ends the round.
func produceViews(p *sim.Proc, x exchange, i, d int, deltas, base, updates int64, tupleBytes int) {
	nd := x.home(i)
	chunksOf(deltas, func(off, n int64) {
		nd.ReadLocal(p, off, n)
		nd.Compute(p, tuplesIn(n, tupleBytes)*PartitionCycles/3)
		if remote := remoteShare(n, d); remote > 0 {
			x.send(p, i, remote)
		}
	})
	baseStart := alignSector(deltas) // base follows the deltas in the input region
	perChunkUpd := float64(updates) / float64(base)
	var pendUpd float64
	chunksOf(base, func(off, n int64) {
		nd.ReadLocal(p, baseStart+off, n)
		nd.Compute(p, tuplesIn(n, tupleBytes)*ViewProbeCycles)
		pendUpd += float64(n) * perChunkUpd
		if int64(pendUpd) >= flushBatch {
			x.send(p, i, remoteShare(int64(pendUpd), d))
			pendUpd = 0
		}
	})
	if int64(pendUpd) > 0 {
		x.send(p, i, remoteShare(int64(pendUpd), d))
	}
	x.done(p, i)
}

// activeExchange is the Active Disks' way out: diskos streams to each
// disk's peers in ascending disk order, skipping itself, and scan
// output to the front-end. A disk's round ends at that round's
// WaitGroup; spawnCloser closes the inboxes once every round is done.
type activeExchange struct {
	pl     *placement
	s      *diskos.System
	rounds []*sim.WaitGroup // each round's senders, in order
	peers  []activePeers    // made only when there are rounds to send in
}

// activePeers is one disk's place in its rotation and in the rounds.
type activePeers struct{ rot, round int }

// activeExchanges builds the exchange of s's disks. A scan registers the
// recovery ref on each disk's own kernel sink only under a plan, so a
// fault-free trace has no recovery component; peer sends end at rounds.
func activeExchanges(pl *placement, s *diskos.System, plan *fault.Plan, rounds ...*sim.WaitGroup) *activeExchange {
	if plan != nil {
		for i := range s.Disks {
			pl.kernel(i).Probe().Register("recovery", "scan").KindNamed("degraded_skip")
		}
	}
	x := &activeExchange{pl: pl, s: s, rounds: rounds}
	if len(rounds) > 0 {
		x.peers = make([]activePeers, len(s.Disks))
	}
	return x
}

func (x *activeExchange) home(i int) node { return x.s.Disks[i] }

// send streams whatever it is given, so mview's tail goes out even when
// its remote share rounds to no bytes.
func (x *activeExchange) send(p *sim.Proc, i int, bytes int64) {
	d := len(x.s.Disks)
	if d < 2 {
		return
	}
	r := &x.peers[i]
	peer := r.rot
	if peer >= i {
		peer++
	}
	x.s.Disks[i].Send(p, peer, bytes, nil)
	r.rot = (r.rot + 1) % (d - 1)
}

func (x *activeExchange) done(_ *sim.Proc, i int) {
	r := &x.peers[i]
	x.rounds[r.round].Done()
	r.rot, r.round = 0, r.round+1
}

func (x *activeExchange) emit(p *sim.Proc, _ int, src node, at, n int64) int64 {
	x.pl.sendFE(p, src.(*diskos.ActiveDisk), n)
	return at
}

// lose records a degraded_skip span on the recovery ref that
// activeExchanges registered.
func (x *activeExchange) lose(p *sim.Proc, i int, n int64) {
	if r := x.pl.kernel(i).Probe().Register("recovery", "scan"); r.On() {
		r.SpanArg(r.KindNamed("degraded_skip"), int64(p.Now()), int64(p.Now()), n)
	}
}

// end streams the tail and the final bytes from the disk the scan
// ended on. The flushes, the loss fold and the completion mark are all
// hub work at one instant: one crossing.
func (x *activeExchange) end(p *sim.Proc, i int, e scanEnd) {
	x.pl.cross(p, i, func(hp *sim.Proc) {
		src := e.src.(*diskos.ActiveDisk)
		if e.pend > 0 {
			src.SendToFrontEnd(hp, e.pend, nil)
		}
		if e.final > 0 {
			src.SendToFrontEnd(hp, e.final, nil)
		}
		e.fold()
	})
}

// spawnCloser closes every inbox once each round's senders are done.
func spawnCloser(k *sim.Kernel, s *diskos.System, rounds ...*sim.WaitGroup) {
	k.Spawn("closer", func(p *sim.Proc) {
		for _, wg := range rounds {
			wg.Wait(p)
		}
		for _, ad := range s.Disks {
			ad.CloseInbox()
		}
	})
}

// clusterExchange is a cluster's way out: MPI sends from node i to its
// peers i+1, i+2, ... (mod d), at most sendWindow in flight, and scan
// output written to the disk that produced it. A round ends with a
// tagDone to every peer, whose receiver counts them. A scan sends to no
// peer, so its exchange has no peers.
type clusterExchange struct {
	m     *cluster.Machine
	peers []clusterPeers
}

// clusterPeers is one node's place in its rotation and its sends in
// flight.
type clusterPeers struct {
	rot int
	w   *mpi.Window
}

func (x *clusterExchange) home(i int) node { return x.m.Nodes[i] }

func (x *clusterExchange) send(p *sim.Proc, i int, bytes int64) {
	d := len(x.m.Nodes)
	if bytes <= 0 || d < 2 {
		return
	}
	r := &x.peers[i]
	if r.w == nil {
		r.w = mpi.NewWindow(sendWindow)
	}
	dst := (i + 1 + r.rot) % d
	r.rot = (r.rot + 1) % (d - 1)
	r.w.Add(p, x.m.Nodes[i].Endpoint().Isend(p, dst, tagData, bytes, nil))
}

// done waits out node i's sends in flight, then tells each peer.
func (x *clusterExchange) done(p *sim.Proc, i int) {
	r := &x.peers[i]
	if r.w != nil {
		r.w.Drain(p)
	}
	for j := range x.m.Nodes {
		if j != i {
			x.m.Nodes[i].Endpoint().Send(p, j, tagDone, 0, nil)
		}
	}
	r.rot = 0
}

// emit keeps select's result relation on the cluster rather than
// pushing it through the front-end's 100 Mb/s link.
func (x *clusterExchange) emit(p *sim.Proc, i int, src node, at, n int64) int64 {
	src.WriteLocal(p, x.outRegion(i, src)+at, alignSector(n))
	return at + alignSector(n)
}

// outRegion is where src writes node i's scan output: its own output
// region or, on the peer that took over after a failover (a cluster
// host can only address its own disk), a region above the replica copy,
// clear of the peer's own output range.
func (x *clusterExchange) outRegion(i int, src node) int64 {
	capEach := x.m.Nodes[0].Disk.Capacity()
	if src != node(x.m.Nodes[i]) {
		return alignSector(11 * capEach / 12)
	}
	return alignSector(2 * capEach / 3)
}

func (x *clusterExchange) lose(*sim.Proc, int, int64) {}

// end writes the tail on the disk the scan ended on and sends the
// final bytes from the node's own endpoint.
func (x *clusterExchange) end(p *sim.Proc, i int, e scanEnd) {
	if e.pend > 0 {
		e.src.WriteLocal(p, x.outRegion(i, e.src)+e.at, alignSector(e.pend))
	}
	if e.final > 0 {
		x.m.Nodes[i].Endpoint().Send(p, x.m.FERank, tagResult, e.final, nil)
	}
	e.fold()
}
