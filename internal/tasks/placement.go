package tasks

// Placement: where an Active Disk run's processes live. The tasks that
// run one process per disk (select, aggregate, groupby, dcube and
// dmine) write their bodies once against this seam and run either on
// one kernel or partitioned across a sim.ShardGroup (-procmode
// parallel), mirroring the build(cfg, hub, leaf) split that
// diskos.NewSystem and NewSystemSharded share. Sort, join and mview run
// two disklets per disk, each crossing to the hub; the shard protocol
// holds at most one call per shard, so those three run on one kernel
// in both modes and call diskos directly (shardable).
//
// Ownership contract when sharded: each disk's media, embedded CPU and
// scratch live on its own shard kernel, so a disklet spawned on
// kernel(i) may drive them directly (ReadLocal, WriteLocal, Compute).
// The loops, front-end, stream endpoints (receive-buffer credits,
// inboxes) and coordination primitives (barriers, wait groups, shared
// counters, Result.Details) live on the hub, and a disklet reaches them
// only through the seam:
//
//   - per-chunk stream touches go through the typed helpers sendFE,
//     release and recv, which call the diskos method directly on one
//     kernel and wrap it in one Shard.Call when sharded;
//   - once-per-disklet coordination (WaitGroup.Done, barrier waits,
//     folding proc-local loss counters, Details writes) goes through
//     cross, which runs its literal inline or on the hub.
//
// Shard.Call executes its function on the hub at the same virtual time
// the inline call would have, so a sharded run is byte-equivalent to
// the single-kernel event run. Hub touches that are adjacent at one
// instant share one crossing (a scan's tail flush, loss fold and
// completion mark), which keeps every sharded op at the same number of
// hub crossings.
//
// Fault plans without a drive failure shard cleanly: injection is a
// pure function of the per-disk request sequence, straggler windows
// stretch only the shard's own CPU, and loss accounting stays
// proc-local until the disklet's final crossing. A drive failure does
// not: it is an event on the disk's own shard kernel, and it can fall
// while that shard's disklet is parked in a Call, where the hub, which
// never drives a parked leaf, would stall on it. Replica failover
// would also read a peer disk on a different shard. So every plan that
// fails a disk, and the replica failover and spare rebuild that need
// one, runs on one kernel (shardable).

import (
	"howsim/internal/arch"
	"howsim/internal/diskos"
	"howsim/internal/fault"
	"howsim/internal/sim"
	"howsim/internal/workload"
)

// shardable reports whether a run can execute on a ShardGroup: an
// Active Disk configuration, a task whose body runs one hub-crossing
// process per disk (sort, join and mview run two), and no drive failure
// in the plan (the failure is a leaf-local event that can fall while
// the disk's disklet is parked in a Call, and failing over reads a
// peer shard's disk).
func shardable(task workload.TaskID, cfg arch.Config, plan *fault.Plan) bool {
	switch task {
	case workload.Sort, workload.Join, workload.MView:
		return false
	}
	return cfg.Kind == arch.KindActiveDisk && (plan == nil || plan.FailDisk < 0)
}

// placement places an Active Disk run on one kernel (g == nil) or on a
// shard group, disk i on shard i.
type placement struct {
	k *sim.Kernel     // the single kernel, or the group's hub
	g *sim.ShardGroup // the shard group; nil on one kernel
}

// hub returns the kernel the interconnect, front-end and coordinators
// live on.
func (pl *placement) hub() *sim.Kernel { return pl.k }

// kernel returns the kernel disk i's disklets run on.
func (pl *placement) kernel(i int) *sim.Kernel {
	if pl.g != nil {
		return pl.g.Shard(i).Kernel()
	}
	return pl.k
}

// run drives the placed simulation to completion. One kernel polls
// rc's context as it runs; a shard group checked it only on entry.
func (pl *placement) run(rc *runCtl) sim.Time {
	if pl.g != nil {
		return pl.g.Run()
	}
	return rc.run(pl.k)
}

// deadlockReport lists the parked processes of a run that did not
// complete, after a shard group's stall report.
func (pl *placement) deadlockReport() string {
	if pl.g != nil {
		r := pl.g.DeadlockReport()
		return pl.g.Stall() + "\n" + r
	}
	return pl.k.DeadlockReport()
}

// cross runs fn on the hub on behalf of a disklet of disk i: inline on
// one kernel, through Shard.Call when sharded. It is for once-per-
// disklet coordination; fn escapes, so per-chunk stream touches use the
// typed helpers instead, which allocate nothing on one kernel.
func (pl *placement) cross(p *sim.Proc, i int, fn func(hp *sim.Proc)) {
	if pl.g == nil {
		fn(p)
		return
	}
	pl.g.Shard(i).Call(p, fn)
}

// The typed stream helpers below keep each Shard.Call closure in a
// sharded-only function, so its captures never escape on the
// single-kernel path.

// sendFE streams n bytes from ad to the front-end.
func (pl *placement) sendFE(p *sim.Proc, ad *diskos.ActiveDisk, n int64) {
	if pl.g == nil {
		ad.SendToFrontEnd(p, n, nil)
		return
	}
	pl.sendFEOnHub(p, ad, n)
}

func (pl *placement) sendFEOnHub(p *sim.Proc, ad *diskos.ActiveDisk, n int64) {
	pl.g.Shard(ad.ID).Call(p, func(hp *sim.Proc) { ad.SendToFrontEnd(hp, n, nil) })
}

// release returns n bytes of ad's receive-buffer credit.
func (pl *placement) release(p *sim.Proc, ad *diskos.ActiveDisk, n int64) {
	if pl.g == nil {
		ad.Release(n)
		return
	}
	pl.releaseOnHub(p, ad, n)
}

func (pl *placement) releaseOnHub(p *sim.Proc, ad *diskos.ActiveDisk, n int64) {
	pl.g.Shard(ad.ID).Call(p, func(*sim.Proc) { ad.Release(n) })
}

// recv returns the next chunk from ad's inbox.
func (pl *placement) recv(p *sim.Proc, ad *diskos.ActiveDisk) (diskos.Chunk, bool) {
	if pl.g == nil {
		return ad.Recv(p)
	}
	return pl.recvOnHub(p, ad)
}

func (pl *placement) recvOnHub(p *sim.Proc, ad *diskos.ActiveDisk) (c diskos.Chunk, ok bool) {
	pl.g.Shard(ad.ID).Call(p, func(hp *sim.Proc) { c, ok = ad.Recv(hp) })
	return c, ok
}
