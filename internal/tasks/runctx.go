package tasks

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"howsim/internal/arch"
	"howsim/internal/cpu"
	"howsim/internal/disk"
	"howsim/internal/fault"
	"howsim/internal/probe"
	"howsim/internal/sim"
	"howsim/internal/workload"
)

// cancelSlice is the virtual-time quantum between request-cancellation
// polls: a cancellable run executes in RunUntil slices of this length,
// checking the context between slices. Full Table 2 runs span hundreds
// to thousands of virtual seconds, so the poll happens tens of
// thousands of times per run — cheap — while cancellation latency stays
// a tiny fraction of any run's wall time.
const cancelSlice = 10 * sim.Millisecond

// runCtl carries one run's execution controls: its execution mode and
// the optional cancellation context.
type runCtl struct {
	ctx       context.Context
	mode      ExecMode
	cancelled bool
}

// cancellable reports whether the control's context can ever be
// cancelled; plain runs (context.Background) take the unsliced path so
// their kernel execution is instruction-identical to Kernel.Run.
func (rc *runCtl) cancellable() bool { return rc.ctx != nil && rc.ctx.Done() != nil }

// run drives the kernel to completion like Kernel.Run, polling the
// request context every cancelSlice of virtual time. The sliced
// execution is event-for-event identical to a single Run call — a
// RunUntil slice never advances the clock past the last executed event
// unless later events exist, and those run in the next slice — so a
// completed cancellable run returns exactly Run's final time.
func (rc *runCtl) run(k *sim.Kernel) sim.Time {
	if !rc.cancellable() {
		return k.Run()
	}
	for {
		t, ok := k.NextEventTime()
		if !ok {
			return k.Now()
		}
		select {
		case <-rc.ctx.Done():
			rc.cancelled = true
			return k.Now()
		default:
		}
		k.RunUntil(t + cancelSlice)
	}
}

// machine is one architecture as the runner sees it: the Active Disk
// system, cluster or SMP of a configuration, and what differs by
// architecture around the one run scaffold.
type machine interface {
	// Rebuild builds the machine again, in place, on k.
	Rebuild(k *sim.Kernel)
	// InstallFaults applies plan's faults; a nil plan is a no-op.
	InstallFaults(plan *fault.Plan)
	// start spawns the body that runs task and returns the signal it
	// fires once the task is done.
	start(task workload.TaskID, pl *placement, ds workload.Dataset, res *Result,
		plan *fault.Plan, deg *degrade) *sim.Signal
	// finish records the architecture's own Details keys once the run
	// is over.
	finish(res *Result, deg *degrade)
	// units lists the disks and CPUs whose fault counters the fault
	// report sums.
	units() ([]*disk.Disk, []*cpu.CPU)
}

// newMachine builds cfg's machine on k.
func newMachine(cfg arch.Config, k *sim.Kernel) machine {
	switch cfg.Kind {
	case arch.KindActiveDisk:
		return activeMachine{cfg.BuildActive(k)}
	case arch.KindCluster:
		return clusterMachine{cfg.BuildCluster(k)}
	case arch.KindSMP:
		return smpMachine{cfg.BuildSMP(k)}
	}
	panic(fmt.Sprintf("tasks: unknown architecture %v", cfg.Kind))
}

// pair is a kernel, or a shard group, and the machine of one shape
// last built on it. Runs take pairs from a pool per shape: a
// single-kernel run a kernel, a sharded one a group with its sharded
// Active Disk system. An idle pair holds no goroutine, no simulated
// state and no reference to the run that last used it, only the
// storage that run grew — each kernel's event slab, task pool and
// process records, and the machine's components with their queues,
// free lists and pooled records — which the next run of that shape
// reuses instead of allocating it again.
type pair struct {
	key poolKey
	k   *sim.Kernel     // the single kernel, or the group's hub
	g   *sim.ShardGroup // the shard group; nil on one kernel
	m   machine
	// running is set while the simulation runs: a group whose Run
	// panics may leave leaves running, so release drops it.
	running bool
	aged    bool // idle through a whole GC cycle: the next sweep drops it
}

// poolKey is a pool's shape: the full arch.Config, and whether its
// pairs are shard groups.
type poolKey struct {
	cfg     arch.Config
	sharded bool
}

// pairPools holds each shape's idle pairs. A pair is in at most one
// pool and taken by one run at a time. Every GC cycle sweeps the pools,
// dropping the pairs that sat idle since the previous cycle (as
// sync.Pool drops its victims), so the pairs of shapes no longer run
// are freed. sync.Pool itself keeps a returned object in the returning
// P's private slot, where a run on another P cannot reach it; with a
// pair or two per shape that missed about half the reuses on two cores.
var pairPools struct {
	sync.Mutex
	m map[poolKey][]*pair
}

// gcTick's finalizer runs once per GC cycle: it sweeps the pools and
// arms itself again.
type gcTick struct{ _ *int }

func init() { runtime.SetFinalizer(&gcTick{}, sweepPairs) }

// sweepPairs drops every pool's aged pairs, marks the rest aged, and
// forgets shapes left with no pair.
func sweepPairs(t *gcTick) {
	pairPools.Lock()
	for key, ps := range pairPools.m {
		if ps = sweep(ps); len(ps) == 0 {
			delete(pairPools.m, key)
		} else {
			pairPools.m[key] = ps
		}
	}
	pairPools.Unlock()
	runtime.SetFinalizer(t, sweepPairs)
}

// sweep drops the aged pairs of ps and marks the others aged.
func sweep(ps []*pair) []*pair {
	n := 0
	for _, p := range ps {
		if !p.aged {
			p.aged = true
			ps[n] = p
			n++
		}
	}
	clear(ps[n:])
	return ps[:n]
}

// newKernel and newShardGroup make the kernel or group of a new pair,
// and newLeafSink a leaf's sink for one sharded run.
var (
	newKernel     = sim.NewKernel
	newShardGroup = sim.NewShardGroup
	newLeafSink   = probe.NewSinkCap
)

// takePair takes an idle pair of cfg's shape, a shard group when
// sharded, or makes one. It attaches sink to the kernel, or to the
// group's hub with a leaf sink of the same ring capacity and enable
// state on each leaf (sinks are single-threaded), and builds the
// machine, so that every component registers in build order. It
// returns the leaf sinks, which the caller merges into sink after the
// run. Pass the pair to release when the run is over.
func takePair(cfg arch.Config, sharded bool, sink *probe.Sink) (*pair, []*probe.Sink) {
	key := poolKey{cfg, sharded}
	pairPools.Lock()
	var p *pair
	if ps := pairPools.m[key]; len(ps) > 0 {
		p = ps[len(ps)-1]
		ps[len(ps)-1] = nil
		pairPools.m[key] = ps[:len(ps)-1]
	}
	pairPools.Unlock()
	switch {
	case p != nil:
	case sharded:
		g := newShardGroup(cfg.Disks)
		p = &pair{key: key, k: g.Hub(), g: g}
	default:
		p = &pair{key: key, k: newKernel()}
	}
	p.k.SetProbe(sink)
	var leafSinks []*probe.Sink
	if p.g != nil && sink != nil {
		leafSinks = make([]*probe.Sink, p.g.Shards())
		for i := range leafSinks {
			ls := newLeafSink(sink.RingCap())
			ls.SetEnabled(sink.Enabled())
			leafSinks[i] = ls
			p.g.Shard(i).Kernel().SetProbe(ls)
		}
	}
	p.build()
	return p, leafSinks
}

// build builds the pair's machine on its kernel or group: New the first
// time, Rebuild (the same constructor, in place) after that.
func (p *pair) build() {
	switch {
	case p.m == nil && p.g != nil:
		p.m = activeMachine{p.key.cfg.BuildActiveSharded(p.g)}
	case p.m == nil:
		p.m = newMachine(p.key.cfg, p.k)
	case p.g != nil:
		p.m.(activeMachine).RebuildSharded(p.g)
	default:
		p.m.Rebuild(p.k)
	}
}

// recycle unwinds every process still parked on the pair's kernels (a
// cluster's MPI dispatchers after a completed run, any process of an
// abandoned one), releases their coroutines and recycles the kernels.
func (p *pair) recycle() {
	if p.g != nil {
		p.g.Recycle()
		return
	}
	p.k.Shutdown()
	p.k.Recycle()
}

// release tears a pair down once its run is over, completed, cancelled
// or panicking, and returns it to its shape's pool, so a run frees its
// simulation resources as it returns. Probe recording is suppressed for
// the teardown so unwinding defers cannot emit into the caller's sink:
// a completed run's trace is the same as without it. The machine is
// then rebuilt bare on the recycled kernels, with no probe and no fault
// plan, which drops every reference it held into the run: its probe
// handles into the sinks, its fault state into the plan, the records
// left in its queues. That rebuild's own tasks and events are recycled
// too. A group whose Run panicked is dropped instead: its leaves may
// still be running.
func (p *pair) release() {
	if p.g != nil && p.running {
		return
	}
	if s := p.k.Probe(); s.Enabled() {
		s.SetEnabled(false)
		defer s.SetEnabled(true)
	}
	p.recycle()
	p.build()
	p.recycle()
	p.running, p.aged = false, false
	pairPools.Lock()
	if pairPools.m == nil {
		pairPools.m = map[poolKey][]*pair{}
	}
	pairPools.m[p.key] = append(pairPools.m[p.key], p)
	pairPools.Unlock()
}

// RunCtx is the simulation entry point: it executes one task on cfg
// over ds. A non-nil plan injects deterministic faults and attaches
// their recovery report as Result.Fault; a nil or empty plan leaves
// every simulated event untouched. Under a plan, a run that cannot
// finish (e.g. a failed disk with no replica in a task that has no
// degraded path) is reported as a deadlock in the FaultReport instead
// of panicking. A non-nil sink is attached to the run's kernel: every
// model component registers with (and, when the sink is enabled,
// emits into) it, and the task's phase timeline is recorded at
// completion. The mode is explicit, so concurrent callers may run
// different -procmode settings side by side. A run takes an idle pair
// of its shape — a kernel, or for a sharded run a shard group, and the
// machine last built on it — and rebuilds the machine in place through
// the constructor New runs. An idle pair holds no goroutine and no
// simulated state, only storage, so a run's bytes do not depend on
// which runs came before it.
//
// RunCtx honors ctx cancellation and deadlines mid-run. On
// cancellation it returns ctx.Err() after unwinding the partial
// simulation; with a context that cannot be cancelled it never
// errors. No parked process or its goroutine survives a run, completed
// or abandoned. A completed run is byte-identical whatever the
// context: Details, Elapsed, fault reports and probe emissions do not
// depend on whether (or how often) the context was polled.
//
// One restriction: sharded execution (ModeParallel on a shardable
// task) checks ctx only on entry; once its partitions are running the
// run completes before cancellation is reported. Single-kernel runs
// cancel mid-run with cancelSlice granularity.
func RunCtx(ctx context.Context, cfg arch.Config, task workload.TaskID, ds workload.Dataset,
	plan *fault.Plan, sink *probe.Sink, mode ExecMode) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if plan != nil && plan.Empty() {
		plan = nil
	}
	res := &Result{
		Task:      task,
		Config:    cfg,
		Breakdown: sim.NewBreakdown(),
		Details:   map[string]float64{},
	}
	rc := &runCtl{ctx: ctx, mode: mode}
	runTask(cfg, task, ds, res, plan, sink, rc)
	if rc.cancelled {
		return nil, ctx.Err()
	}
	return res, nil
}

// runTask executes one task on any architecture on a pooled pair: a
// kernel, or, for a shardable Active Disk run under ModeParallel, a
// shard group whose kernels each record into their own sink. It
// installs the plan's faults, starts the machine's body for the task,
// runs it, and fills res with the machine's Details, the fault report
// and the phase timeline.
func runTask(cfg arch.Config, task workload.TaskID, ds workload.Dataset, res *Result,
	plan *fault.Plan, sink *probe.Sink, rc *runCtl) {
	mp, leafSinks := takePair(cfg, rc.mode == ModeParallel && shardable(task, cfg, plan), sink)
	defer mp.release()
	pl, m := placement{k: mp.k, g: mp.g}, mp.m
	m.InstallFaults(plan)
	deg := &degrade{}
	done := m.start(task, &pl, ds, res, plan, deg)
	mp.running = true
	res.Elapsed = pl.run(rc)
	mp.running = false
	if rc.cancelled {
		return
	}
	completed := done.Fired()
	var deadlock string
	if !completed {
		deadlock = pl.deadlockReport()
		if plan == nil {
			panic(fmt.Sprintf("tasks: %v on %s deadlocked at %v\n%s", task, cfg.Name(), res.Elapsed, deadlock))
		}
	}
	m.finish(res, deg)
	if plan != nil {
		disks, cpus := m.units()
		faultEpilogue(res, plan, deg, completed, deadlock, disks, cpus)
	}
	for _, ls := range leafSinks {
		sink.Merge(ls)
	}
	probeEpilogue(res, pl.hub())
}
