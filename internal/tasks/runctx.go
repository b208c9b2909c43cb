package tasks

import (
	"context"
	"fmt"
	"sync"

	"howsim/internal/arch"
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

// kernels pools the kernels of single-kernel runs. A pooled kernel has
// been shut down and recycled (sim.Kernel.Recycle): it holds no
// goroutine, no simulated state and no reference to the run that last
// used it, only the storage that run grew — the event slab, the bare
// task pool and the process records — which the next run reuses
// instead of allocating it again.
var kernels = &sync.Pool{New: func() any { return sim.NewKernel() }}

// newKernel takes a kernel for one run from the pool. Pass it to release
// when the run is over.
func newKernel() *sim.Kernel { return kernels.Get().(*sim.Kernel) }

// release tears down a kernel once its run is over, completed or
// cancelled, and returns it to the pool: every process still parked (a
// cluster's MPI dispatchers after a completed run, any process of an
// abandoned one) is unwound and its coroutine released, so a run frees
// its simulation resources as it returns. Probe recording is suppressed
// for the teardown so unwinding defers cannot emit into the caller's
// sink: a completed run's trace is the same as without it.
func release(k *sim.Kernel) {
	if s := k.Probe(); s.Enabled() {
		s.SetEnabled(false)
		defer s.SetEnabled(true)
	}
	k.Shutdown()
	k.Recycle()
	kernels.Put(k)
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
// different -procmode settings side by side. A single-kernel run takes
// its kernel from a pool whose kernels hold no goroutine and no
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
	switch cfg.Kind {
	case arch.KindActiveDisk:
		runActive(cfg, task, ds, res, plan, sink, rc)
	case arch.KindCluster:
		runCluster(cfg, task, ds, res, plan, sink, rc)
	case arch.KindSMP:
		runSMP(cfg, task, ds, res, plan, sink, rc)
	default:
		panic(fmt.Sprintf("tasks: unknown architecture %v", cfg.Kind))
	}
	if rc.cancelled {
		return nil, ctx.Err()
	}
	return res, nil
}
