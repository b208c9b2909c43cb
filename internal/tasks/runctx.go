package tasks

import (
	"context"
	"fmt"

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

// runCtl carries one run's execution controls: the explicit mode (the
// concurrency-safe replacement for consulting sim.DefaultExecMode
// mid-run) and the optional cancellation context.
type runCtl struct {
	ctx       context.Context
	mode      sim.ExecMode
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

// release tears down a kernel once its run is over, completed or
// cancelled: every process still parked (a cluster's MPI dispatchers
// after a completed run, any process of an abandoned one) is unwound
// and its coroutine released, so a run frees its simulation resources
// as it returns. Probe recording is suppressed for the teardown so
// unwinding defers cannot emit into the caller's sink: a completed
// run's trace is the same as without it.
func release(k *sim.Kernel) {
	if s := k.Probe(); s.Enabled() {
		s.SetEnabled(false)
		defer s.SetEnabled(true)
	}
	k.Shutdown()
}

// RunCtx is the context-aware simulation entry point: it executes one
// task like RunDatasetProbed but with an explicit execution mode (no
// global state is consulted, so concurrent callers may run different
// -procmode settings side by side) and honors ctx cancellation and
// deadlines mid-run. On cancellation it returns ctx.Err() after
// unwinding the partial simulation. No parked process or its goroutine
// survives a run, completed or abandoned.
//
// A completed run is byte-identical to the same run through the plain
// entry points: Details, Elapsed, fault reports and probe emissions do
// not depend on whether (or how often) the context was polled.
//
// One restriction: sharded execution (ModeParallel on a shardable
// task) checks ctx only on entry; once its partitions are running the
// run completes before cancellation is reported. The single-kernel
// modes cancel mid-run with cancelSlice granularity.
func RunCtx(ctx context.Context, cfg arch.Config, task workload.TaskID, ds workload.Dataset,
	plan *fault.Plan, sink *probe.Sink, mode sim.ExecMode) (*Result, error) {
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
