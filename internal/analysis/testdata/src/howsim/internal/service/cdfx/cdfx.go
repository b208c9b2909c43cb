// Fixture for ctxdiscipline in the service tier: both rules apply
// here — no direct kernel execution, and ctx-taking loops must poll.
package cdfx

import (
	"context"

	"howsim/internal/sim"
	"howsim/internal/tasks"
)

func process(v int)                     {}
func handle(ctx context.Context, v int) {}

// Rule 1: direct kernel execution.
func badDirect(k *sim.Kernel, g *sim.ShardGroup) {
	k.Run()        // want `direct Kernel\.Run call in the service tier: route simulation execution through tasks\.RunCtx`
	k.RunUntil(10) // want `direct Kernel\.RunUntil call in the service tier`
	g.Run()        // want `direct ShardGroup\.Run call in the service tier`
}

// Rule 1: context-free tasks entry points.
func badTasks(ctx context.Context, cfg any) {
	tasks.Run(cfg)             // want `tasks\.Run executes a simulation without a context; the service tier must call tasks\.RunCtx`
	tasks.RunDataset(cfg, nil) // want `tasks\.RunDataset executes a simulation without a context`
	tasks.RunCtx(ctx, cfg)     // ok: the sanctioned entry point
}

// Rule 2: a ctx-taking function looping over work without polling.
func badLoop(ctx context.Context, items []int) {
	for _, it := range items { // want `loop in badLoop calls out without polling its context`
		process(it)
	}
}

// Accepting a context and discarding it is the same failure.
func badBlank(_ context.Context, items []int) {
	for _, it := range items { // want `loop in badBlank calls out without polling its context`
		process(it)
	}
}

// ctx.Err() each iteration satisfies the rule.
func okErrPoll(ctx context.Context, items []int) error {
	for _, it := range items {
		if err := ctx.Err(); err != nil {
			return err
		}
		process(it)
	}
	return nil
}

// Selecting on ctx.Done() satisfies the rule.
func okSelectDone(ctx context.Context, ch chan int) {
	for {
		select {
		case <-ctx.Done():
			return
		case v := <-ch:
			process(v)
		}
	}
}

// Passing the context to the callee delegates the discipline.
func okPassesCtx(ctx context.Context, items []int) {
	for _, it := range items {
		handle(ctx, it)
	}
}

// A pure computational loop needs no interruption point.
func okNoCalls(ctx context.Context, items []int) int {
	s := 0
	for _, it := range items {
		s += it
	}
	_ = ctx
	return s
}

// No context parameter, no obligation.
func okNoCtxParam(items []int) {
	for _, it := range items {
		process(it)
	}
}

// The poll may live in a nested loop: the outer loop contains it.
func okNested(ctx context.Context, batches [][]int) error {
	for _, b := range batches {
		for _, it := range b {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			process(it)
		}
	}
	return nil
}

// Function literals are judged by their own signatures, not the
// enclosing function's.
func okLitOwnScope(ctx context.Context) func() {
	_ = ctx
	return func() {
		for i := 0; i < 3; i++ {
			process(i)
		}
	}
}

func badLit() {
	f := func(ctx context.Context, items []int) {
		for _, it := range items { // want `loop in func literal calls out without polling its context`
			process(it)
		}
	}
	f(context.Background(), nil)
}

// Reviewed exemptions.
func allowedDirect(k *sim.Kernel) {
	k.Run() //howsim:allow ctxdiscipline -- startup warm-up run before the listener opens, no request attached
}

func allowedLoop(ctx context.Context, items []int) {
	_ = ctx
	//howsim:allow ctxdiscipline -- items is bounded by the admission queue depth, total work is microseconds
	for _, it := range items {
		process(it)
	}
}
