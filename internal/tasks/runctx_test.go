package tasks

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"howsim/internal/arch"
	"howsim/internal/workload"
)

// TestRunCtxMatchesPlainRun checks the sliced, cancellable execution
// path is event-for-event identical to the plain entry point: same
// elapsed virtual time, same details, on every architecture.
func TestRunCtxMatchesPlainRun(t *testing.T) {
	ds := scaled(workload.Sort, 48<<20)
	for _, cfg := range []arch.Config{arch.ActiveDisks(4), arch.Cluster(4), arch.SMP(4)} {
		// A context with a deadline takes the sliced path but never
		// actually cancels.
		ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
		got, err := RunCtx(ctx, cfg, workload.Sort, ds, nil, nil, ModeEvent)
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name(), err)
		}
		want, err := RunCtx(context.Background(), cfg, workload.Sort, ds, nil, nil, ModeEvent)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name(), err)
		}
		if got.Elapsed != want.Elapsed {
			t.Errorf("%s: sliced elapsed %v != plain %v", cfg.Name(), got.Elapsed, want.Elapsed)
		}
		if len(got.Details) != len(want.Details) {
			t.Fatalf("%s: details diverged: %v vs %v", cfg.Name(), got.Details, want.Details)
		}
		for k, v := range want.Details {
			if got.Details[k] != v {
				t.Errorf("%s: detail %s = %g, want %g", cfg.Name(), k, got.Details[k], v)
			}
		}
	}
}

// TestRunCtxConcurrentModes backs RunCtx's promise that concurrent
// callers may run different execution modes side by side: the same
// shardable run at ModeEvent and at ModeParallel, started from two
// goroutines at once, must each reproduce a sequential event run's
// elapsed time and details. The CI race job covers the overlap.
func TestRunCtxConcurrentModes(t *testing.T) {
	cfg, ds := arch.ActiveDisks(8), scaled(workload.Select, 48<<20)
	want := simulate(cfg, workload.Select, ds, nil, ModeEvent)
	modes := []ExecMode{ModeEvent, ModeParallel}
	got := make([]*Result, len(modes))
	var wg sync.WaitGroup
	for i, mode := range modes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = simulate(cfg, workload.Select, ds, nil, mode)
		}()
	}
	wg.Wait()
	for i, mode := range modes {
		if got[i].Elapsed != want.Elapsed {
			t.Errorf("%v: elapsed = %v, want %v", mode, got[i].Elapsed, want.Elapsed)
		}
		if fmt.Sprint(got[i].Details) != fmt.Sprint(want.Details) {
			t.Errorf("%v: details diverged:\n got  %v\n want %v", mode, got[i].Details, want.Details)
		}
	}
}

// TestRunCtxPreCancelled checks an already-dead context is rejected
// before any simulation work happens.
func TestRunCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunCtx(ctx, arch.ActiveDisks(4), workload.Select, scaled(workload.Select, 16<<20),
		nil, nil, ModeEvent)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("got a result from a cancelled run: %v", res)
	}
}

// pollCancelCtx is a context that cancels itself on its nth Done call.
// runCtl.run polls Done once per cancelSlice of virtual time, so the
// cancellation lands at a fixed point in the simulation however fast
// the host runs it.
type pollCancelCtx struct {
	context.Context
	polls, n int
	done     chan struct{}
}

func newPollCancelCtx(n int) *pollCancelCtx {
	return &pollCancelCtx{Context: context.Background(), n: n, done: make(chan struct{})}
}

func (c *pollCancelCtx) Done() <-chan struct{} {
	if c.polls++; c.polls == c.n {
		close(c.done)
	}
	return c.done
}

func (c *pollCancelCtx) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// TestRunCtxCancelMidRunFreesWorkers cancels a simulation while it is
// executing and checks (a) the cancellation error surfaces and (b) the
// abandoned kernel's parked processes are unwound — no goroutines leak,
// per kernel.Shutdown's contract. This is the worker-freeing guarantee
// the service's admission control relies on.
func TestRunCtxCancelMidRunFreesWorkers(t *testing.T) {
	const polls = 20 // one cancellable check, then one poll per cancelSlice
	base := runtime.NumGoroutine()
	ctx := newPollCancelCtx(polls)
	_, err := RunCtx(ctx, arch.ActiveDisks(4), workload.Sort, scaled(workload.Sort, 96<<20),
		nil, nil, ModeEvent)
	if err == nil {
		t.Fatalf("run completed within %d cancellation polls", polls)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ctx.polls != polls {
		t.Fatalf("Done polled %d times, want %d: the run must stop at the poll that cancels", ctx.polls, polls)
	}
	if n := settledGoroutines(base); n > base {
		t.Fatalf("goroutines leaked after cancellation: %d live, want <= %d", n, base)
	}
}

// settledGoroutines waits up to two seconds for the goroutine count to
// fall to base and returns the last count seen. Goroutines that have
// already signalled their exit (a sharded run's leaf loops, an unwound
// process) still count until they return, and Go cannot join them; a
// leaked goroutine never returns and still fails the caller's check.
func settledGoroutines(base int) int {
	deadline := time.Now().Add(2 * time.Second)
	n := runtime.NumGoroutine()
	for n > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestRunCtxCompletedRunLeavesNoGoroutines runs every task on every
// architecture to completion, on one kernel and sharded, and checks the
// goroutine count returns to its baseline: processes still parked when
// the run ends (a cluster's MPI dispatchers, for instance) are unwound,
// not abandoned, and a sharded run's leaf goroutines have exited. A
// single-kernel run must be back at the baseline the moment RunCtx
// returns; a sharded run's leaf loops get settledGoroutines' grace to
// return after signalling the group.
func TestRunCtxCompletedRunLeavesNoGoroutines(t *testing.T) {
	for _, mode := range []ExecMode{ModeEvent, ModeParallel} {
		for _, task := range workload.AllTasks() {
			for _, cfg := range []arch.Config{arch.ActiveDisks(4), arch.Cluster(4), arch.SMP(4)} {
				base := runtime.NumGoroutine()
				if _, err := RunCtx(context.Background(), cfg, task, scaled(task, 16<<20), nil, nil, mode); err != nil {
					t.Fatalf("%v/%s/%v: %v", task, cfg.Name(), mode, err)
				}
				n := runtime.NumGoroutine()
				if mode == ModeParallel {
					n = settledGoroutines(base)
				}
				if n > base {
					t.Errorf("%v/%s/%v: %d goroutines live after the run, want <= %d", task, cfg.Name(), mode, n, base)
				}
			}
		}
	}
}
