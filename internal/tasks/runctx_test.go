package tasks

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"howsim/internal/arch"
	"howsim/internal/sim"
	"howsim/internal/workload"
)

// TestRunCtxMatchesPlainRun checks the sliced, cancellable execution
// path is event-for-event identical to the plain entry point: same
// elapsed virtual time, same details, on every architecture and in
// every single-kernel mode.
func TestRunCtxMatchesPlainRun(t *testing.T) {
	ds := scaled(workload.Sort, 48<<20)
	for _, cfg := range []arch.Config{arch.ActiveDisks(4), arch.Cluster(4), arch.SMP(4)} {
		for _, mode := range []sim.ExecMode{sim.ModeEvent, sim.ModeGoroutine} {
			// A context with a deadline takes the sliced path but never
			// actually cancels.
			ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
			got, err := RunCtx(ctx, cfg, workload.Sort, ds, nil, nil, mode)
			cancel()
			if err != nil {
				t.Fatalf("%s/%v: %v", cfg.Name(), mode, err)
			}
			want, err := RunCtx(context.Background(), cfg, workload.Sort, ds, nil, nil, mode)
			if err != nil {
				t.Fatalf("%s/%v: %v", cfg.Name(), mode, err)
			}
			if got.Elapsed != want.Elapsed {
				t.Errorf("%s/%v: sliced elapsed %v != plain %v", cfg.Name(), mode, got.Elapsed, want.Elapsed)
			}
			if len(got.Details) != len(want.Details) {
				t.Fatalf("%s/%v: details diverged: %v vs %v", cfg.Name(), mode, got.Details, want.Details)
			}
			for k, v := range want.Details {
				if got.Details[k] != v {
					t.Errorf("%s/%v: detail %s = %g, want %g", cfg.Name(), mode, k, got.Details[k], v)
				}
			}
		}
	}
}

// TestRunCtxPreCancelled checks an already-dead context is rejected
// before any simulation work happens.
func TestRunCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunCtx(ctx, arch.ActiveDisks(4), workload.Select, scaled(workload.Select, 16<<20),
		nil, nil, sim.ModeEvent)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("got a result from a cancelled run: %v", res)
	}
}

// TestRunCtxCancelMidRunFreesWorkers cancels a simulation while it is
// executing and checks (a) the cancellation error surfaces and (b) the
// abandoned kernel's parked processes are unwound — no goroutines leak,
// per kernel.Shutdown's contract. This is the worker-freeing guarantee
// the service's admission control relies on.
func TestRunCtxCancelMidRunFreesWorkers(t *testing.T) {
	for _, mode := range []sim.ExecMode{sim.ModeEvent, sim.ModeGoroutine} {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		started := make(chan struct{})
		go func() {
			<-started
			cancel()
		}()
		// A sort is long enough (hundreds of thousands of events) that
		// cancellation signalled at start reliably lands mid-run.
		close(started)
		_, err := RunCtx(ctx, arch.ActiveDisks(4), workload.Sort, scaled(workload.Sort, 96<<20),
			nil, nil, mode)
		if err == nil {
			// The whole run beat the cancel — possible in principle on the
			// smallest datasets, but worth knowing about.
			t.Fatalf("mode %v: run completed before cancellation", mode)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mode %v: err = %v, want context.Canceled", mode, err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("mode %v: goroutines leaked after cancellation: %d live, want <= %d",
					mode, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestRunCtxCompletedRunLeavesNoGoroutines runs every task on every
// architecture to completion in both single-kernel modes and checks the
// goroutine count returns to its baseline: processes still parked when
// the run ends (a cluster's MPI dispatchers, for instance) are unwound,
// not abandoned.
func TestRunCtxCompletedRunLeavesNoGoroutines(t *testing.T) {
	for _, mode := range []sim.ExecMode{sim.ModeEvent, sim.ModeGoroutine} {
		for _, task := range workload.AllTasks() {
			for _, cfg := range []arch.Config{arch.ActiveDisks(4), arch.Cluster(4), arch.SMP(4)} {
				base := runtime.NumGoroutine()
				if _, err := RunCtx(context.Background(), cfg, task, scaled(task, 16<<20), nil, nil, mode); err != nil {
					t.Fatalf("%v/%s/%v: %v", task, cfg.Name(), mode, err)
				}
				if n := runtime.NumGoroutine(); n > base {
					t.Errorf("%v/%s/%v: %d goroutines live after the run, want <= %d", task, cfg.Name(), mode, n, base)
				}
			}
		}
	}
}
