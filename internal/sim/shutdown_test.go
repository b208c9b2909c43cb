package sim

import (
	"runtime"
	"testing"
	"time"
)

// drainGoroutines polls until the goroutine count settles back to at
// most base.
func drainGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.Gosched()
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d live, want <= %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShutdownFreesParkedProcs parks processes on every flavor of wait —
// a mailbox, a resource, a timer, and never-started — abandons the run
// mid-flight, and checks Shutdown unwinds all of them: no parked procs
// in the deadlock report, blocked count zero, and every process
// coroutine gone.
func TestShutdownFreesParkedProcs(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	mb := NewMailbox(k, "stuck-box", 1)
	res := NewResource(k, "stuck-res", 1)
	k.Spawn("holder", func(p *Proc) {
		res.Acquire(p, 1)
		p.Delay(Second) // holds the resource for the whole run
	})
	k.Spawn("mailbox-waiter", func(p *Proc) {
		mb.Get(p) // nothing ever sends
	})
	k.Spawn("resource-waiter", func(p *Proc) {
		res.Acquire(p, 1) // held until t=1s
	})
	k.Spawn("sleeper", func(p *Proc) {
		p.Delay(10 * Second)
	})
	// Run a bounded slice, then abandon the simulation mid-flight.
	k.RunUntil(100 * Millisecond)
	if k.Blocked() == 0 {
		t.Fatal("test setup: expected parked processes mid-run")
	}
	k.Spawn("never-started", func(p *Proc) {
		p.Delay(Second)
	})
	k.Shutdown()
	if k.Blocked() != 0 {
		t.Fatalf("Blocked() = %d after Shutdown, want 0", k.Blocked())
	}
	if rep := k.DeadlockReport(); rep != "" {
		t.Fatalf("DeadlockReport after Shutdown:\n%s", rep)
	}
	k.Shutdown() // idempotent
	drainGoroutines(t, base)
}

// TestShutdownFinishesCallbackTasks checks bare callback-mode tasks
// parked on a primitive are marked finished and removed from the
// blocked count (they own no goroutine, so there is nothing to unwind).
func TestShutdownFinishesCallbackTasks(t *testing.T) {
	k := NewKernel()
	mb := NewMailbox(k, "stuck-box", 1)
	tk := k.NewTask("stuck-task")
	mb.GetFunc(tk, func(v any, ok bool) {})
	k.Run()
	if k.Blocked() != 1 {
		t.Fatalf("Blocked() = %d, want 1 parked callback task", k.Blocked())
	}
	k.Shutdown()
	if k.Blocked() != 0 {
		t.Fatalf("Blocked() = %d after Shutdown, want 0", k.Blocked())
	}
	if rep := k.DeadlockReport(); rep != "" {
		t.Fatalf("DeadlockReport after Shutdown:\n%s", rep)
	}
	if k.liveTasks != 0 {
		t.Fatalf("liveTasks = %d after Shutdown, want 0", k.liveTasks)
	}
}

// TestShutdownAfterCleanRunIsNoop verifies a kernel whose run completed
// normally survives Shutdown (nothing to unwind beyond pool release).
func TestShutdownAfterCleanRunIsNoop(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	ran := false
	k.Spawn("worker", func(p *Proc) {
		p.Delay(Millisecond)
		ran = true
	})
	k.Run()
	if !ran {
		t.Fatal("worker did not run")
	}
	k.Shutdown()
	drainGoroutines(t, base)
}

// TestCloseStopsPooledCoroutines checks Close ends every pooled
// process coroutine before it returns: the goroutine count is back at
// its baseline at once, with no polling.
func TestCloseStopsPooledCoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	for i := 0; i < 8; i++ {
		k.Spawn("worker", func(p *Proc) { p.Delay(Time(i) * Millisecond) })
	}
	k.Run()
	if n := runtime.NumGoroutine(); n < base+8 {
		t.Fatalf("test setup: %d goroutines after the run, want >= %d pooled", n, base+8)
	}
	k.Close()
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines live after Close, want <= %d", n, base)
	}
}

// TestProcPanicSurfacesFromRun checks a process body that panics with
// its own value unwinds into the goroutine that called Run, where the
// caller can recover it, and leaves no goroutine behind.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	k.Spawn("bystander", func(p *Proc) { p.Delay(Second) })
	k.Spawn("boom", func(p *Proc) {
		p.Delay(Millisecond)
		panic("boom")
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		k.Run()
		return nil
	}()
	if got != "boom" {
		t.Fatalf("Run recovered %v, want the body's panic value %q", got, "boom")
	}
	k.Shutdown()
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines live after Shutdown, want <= %d", n, base)
	}
}
