package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"howsim/internal/probe"
)

// A process that Run resumed and that is its kernel's only live process
// runs the kernel's callback events on its own stack while it parks
// (Kernel.runInline). These tests pin that the inline loop is
// indistinguishable from Run's switching loop: same order, same clock,
// same counts, same stopping points, same failure and cleanup behavior.

// onInlineStack reports whether the caller is running inside a lone
// process's inline event loop.
func onInlineStack() bool {
	pc := make([]uintptr, 64)
	n := runtime.Callers(2, pc)
	frames := runtime.CallersFrames(pc[:n])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, ".(*Kernel).runInline") {
			return true
		}
		if !more {
			return false
		}
	}
}

// kernelEvents returns the kernel's KindEvents count from sink.
func kernelEvents(t *testing.T, s *probe.Sink) int64 {
	t.Helper()
	for i := 0; i < s.Instances(); i++ {
		if comp, name := s.Instance(i); comp == probe.SchedComponent && name == "kernel" {
			_, n, _ := s.Cell(i, probe.KindEvents)
			return n
		}
	}
	t.Fatal("kernel instance not registered")
	return 0
}

// inlineModel runs a disk-style disklet: one process issuing requests
// that timer callbacks complete through a Signal, a resource held by a
// callback task, same-instant yields, compute delays and short helper
// processes started from callbacks. With dormant set, a second live
// process parked on a never-fired signal (started inline, so it adds no
// event) disables inlining. It returns the (Now, label) trace, the
// kernel's event count and whether any callback ran on the process's
// stack.
func inlineModel(t *testing.T, dormant bool) (trace []string, events int64, inlined bool) {
	k := NewKernel()
	sink := probe.NewSink()
	k.SetProbe(sink)
	defer k.Shutdown()
	rec := func(label string) {
		trace = append(trace, fmt.Sprintf("%v %s", k.Now(), label))
		if onInlineStack() {
			inlined = true
		}
	}
	if dormant {
		k.spawnInline("dormant", func(p *Proc) { NewSignal().Wait(p) })
	}
	res := NewResource(k, "arm", 1)
	holder := k.NewTask("holder")
	spawnHelper := func(d Time) {
		k.Spawn("helper", func(h *Proc) {
			rec("helper-start")
			h.Delay(d)
			rec("helper-done")
		})
	}
	k.Spawn("disklet", func(p *Proc) {
		for i := 0; i < 40; i++ {
			// A callback task grabs the arm first on odd requests, so
			// the process waits in Acquire behind it.
			if i%2 == 1 {
				res.AcquireFunc(holder, 1, func() {
					rec("holder-acquired")
					k.After(Time(3+i%5), func() {
						rec("holder-release")
						res.Release(1)
					})
				})
			}
			res.Acquire(p, 1)
			rec("proc-acquired")
			done := NewSignal()
			seek := Time(7 + (i*13)%11)
			k.After(seek, func() {
				rec("seek-done")
				if i%10 == 3 {
					// A callback starts a second process: the inline loop
					// must resume it exactly where Run would.
					spawnHelper(Time(i % 4))
				}
				k.After(Time(1+i%3), func() {
					rec("xfer-done")
					done.Fire()
				})
			})
			k.After(seek, func() { rec("seek-tie") })
			done.Wait(p)
			res.Release(1)
			rec("proc-read")
			if i%4 == 0 {
				k.At(k.Now(), func() { rec("same-instant") })
				p.Delay(0)
				rec("proc-yielded")
			}
			p.Delay(Time(i % 6))
			rec("proc-computed")
		}
	})
	k.Run()
	wantLive := 0
	if dormant {
		wantLive = 1
	}
	if k.Live() != wantLive {
		t.Fatalf("Live() = %d after run, want %d", k.Live(), wantLive)
	}
	return trace, kernelEvents(t, sink), inlined
}

// TestInlineMatchesSwitching runs the same single-process model with
// and without a dormant second process: the inline loop must produce
// the switching loop's (Now, label) trace and event count exactly.
func TestInlineMatchesSwitching(t *testing.T) {
	inTrace, inEvents, inlined := inlineModel(t, false)
	swTrace, swEvents, swInlined := inlineModel(t, true)
	if !inlined {
		t.Fatal("lone process never ran a callback inline")
	}
	if swInlined {
		t.Fatal("callback ran inline with a second live process")
	}
	if got, want := strings.Join(inTrace, "\n"), strings.Join(swTrace, "\n"); got != want {
		t.Fatalf("inline trace differs from switching trace:\ninline:\n%s\nswitching:\n%s", got, want)
	}
	if inEvents != swEvents {
		t.Fatalf("KindEvents: inline %d, switching %d", inEvents, swEvents)
	}
	if len(inTrace) == 0 || inEvents == 0 {
		t.Fatal("model ran nothing")
	}
}

// TestInlineRunUntilStopsAtLimit bounds a lone process's inline run: the
// process's wake beyond the limit stays queued, the clock stops at the
// limit, and a later Run picks up where the bound left off.
func TestInlineRunUntilStopsAtLimit(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	var wakes []Time
	k.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 5; i++ {
			k.After(3, func() {})
			p.Delay(10)
			wakes = append(wakes, p.Now())
		}
	})
	if end := k.RunUntil(25); end != 25 || k.Now() != 25 {
		t.Fatalf("RunUntil(25) = %v, Now() = %v; want 25", end, k.Now())
	}
	if len(wakes) != 2 {
		t.Fatalf("wakes before limit = %v, want [10 20]", wakes)
	}
	if next, ok := k.NextEventTime(); !ok || next != 30 {
		t.Fatalf("NextEventTime() = %v, %v; want the process's wake at 30", next, ok)
	}
	if end := k.Run(); end != 50 || len(wakes) != 5 {
		t.Fatalf("Run() = %v with wakes %v; want 50 and five wakes", end, wakes)
	}
}

// TestInlineStopFromCallback stops the kernel from a callback that a
// lone process runs inline: Run returns right after that event, later
// events stay queued, and the next Run continues the process.
func TestInlineStopFromCallback(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	var seen []Time
	k.Spawn("worker", func(p *Proc) {
		for i := 0; i < 4; i++ {
			k.After(1, func() {
				seen = append(seen, k.Now())
				if k.Now() == 6 {
					k.Stop()
				}
			})
			k.After(2, func() { seen = append(seen, k.Now()) })
			p.Delay(5)
		}
	})
	if end := k.Run(); end != 6 {
		t.Fatalf("Run() = %v after Stop, want 6", end)
	}
	if got := fmt.Sprint(seen); got != "[1ns 2ns 6ns]" {
		t.Fatalf("events before Stop = %s, want [1ns 2ns 6ns]", got)
	}
	k.stopped = false
	if end := k.Run(); end != 20 {
		t.Fatalf("resumed Run() = %v, want 20", end)
	}
	if got := fmt.Sprint(seen); got != "[1ns 2ns 6ns 7ns 11ns 12ns 16ns 17ns]" {
		t.Fatalf("events = %s", got)
	}
}

// TestInlineShutdownAfterStop abandons a lone process whose inline run
// was stopped mid-flight: Shutdown must unwind it and leak no
// goroutine.
func TestInlineShutdownAfterStop(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	sig := NewSignal()
	k.Spawn("waiter", func(p *Proc) {
		p.Delay(1)
		k.After(4, func() { k.Stop() })
		k.After(9, sig.Fire)
		sig.Wait(p)
		p.Delay(100)
	})
	if end := k.Run(); end != 5 {
		t.Fatalf("Run() = %v, want 5 (stopped inline)", end)
	}
	if k.Blocked() != 1 {
		t.Fatalf("Blocked() = %d mid-run, want 1", k.Blocked())
	}
	k.Shutdown()
	if k.Blocked() != 0 || k.Live() != 0 || k.DeadlockReport() != "" {
		t.Fatalf("after Shutdown: Blocked %d, Live %d, report %q", k.Blocked(), k.Live(), k.DeadlockReport())
	}
	drainGoroutines(t, base)
}

// TestInlineCallbackPanicSurfaces panics inside a callback that a lone
// process runs inline: the panic must surface from Kernel.Run on the
// caller's goroutine, as it does for a callback Run executes itself,
// without unwinding the process's body. The process stays parked on
// its signal, its deferred calls unrun, and Shutdown then unwinds it
// cleanly.
func TestInlineCallbackPanicSurfaces(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	sig := NewSignal()
	unwound := false
	k.Spawn("worker", func(p *Proc) {
		defer func() { unwound = true }()
		k.After(2, func() {
			if !onInlineStack() {
				t.Error("callback did not run inline")
			}
			panic("boom")
		})
		k.After(5, sig.Fire)
		sig.Wait(p)
	})
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want boom", r)
			}
		}()
		k.Run()
		t.Fatal("Run returned without the callback's panic")
	}()
	if unwound {
		t.Fatal("the callback's panic unwound the process body")
	}
	if k.Live() != 1 || k.Blocked() != 1 {
		t.Fatalf("after the panic: Live %d, Blocked %d; want the process parked (1, 1)", k.Live(), k.Blocked())
	}
	k.Shutdown()
	if !unwound {
		t.Fatal("Shutdown did not unwind the parked process")
	}
	if k.Blocked() != 0 || k.Live() != 0 || k.DeadlockReport() != "" {
		t.Fatalf("after Shutdown: Blocked %d, Live %d, report %q", k.Blocked(), k.Live(), k.DeadlockReport())
	}
	drainGoroutines(t, base)
}

// TestInlineSingleProcWaitAllocs pins the lone-process wait path that
// BenchmarkKernelSingleProcWait measures at zero allocations: a
// disklet's request completes through timer callbacks run inline and a
// recycled completion signal.
func TestInlineSingleProcWaitAllocs(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	var done Signal
	xferDone := func() { done.Fire() }
	seekDone := func() { k.After(3, xferDone) }
	body := func(p *Proc) {
		for i := 0; i < 100; i++ {
			done.Reset()
			k.After(5, seekDone)
			done.Wait(p)
			p.Delay(1)
		}
	}
	run := func() {
		k.Spawn("disklet", body)
		k.Run()
	}
	run() // warm the queue slab, waiter storage and process pool
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("lone-process wait allocates %.1f times per 100 requests, want 0", allocs)
	}
}
