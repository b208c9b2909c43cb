package sim

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"howsim/internal/probe"
)

// lastPopped returns the (t, seq) of the event the kernel popped last:
// a popped slot goes to the end of the free list and keeps its time
// and sequence number until it is reused. Read first thing in an event,
// it is that event's key.
func lastPopped(k *Kernel) [2]int64 {
	e := &k.events.slab[k.events.free[len(k.events.free)-1]]
	return [2]int64{int64(e.t), int64(e.seq)}
}

// fixedRun runs one small simulation with every kind of event — process
// starts and wakes, grants on a contended resource, kernel callbacks,
// a bare task's mailbox continuations and a process sleeping in a
// chain — and returns the (t, seq) trace its steps read, the ID of the
// first process it spawned and the kernel's final (now, seq).
func fixedRun(k *Kernel) (trace [][2]int64, firstID int, end [2]int64) {
	rec := func() { trace = append(trace, lastPopped(k)) }
	res := NewResource(k, "r", 1)
	mb := NewMailbox(k, "mb", 0)
	for i := range 3 {
		p := k.Spawn("worker", func(p *Proc) {
			rec()
			for j := range 3 {
				p.Delay(Time(i+1) * Millisecond)
				rec()
				res.Acquire(p, 1)
				p.Delay(Time(j+1) * Millisecond)
				rec()
				res.Release(1)
				mb.Put(p, i*3+j)
			}
		})
		if i == 0 {
			firstID = p.ID()
		}
	}
	consumer := k.NewTask("consumer")
	var get func(any, bool)
	get = func(any, bool) {
		rec()
		if mb.Gets() < 9 {
			mb.GetFunc(consumer, get)
			return
		}
		consumer.Finish()
	}
	mb.GetFunc(consumer, get)
	k.Spawn("chained", func(p *Proc) {
		for range 2 {
			p.Delay(2 * Millisecond)
			rec()
			t := &p.Task
			p.Chain(func() {
				res.AcquireFunc(t, 1, func() {
					rec()
					t.EndChainAfter(Millisecond, func() { res.Release(1) })
				})
			})
			rec()
		}
	})
	var tick func()
	tick = func() {
		rec()
		if k.Now() < 20*Millisecond {
			k.After(3*Millisecond, tick)
		}
	}
	k.After(0, tick)
	k.Run()
	return trace, firstID, [2]int64{int64(k.Now()), int64(k.seq)}
}

// TestRecycledKernelIsFresh ends runs in every state a run can be
// abandoned in, shuts each kernel down and recycles it, and checks the
// kernel then reads as NewKernel's does and runs a fixed simulation
// event for event as a new kernel runs it.
func TestRecycledKernelIsFresh(t *testing.T) {
	wantTrace, wantID, wantEnd := fixedRun(NewKernel())
	if wantID != 1 || len(wantTrace) < 40 {
		t.Fatalf("test setup: first ID %d, %d trace steps", wantID, len(wantTrace))
	}
	ends := []struct {
		name string
		run  func(k *Kernel)
	}{
		{"events pending", func(k *Kernel) {
			for i := range 64 {
				k.After(Time(i)*Millisecond, func() {})
			}
			k.Spawn("early", func(p *Proc) {})
			k.After(10*Millisecond+1, k.Stop)
			k.Run()
		}},
		{"parked tasks and processes", func(k *Kernel) {
			mb := NewMailbox(k, "empty", 0)
			for range 8 {
				mb.GetFunc(k.NewTask("getter"), func(any, bool) {})
				k.Spawn("waiter", func(p *Proc) { mb.Get(p) })
			}
			done := k.NewTask("done")
			done.Finish()
			k.Run()
		}},
		{"mid-chain", func(k *Kernel) {
			res := NewResource(k, "r", 1)
			k.Spawn("holder", func(p *Proc) { res.Acquire(p, 1); p.Delay(Second) })
			k.Spawn("chained", func(p *Proc) {
				t := &p.Task
				p.Chain(func() { res.AcquireFunc(t, 1, func() { t.EndChain() }) })
			})
			k.RunUntil(Millisecond)
		}},
		{"stopped by RunUntil", func(k *Kernel) {
			for i := range 16 {
				k.Spawn("sleeper", func(p *Proc) {
					for {
						p.Delay(Time(i+1) * Millisecond)
					}
				})
			}
			k.RunUntil(50 * Millisecond)
		}},
		{"panicked body", func(k *Kernel) {
			k.Spawn("bystander", func(p *Proc) { p.Delay(Second) })
			k.Spawn("boom", func(p *Proc) { p.Delay(Millisecond); panic("boom") })
			defer func() { _ = recover() }()
			k.Run()
		}},
	}
	for _, end := range ends {
		t.Run(end.name, func(t *testing.T) {
			k := NewKernel()
			k.SetProbe(probe.NewSink())
			end.run(k)
			k.Shutdown()
			k.Recycle()
			if k.Now() != 0 || k.Live() != 0 || k.Blocked() != 0 || k.liveTasks != 0 || k.events.len() != 0 {
				t.Errorf("recycled kernel reads now %v, %d live, %d blocked, %d live tasks, %d events; want all 0",
					k.Now(), k.Live(), k.Blocked(), k.liveTasks, k.events.len())
			}
			if nt, ok := k.NextEventTime(); ok {
				t.Errorf("recycled kernel has an event pending at %v", nt)
			}
			if rep := k.DeadlockReport(); rep != "" {
				t.Errorf("recycled kernel reports:\n%s", rep)
			}
			if k.Probe() != nil {
				t.Error("recycled kernel keeps its probe")
			}
			if cap(k.events.slab) == 0 || len(k.procFree)+len(k.taskFree) == 0 {
				t.Errorf("recycled kernel kept no storage: slab cap %d, %d procs, %d tasks pooled",
					cap(k.events.slab), len(k.procFree), len(k.taskFree))
			}
			// Twice: a recycled kernel's own fixed run recycles too.
			for round := range 2 {
				trace, id, end := fixedRun(k)
				if id != wantID || end != wantEnd || !slices.Equal(trace, wantTrace) {
					t.Errorf("round %d: first ID %d, end %v, %d steps; want %d, %v, %d steps as on a new kernel",
						round, id, end, len(trace), wantID, wantEnd, len(wantTrace))
				}
				k.Shutdown()
				k.Recycle()
			}
		})
	}
}

// TestRecycledKernelRetainsNoModel gives every record a recycled kernel
// keeps — finished and parked processes, a process killed in a chain
// step, finished and parked bare tasks, pending events — closures over
// objects with finalizers, and checks that every finalizer runs once
// the kernel has been shut down and recycled: the pooled storage holds
// no reference into the previous run's model.
func TestRecycledKernelRetainsNoModel(t *testing.T) {
	k := NewKernel()
	var finalized atomic.Int32
	want := populateForRetention(k, &finalized)
	k.Shutdown()
	k.Recycle()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		runtime.GC()
		if finalized.Load() == want || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if n := finalized.Load(); n != want {
		t.Errorf("%d of %d model objects finalized after Recycle: the kernel retains the rest", n, want)
	}
	runtime.KeepAlive(k)
}

// populateForRetention runs a simulation on k whose records capture
// objects that count themselves into finalized when collected, and
// returns how many it made. The objects are reachable only through
// the kernel's records once it returns.
func populateForRetention(k *Kernel, finalized *atomic.Int32) int32 {
	var made int32
	obj := func() *[64]byte {
		made++
		o := new([64]byte)
		runtime.SetFinalizer(o, func(*[64]byte) { finalized.Add(1) })
		return o
	}
	res := NewResource(k, "r", 1)
	mb := NewMailbox(k, "full", 1)
	mb.TryPut(0)
	for range 3 {
		o := obj()
		k.Spawn("finished", func(p *Proc) { p.Delay(Millisecond); o[0]++ })
	}
	o1 := obj()
	k.Spawn("holder", func(p *Proc) { res.Acquire(p, 1); p.Delay(Second); o1[0]++ })
	o2, o3 := obj(), obj()
	k.Spawn("chained", func(p *Proc) {
		t := &p.Task
		p.Chain(func() { res.AcquireFunc(t, 1, func() { o2[0]++; t.EndChain() }) })
		o3[0]++
	})
	o4 := obj()
	k.Spawn("putter", func(p *Proc) {
		p.Delay(2 * Millisecond)
		t := &p.Task
		p.Chain(func() { mb.PutFunc(t, o4, func(error) { t.EndChain() }) })
	})
	for range 3 {
		o := obj()
		tk := k.NewTask("finished-task")
		sig := NewSignal()
		sig.WaitFunc(tk, func() { o[0]++; tk.Finish() })
		k.After(Millisecond, sig.Fire)
	}
	o5 := obj()
	held := NewResource(k, "held", 1)
	held.AcquireFunc(k.NewTask("holder"), 1, func() {})
	held.AcquireFunc(k.NewTask("parked-task"), 1, func() { o5[0]++ })
	o6 := obj()
	k.After(Second, func() { o6[0]++ })
	k.RunUntil(10 * Millisecond)
	return made
}
