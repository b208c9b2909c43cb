package sim

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestHorizonQueueOrdering exercises the inbound-request queue: peek
// and takeMin return entries in (at, sched, anc, rank, src, seq)
// injection order regardless of arrival order.
func TestHorizonQueueOrdering(t *testing.T) {
	var q horizonQueue
	mk := func(at Time, src int32) *xcall { return &xcall{at: at, src: src} }
	q.push(mk(30, 0))
	q.push(mk(10, 2))
	q.push(mk(10, 1))
	q.push(mk(20, 3))
	if got := q.peek(); got.at != 10 || got.src != 1 {
		t.Fatalf("peek = (%v, %d), want (10, 1)", got.at, got.src)
	}
	var order []int32
	for c := q.takeMin(); c != nil; c = q.takeMin() {
		order = append(order, c.src)
	}
	if len(order) != 4 || order[0] != 1 || order[1] != 2 || order[2] != 3 || order[3] != 0 {
		t.Fatalf("takeMin order = %v, want [1 2 3 0]", order)
	}
	if q.len() != 0 || q.peek() != nil {
		t.Fatalf("queue not empty after draining: len = %d", q.len())
	}
	// Same timestamp, deeper keys: sched wins over anc, anc over rank.
	a := &xcall{at: 10, sched: 5, anc: lineage{9}, rank: 1}
	b := &xcall{at: 10, sched: 6, anc: lineage{1}, rank: 0}
	c := &xcall{at: 10, sched: 5, anc: lineage{9}, rank: 2}
	q.push(c)
	q.push(b)
	q.push(a)
	if got := q.takeMin(); got != a {
		t.Fatalf("takeMin = %+v, want a", got)
	}
	if got := q.takeMin(); got != c {
		t.Fatalf("takeMin = %+v, want c", got)
	}
	if got := q.takeMin(); got != b {
		t.Fatalf("takeMin = %+v, want b", got)
	}
}

// TestRunUntilZero pins the limit semantics the hub loop depends on: a
// RunUntil(0) executes events at time zero but nothing later. (The old
// implementation treated limit 0 as "no limit".)
func TestRunUntilZero(t *testing.T) {
	k := NewKernel()
	var ran []Time
	k.At(0, func() { ran = append(ran, 0) })
	k.At(5, func() { ran = append(ran, 5) })
	if got := k.RunUntil(0); got != 0 {
		t.Fatalf("RunUntil(0) = %v, want 0", got)
	}
	if len(ran) != 1 || ran[0] != 0 {
		t.Fatalf("events run = %v, want [0]", ran)
	}
	if got := k.Run(); got != 5 {
		t.Fatalf("Run after limit = %v, want 5", got)
	}
}

// TestAdvanceTo pins the clock-alignment primitive: forward jumps land
// exactly, and jumping over a pending event or backwards panics.
func TestAdvanceTo(t *testing.T) {
	k := NewKernel()
	k.AdvanceTo(7)
	if k.Now() != 7 {
		t.Fatalf("now = %v, want 7", k.Now())
	}
	mustPanic(t, "backwards", func() { k.AdvanceTo(3) })
	k.At(10, func() {})
	mustPanic(t, "skip event", func() { k.AdvanceTo(11) })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", what)
		}
	}()
	fn()
}

// TestShardGroupEmptyLeaves is the null-message quiescence case: leaves
// with no events at all (empty links) publish infinite horizons and the
// group terminates without deadlock.
func TestShardGroupEmptyLeaves(t *testing.T) {
	g := NewShardGroup(4)
	defer g.Close()
	var hubRan bool
	g.Hub().At(10, func() { hubRan = true })
	if end := g.Run(); end != 10 {
		t.Fatalf("end = %v, want 10", end)
	}
	if !hubRan {
		t.Fatal("hub event did not run")
	}
	if g.Stall() != "" {
		t.Fatalf("unexpected stall: %s", g.Stall())
	}
}

// TestShardGroupLookaheadAdvance checks the conservative gate: the hub
// must not execute an event at t until every leaf's published horizon
// clears t, and leaf-local work proceeds in parallel regardless.
func TestShardGroupLookaheadAdvance(t *testing.T) {
	g := NewShardGroup(2)
	defer g.Close()
	// Each leaf ticks to time 100 in steps of 10; the hub records the
	// minimum leaf horizon observed by each of its own events.
	for i := 0; i < 2; i++ {
		sh := g.Shard(i)
		var step func(p *Proc)
		step = func(p *Proc) {
			for p.Now() < 100 {
				p.Delay(10)
			}
		}
		sh.Kernel().Spawn(fmt.Sprintf("ticker%d", i), step)
	}
	var seen []Time
	for _, at := range []Time{25, 75} {
		at := at
		g.Hub().At(at, func() {
			eit := g.eit()
			if eit <= at {
				t.Errorf("hub event at %v ran with eit %v (want > %v)", at, eit, at)
			}
			seen = append(seen, at)
		})
	}
	g.Run()
	if len(seen) != 2 || seen[0] != 25 || seen[1] != 75 {
		t.Fatalf("hub events ran %v, want [25 75]", seen)
	}
}

// TestShardGroupParkedLeafDriven pins how a parked shard makes
// progress: a Call executes on the hub at its issue time, the caller
// resumes at the hub completion time, and while the call is held open
// the shard's remaining local events are hub-driven inside the
// conservative window (its horizon is its next local event, not +inf).
func TestShardGroupParkedLeafDriven(t *testing.T) {
	g := NewShardGroup(1)
	defer g.Close()
	sh := g.Shard(0)
	sig := NewSignal()
	var fired atomic.Bool
	var callAt Time
	var leafLog []string
	sh.Kernel().At(20, func() {
		leafLog = append(leafLog, fmt.Sprintf("timer@20 fired=%v", fired.Load()))
	})
	sh.Kernel().Spawn("caller", func(p *Proc) {
		p.Delay(10)
		sh.Call(p, func(hp *Proc) {
			callAt = hp.Now()
			sig.Wait(hp) // held open until the hub event at 30 fires
		})
		leafLog = append(leafLog, fmt.Sprintf("resumed@%v", p.Now()))
	})
	g.Hub().At(30, func() {
		fired.Store(true)
		sig.Fire()
	})
	if end := g.Run(); end != 30 {
		t.Fatalf("end = %v, want 30", end)
	}
	if callAt != 10 {
		t.Errorf("call executed on hub at %v, want its issue time 10", callAt)
	}
	// The leaf timer at 20 must have been driven while the call was still
	// held open (before the hub event at 30), in local order.
	if len(leafLog) != 2 || leafLog[0] != "timer@20 fired=false" || leafLog[1] != "resumed@30ns" {
		t.Errorf("leaf log = %v, want [timer@20 fired=false resumed@30ns]", leafLog)
	}
	if g.Stall() != "" {
		t.Fatalf("unexpected stall: %s", g.Stall())
	}
}

// TestShardGroupContendedCallDeterminism reruns a contended workload —
// back-to-back Calls on one hub resource (the second a same-instant
// follow-on run inline by the first's proxy) plus local timers the hub
// must drive — under varying GOMAXPROCS and requires an identical grant
// history each time.
func TestShardGroupContendedCallDeterminism(t *testing.T) {
	workload := func() []Time {
		g := NewShardGroup(3)
		defer g.Close()
		res := NewResource(g.Hub(), "shared", 1)
		var hist []Time
		for i := 0; i < 3; i++ {
			sh := g.Shard(i)
			sh.Kernel().At(Time(5+3*i), func() {}) // local events to drive
			sh.Kernel().Spawn(fmt.Sprintf("u%d", i), func(p *Proc) {
				for r := 0; r < 3; r++ {
					p.Delay(Time(4 + i))
					grab := func(hp *Proc) {
						res.Acquire(hp, 1)
						hist = append(hist, hp.Now())
						hp.Delay(2)
						res.Release(1)
					}
					sh.Call(p, grab)
					sh.Call(p, grab) // issued at the instant the first resumes
				}
			})
		}
		g.Run()
		return hist
	}
	want := workload()
	if len(want) != 18 {
		t.Fatalf("history has %d grants, want 18", len(want))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 3; rep++ {
			got := workload()
			if len(got) != len(want) {
				t.Fatalf("GOMAXPROCS=%d rep %d: %d grants, want %d", procs, rep, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("GOMAXPROCS=%d rep %d: grant %d at %v, want %v", procs, rep, i, got[i], want[i])
				}
			}
		}
	}
}

// TestShardCallEquivalence runs the same tiny workload single-kernel
// and sharded and requires identical observable history: a shared hub
// counter incremented through Calls, with per-leaf local delays.
func TestShardCallEquivalence(t *testing.T) {
	type visit struct {
		at  Time
		who string
	}
	run := func(sharded bool) []visit {
		var log []visit
		record := func(at Time, who string) { log = append(log, visit{at, who}) }
		const n = 3
		if !sharded {
			k := NewKernel()
			for i := 0; i < n; i++ {
				i := i
				k.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
					p.Delay(Time(10 * (i + 1)))
					record(p.Now(), fmt.Sprintf("w%d", i))
					p.Delay(Time(5 * (i + 1)))
					record(p.Now(), fmt.Sprintf("w%d-2", i))
				})
			}
			k.Run()
			k.Close()
			return log
		}
		g := NewShardGroup(n)
		defer g.Close()
		for i := 0; i < n; i++ {
			i := i
			sh := g.Shard(i)
			sh.Kernel().Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
				p.Delay(Time(10 * (i + 1)))
				at := p.Now()
				sh.Call(p, func(*Proc) { record(at, fmt.Sprintf("w%d", i)) })
				p.Delay(Time(5 * (i + 1)))
				at = p.Now()
				sh.Call(p, func(*Proc) { record(at, fmt.Sprintf("w%d-2", i)) })
			})
		}
		g.Run()
		return log
	}
	want := run(false)
	got := run(true)
	if len(got) != len(want) {
		t.Fatalf("sharded log has %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d: sharded %+v, single %+v", i, got[i], want[i])
		}
	}
}

// TestShardCallSameInstantChain checks the rendezvous fast path: a leaf
// that issues back-to-back Calls with no intervening delay gets both
// executed at the same hub event position, in issue order, at one
// virtual instant.
func TestShardCallSameInstantChain(t *testing.T) {
	g := NewShardGroup(1)
	defer g.Close()
	sh := g.Shard(0)
	var order []string
	var at []Time
	sh.Kernel().Spawn("caller", func(p *Proc) {
		p.Delay(42)
		sh.Call(p, func(*Proc) { order = append(order, "first"); at = append(at, g.Hub().Now()) })
		sh.Call(p, func(*Proc) { order = append(order, "second"); at = append(at, g.Hub().Now()) })
		sh.Call(p, func(*Proc) { order = append(order, "third"); at = append(at, g.Hub().Now()) })
	})
	g.Run()
	if len(order) != 3 || order[0] != "first" || order[1] != "second" || order[2] != "third" {
		t.Fatalf("call order = %v", order)
	}
	for i, a := range at {
		if a != 42 {
			t.Fatalf("call %d ran at hub time %v, want 42", i, a)
		}
	}
}

// TestShardCallHubBlocking checks that a Call's closure may block on
// hub primitives: contended acquisition of a shared hub resource from
// two shards resolves in timestamp order and extends the callers'
// virtual time accordingly.
func TestShardCallHubBlocking(t *testing.T) {
	g := NewShardGroup(2)
	defer g.Close()
	res := NewResource(g.Hub(), "shared", 1)
	var grants []Time
	var ends []Time
	for i := 0; i < 2; i++ {
		sh := g.Shard(i)
		sh.Kernel().Spawn(fmt.Sprintf("u%d", i), func(p *Proc) {
			p.Delay(Time(10 + i)) // shard 0 arrives at 10, shard 1 at 11
			sh.Call(p, func(hp *Proc) {
				res.Acquire(hp, 1)
				grants = append(grants, hp.Now())
				hp.Delay(5)
				res.Release(1)
			})
			ends = append(ends, p.Now())
		})
	}
	g.Run()
	if len(grants) != 2 || grants[0] != 10 || grants[1] != 15 {
		t.Fatalf("grants at %v, want [10 15]", grants)
	}
	// Caller 0 holds 10..15, caller 1 queues at 11 and holds 15..20; each
	// resumes on its own leaf at the instant its hub work finished.
	if len(ends) != 2 || ends[0] != 15 || ends[1] != 20 {
		t.Fatalf("callers resumed at %v, want [15 20]", ends)
	}
}

// TestShardGroupDeterminism reruns a contended sharded workload under
// varying GOMAXPROCS and requires an identical event history each time:
// parallel execution must not leak scheduling nondeterminism.
func TestShardGroupDeterminism(t *testing.T) {
	workload := func() []Time {
		g := NewShardGroup(4)
		defer g.Close()
		res := NewResource(g.Hub(), "shared", 1)
		var hist []Time
		for i := 0; i < 4; i++ {
			sh := g.Shard(i)
			sh.Kernel().Spawn(fmt.Sprintf("u%d", i), func(p *Proc) {
				for r := 0; r < 3; r++ {
					p.Delay(Time(7 + i))
					sh.Call(p, func(hp *Proc) {
						res.Acquire(hp, 1)
						hist = append(hist, hp.Now())
						hp.Delay(3)
						res.Release(1)
					})
				}
			})
		}
		g.Run()
		return hist
	}
	want := workload()
	if len(want) != 12 {
		t.Fatalf("history has %d grants, want 12", len(want))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 3; rep++ {
			got := workload()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("GOMAXPROCS=%d rep %d: grant %d at %v, want %v", procs, rep, i, got[i], want[i])
				}
			}
		}
	}
}

// TestShardGroupManyCallers drives more shards than cores through a
// rapid sequence of calls, a smoke test for the handoff machinery under
// real contention (run with -race in CI).
func TestShardGroupManyCallers(t *testing.T) {
	g := NewShardGroup(16)
	defer g.Close()
	// total needs no lock: every Call closure executes on the hub side,
	// one at a time — the race detector job verifies exactly this.
	var total int
	for i := 0; i < 16; i++ {
		sh := g.Shard(i)
		sh.Kernel().Spawn(fmt.Sprintf("c%d", i), func(p *Proc) {
			for r := 0; r < 50; r++ {
				p.Delay(Time(1 + i%3))
				sh.Call(p, func(*Proc) { total++ })
			}
		})
	}
	end := g.Run()
	if total != 16*50 {
		t.Fatalf("total = %d, want %d", total, 16*50)
	}
	if end <= 0 {
		t.Fatalf("end = %v, want > 0", end)
	}
	if g.Stall() != "" {
		t.Fatalf("unexpected stall: %s", g.Stall())
	}
}

// TestShardGroupFinishedLeafKeepsQueuedWork pins the free-run contract:
// a leaf whose caller parks in Call retains its queued future events,
// and they execute (in order) once the response arrives.
func TestShardGroupCallDoesNotRunLeafFuture(t *testing.T) {
	g := NewShardGroup(1)
	defer g.Close()
	sh := g.Shard(0)
	var order []string
	// An independent leaf timer at t=50 must not run before the caller's
	// resume at t=20 (hub work 10..20), even though the leaf could have
	// raced ahead while the call was outstanding.
	sh.Kernel().At(50, func() { order = append(order, "timer50") })
	sh.Kernel().Spawn("caller", func(p *Proc) {
		p.Delay(10)
		sh.Call(p, func(hp *Proc) { hp.Delay(10) })
		order = append(order, fmt.Sprintf("resumed@%v", p.Now()))
	})
	g.Run()
	if len(order) != 2 || order[0] != "resumed@20ns" || order[1] != "timer50" {
		t.Fatalf("order = %v, want [resumed@20ns timer50]", order)
	}
}

// TestShardGroupStallDetection: a hub process parked on a primitive
// nobody will ever fire must terminate the group with a diagnostic, not
// hang the test suite.
func TestShardGroupStallDetection(t *testing.T) {
	g := NewShardGroup(2)
	defer g.Close()
	sig := NewSignal()
	g.Hub().Spawn("waiter", func(p *Proc) { sig.Wait(p) })
	g.Run()
	if rep := g.Hub().DeadlockReport(); rep == "" {
		t.Fatal("expected a deadlock report for the parked hub waiter")
	}
}

// TestShardGroupRunTwicePanics pins the single-use contract.
func TestShardGroupRunTwicePanics(t *testing.T) {
	g := NewShardGroup(1)
	defer g.Close()
	g.Run()
	mustPanic(t, "second Run", func() { g.Run() })
}
