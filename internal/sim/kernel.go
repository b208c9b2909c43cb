//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"strings"

	"howsim/internal/probe"
)

// event is a scheduled occurrence: either a kernel-context callback (fn)
// or the wake-up of a parked task (tk) — resuming a process coroutine or
// dispatching a callback-mode continuation. Events at equal times fire
// in the order they were scheduled (seq breaks ties), which keeps the
// simulation deterministic. Each event lives in one 32-byte slot of the
// kernel's queue slab from schedule until it runs — scheduling one
// never allocates, and only 24-byte keys move through the timer heap.
type event struct {
	t   Time
	seq uint64
	fn  func()
	tk  *Task
}

// eventKey is an event's shard-ordering key. Only kernels built by
// NewShardGroup keep one per event (eventQueue.keys); event mode orders
// by (t, seq) alone and never writes or reads them.
type eventKey struct {
	// schedT is the virtual time at which the event was scheduled. Among
	// events sharing a timestamp, seq order respects schedT order (an
	// event scheduled at an earlier instant was necessarily enqueued
	// first), which is what lets sharded execution reconstruct the
	// single-kernel tie-break for requests arriving from different
	// partitions: order by (t, schedT, shard).
	schedT Time
	// anc extends schedT up the scheduling chain: anc[0] is the schedT of
	// the event that scheduled this one, anc[1] its scheduler's, and so
	// on. When two events tie on (t, schedT), their seq order is the
	// execution order of their scheduler events at that instant — which
	// recurses the same comparison one level up. A ShardGroup uses the
	// vector to slot same-instant requests from different partitions into
	// single-kernel order when one level of schedT cannot separate them
	// (lockstep processes whose chains diverge deeper in their history).
	anc lineage
}

// lineage is a fixed window of ancestor scheduling instants, newest
// first: lineage[0] is the schedT of an event's scheduler, lineage[1]
// its scheduler's, and so on.
type lineage [7]Time

// Kernel is a discrete-event simulation scheduler. Create one with
// NewKernel, spawn processes with Spawn, and advance virtual time with
// Run (or RunUntil). A Kernel is not safe for concurrent use: all
// interaction happens from the goroutine that calls Run and from the
// process coroutines it resumes. Resuming a coroutine suspends the
// caller until the process parks, so exactly one of {kernel, one
// process} is ever running. When a kernel has a single live process,
// that process runs the kernel's callback events itself on its own
// stack while it waits (see Proc.parkInline); the events, their order
// and the kernel's bookkeeping are those Run would have produced.
type Kernel struct {
	now     Time
	events  eventQueue
	seq     uint64
	live    int32 // processes spawned and not yet finished
	blocked int32 // processes and tasks parked without a pending wake event
	limit   Time
	// posKey, when posLimited, additionally bounds Run by scheduling
	// position: events at instant limit whose scheduling key sorts after
	// posKey stay queued. A ShardGroup uses the bound on the hub to stop
	// exactly where a cross-shard request slots into single-kernel order,
	// and on a leaf to resume a rendezvoused caller exactly at the hub
	// proxy's event position among the leaf's pending same-instant events.
	posKey     eventKey
	limited    bool
	posLimited bool
	stopped    bool
	// dying is set while Shutdown unwinds live processes: any process
	// resumed (or attempting to park) while it is set panics with the
	// kill sentinel instead of continuing its body.
	dying bool
	// sharded marks a kernel built by NewShardGroup: only such a kernel
	// keeps a shard-ordering key per event (events.keys) and tracks cur.
	// Event mode pays one predictable branch in schedule and one in the
	// loop.
	sharded bool
	// cur is the shard-ordering key of the event currently executing —
	// the recursive half of the (t, schedT) tie-break a ShardGroup uses
	// to slot cross-partition requests into single-kernel order.
	cur eventKey
	// publish, when set, is called with the new virtual time just before
	// the kernel advances to it — the clock-promise hook a ShardGroup
	// uses for conservative synchronization. Nil outside leaf kernels.
	publish func(Time)
	procSeq int
	procs   []*Proc // every spawned process, for deadlock reporting
	// procFree holds finished processes whose coroutines are suspended
	// between bodies awaiting reuse; Spawn pops from it so steady-state
	// spawning allocates nothing. Close stops them.
	procFree  []*Proc
	tasks     []*Task // every bare callback task, for deadlock reporting
	taskFree  []*Task
	liveTasks int
	running   *Proc // the process currently executing, nil in kernel context
	inline    *Proc // the lone process running the event loop on its stack, if any
	// inlinePanic carries a panic raised by an event a lone process ran
	// inline (runInline) back to the kernel's goroutine; Run's loop
	// raises it again once the process has parked.
	inlinePanic any

	// probe is the attached observability sink (nil when unattached) and
	// sched the kernel's own emission handle for scheduler diagnostics.
	// Model components bind their handles at construction via Probe().
	probe *probe.Sink
	sched probe.Ref
}

// NewKernel returns an empty simulation kernel at time zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// SetProbe attaches an observability sink. Call it before building any
// model components: they bind their emission handles at construction.
// A nil sink detaches. Attaching a disabled sink costs one predictable
// branch per emission point — the kernel benches gate that it stays
// allocation-free.
func (k *Kernel) SetProbe(s *probe.Sink) {
	k.probe = s
	k.sched = s.Register(probe.SchedComponent, "kernel")
}

// Probe returns the attached observability sink (nil when unattached).
func (k *Kernel) Probe() *probe.Sink { return k.probe }

// Live reports the number of processes that have been spawned and have
// not yet run to completion.
func (k *Kernel) Live() int { return int(k.live) }

// Blocked reports the number of live processes and callback tasks that
// are parked waiting on a resource, mailbox, barrier or condition (that
// is, with no pending timer). A nonzero value after Run returns
// indicates a deadlock.
func (k *Kernel) Blocked() int { return int(k.blocked) }

// DeadlockReport describes every process and callback task currently
// parked on a blocking primitive: its name and the wait site (operation
// and primitive name). It returns "" when nothing is blocked. Call it
// after Run returns to turn a silent hang into an actionable message —
// the event queue draining while work is still parked is a deadlock.
func (k *Kernel) DeadlockReport() string {
	if k.blocked == 0 {
		return ""
	}
	k.sched.Count(probe.KindDeadlock, int64(k.blocked))
	var sb strings.Builder
	fmt.Fprintf(&sb, "deadlock: %d process(es) parked with no pending wake:", k.blocked)
	for _, p := range k.procs {
		if p.finished || p.waitOp == "" {
			continue
		}
		fmt.Fprintf(&sb, "\n  %s: %s", p.name, p.waitOp)
		if p.waitObj != "" {
			fmt.Fprintf(&sb, " on %q", p.waitObj)
		}
	}
	for _, t := range k.tasks {
		if t.finished || t.waitOp == "" {
			continue
		}
		fmt.Fprintf(&sb, "\n  %s: %s", t.Name(), t.waitOp)
		if t.waitObj != "" {
			fmt.Fprintf(&sb, " on %q", t.waitObj)
		}
	}
	return sb.String()
}

// schedule enqueues an event at absolute time t, filling a queue slot
// in place. Events for the current instant take the FIFO fast lane (no
// heap work); future events go into the min-heap. Both paths are
// allocation-free in steady state.
func (k *Kernel) schedule(t Time, fn func(), tk *Task) {
	k.seq++
	s, e := k.events.alloc()
	e.t, e.seq, e.fn, e.tk = t, k.seq, fn, tk
	if k.sharded {
		key := k.events.key(s)
		key.schedT = k.now
		key.anc[0] = k.cur.schedT
		copy(key.anc[1:], k.cur.anc[:len(key.anc)-1])
	}
	k.events.push(s, k.now)
}

// At schedules fn to run in kernel context at absolute time t. Scheduling
// in the past panics: the kernel never travels backwards.
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	k.schedule(t, fn, nil)
}

// After schedules fn to run in kernel context d from now.
func (k *Kernel) After(d Time, fn func()) { k.At(k.now+d, fn) }

func (k *Kernel) scheduleProc(p *Proc, t Time) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling process %q at %v before now %v", p.name, t, k.now))
	}
	k.schedule(t, nil, &p.Task)
}

// Stop halts the simulation: Run returns after the currently running
// event completes. Pending events remain queued.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events until the event queue drains, Stop is called, or
// (if RunUntil set a limit) the limit is reached. It returns the final
// virtual time.
func (k *Kernel) Run() Time {
	k.loop(nil)
	return k.now
}

// loop is the event loop. Run calls it with self nil: it pops each
// event in order and runs its callback or resumes its process, until
// the queue drains, Stop is called or a RunUntil/runUntilPos bound is
// reached. A lone process runs the same loop on its own stack while it
// parks (runInline) with self set to itself; the loop then returns true
// as soon as self's own wake comes up — or a callback ends self's chain
// without one (Task.EndChain) — leaving the kernel as Run's dispatch
// would and self free to continue its body. Where Run would
// stop it returns false without consuming the head event, and the
// parked process yields so Run re-evaluates that event.
func (k *Kernel) loop(self *Proc) bool {
	for !k.events.empty() && !k.stopped {
		if k.limited {
			t := k.events.peekTime()
			if t > k.limit {
				k.now = k.limit
				return false
			}
			if k.posLimited && t == k.limit &&
				schedKeyAfter(&k.events.keys[k.events.peekSlot()], &k.posKey) {
				k.now = t
				return false
			}
		}
		// The popped slot is free again: copy the event out and clear
		// its references before anything can schedule into it.
		s := k.events.pop()
		e := &k.events.slab[s]
		t, fn, tk := e.t, e.fn, e.tk
		e.fn, e.tk = nil, nil
		if k.sharded {
			k.cur = k.events.keys[s]
			if k.publish != nil && t != k.now {
				k.publish(t)
			}
		}
		k.now = t
		k.sched.Count(probe.KindEvents, 1)
		switch {
		case fn != nil:
			fn()
		case tk.finished:
			continue // stale wake for a process/task that already exited
		case tk.waitKind == taskWaitNone && tk.proc != nil:
			p := tk.proc
			if p == self {
				k.running = p
				return true
			}
			k.activate(p, true)
			if r := k.inlinePanic; r != nil {
				k.inlinePanic = nil
				panic(r)
			}
			continue
		default:
			// A bare task's wake, or a step of a process sleeping in a
			// chain (its Task parked in a *Func primitive).
			tk.dispatch()
		}
		if self != nil && self.chain == chainEnded {
			// The callback ended self's chain without a wake (EndChain).
			k.running = self
			return true
		}
	}
	return false
}

// runInline runs the event loop on p's stack while p parks as its
// kernel's only live process (see Proc.parkInline) and reports whether
// p's own wake came up. A panic from an event run here must not unwind
// p's body: p's deferred calls would run mid-wait, and p would die
// without finishing, which a process parked under Run never does. The
// panic is handed to the kernel instead: p parks for real and Run's
// loop raises it again on the kernel's goroutine as soon as p's
// activation returns, so it surfaces from Run with p parked, its wake
// still queued, as if Run had run the event.
func (k *Kernel) runInline(p *Proc) (woke bool) {
	defer func() {
		k.inline = nil
		if r := recover(); r != nil {
			k.inlinePanic = r
			woke = false
		}
	}()
	k.running, k.inline = nil, p
	return k.loop(p)
}

// RunUntil executes events with virtual time capped at limit and returns
// the final time (at most limit).
func (k *Kernel) RunUntil(limit Time) Time {
	k.limit, k.limited = limit, true
	defer func() { k.limit, k.limited = 0, false }()
	return k.Run()
}

// schedKeyAfter reports whether scheduling key a sorts strictly after
// b: later scheduling instant first, ancestor lineage as the recursive
// tie-break. Equal keys are not after — a position bound admits events
// whose key ties it exactly.
func schedKeyAfter(a, b *eventKey) bool {
	if a.schedT != b.schedT {
		return a.schedT > b.schedT
	}
	for i := range a.anc {
		if a.anc[i] != b.anc[i] {
			return a.anc[i] > b.anc[i]
		}
	}
	return false
}

// runUntilPos executes events up to the scheduling position (limit,
// key): every event at instants before limit, plus events at limit
// whose scheduling key sorts at or before key. A ShardGroup uses it to
// stop a kernel exactly at a single-kernel queue position — the hub
// where a cross-shard request belongs (an event at the request's
// instant scheduled after the request's issuing leaf event would have
// carried a larger sequence number in a single kernel), a leaf where a
// rendezvoused caller resumes (the hub proxy's event position among the
// leaf's pending same-instant events). The kernel must be sharded.
func (k *Kernel) runUntilPos(limit Time, key eventKey) Time {
	k.limit, k.limited = limit, true
	k.posKey, k.posLimited = key, true
	defer func() {
		k.limit, k.limited = 0, false
		k.posKey, k.posLimited = eventKey{}, false
	}()
	return k.Run()
}

// NextEventTime returns the timestamp of the earliest pending event and
// whether one exists.
func (k *Kernel) NextEventTime() (Time, bool) {
	if k.events.empty() {
		return 0, false
	}
	return k.events.peekTime(), true
}

// nextEventKey returns the earliest pending event's timestamp and
// scheduling key. Within one kernel same-instant events execute in
// sequence order and sequence order respects scheduling keys, so this
// is a lower bound on the key of anything the kernel will execute — or
// send — at that instant. A ShardGroup publishes it so the hub can
// order a parked leaf's remaining same-instant work against pending
// cross-shard requests. The kernel must be sharded.
func (k *Kernel) nextEventKey() (t Time, key eventKey, ok bool) {
	if k.events.empty() {
		return 0, eventKey{}, false
	}
	s := k.events.peekSlot()
	return k.events.slab[s].t, k.events.keys[s], true
}

// AdvanceTo moves the clock forward to t without executing anything.
// A ShardGroup uses it to align the hub kernel with an inbound
// cross-shard message before injecting it. Jumping over a pending event
// (or backwards) panics: that would execute the skipped event in the
// past.
func (k *Kernel) AdvanceTo(t Time) {
	if t < k.now {
		panic(fmt.Sprintf("sim: AdvanceTo %v before now %v", t, k.now))
	}
	if nt, ok := k.NextEventTime(); ok && nt < t {
		panic(fmt.Sprintf("sim: AdvanceTo %v would skip event at %v", t, nt))
	}
	k.now = t
}

// setPublish installs the clock-promise hook: fn is called with the new
// time whenever the kernel is about to advance its clock. Sharded
// execution uses it to publish a conservative horizon ("I will send
// nothing earlier than this") to the other partitions.
func (k *Kernel) setPublish(fn func(Time)) { k.publish = fn }

// procKilled is the sentinel Shutdown throws through a live process
// body to unwind it; Proc.runBody absorbs it.
type procKilled struct{}

// Shutdown aborts a run in progress: every live process — parked on a
// timer, a waiter queue, an Await, or not yet started — is resumed into
// a panic that unwinds its body, returning its coroutine to the free
// pool, and parked callback tasks are marked finished; then the
// pool's coroutines are stopped via Close. Afterwards Blocked() is
// zero, DeadlockReport returns "" and no goroutine of the kernel's
// survives: a cancelled simulation leaves no parked procs and leaks no
// goroutines. Like Close, Shutdown must only be called between runs
// (never while Run is executing), and the kernel's model state is
// unspecified afterwards — discard the kernel, or Recycle it for a new
// run. It is idempotent.
func (k *Kernel) Shutdown() {
	k.dying = true
	// Unwinding bodies can in principle spawn (a defer that starts a
	// process), so index rather than range: appended procs are visited.
	for i := 0; i < len(k.procs); i++ {
		p := k.procs[i]
		if p == nil || p.finished {
			continue
		}
		k.activate(p, false)
	}
	k.dying = false
	for _, tk := range k.tasks {
		if tk == nil || tk.finished {
			continue
		}
		if tk.waitOp != "" {
			tk.waitOp, tk.waitObj = "", ""
			k.blocked--
		}
		tk.finished = true
		k.liveTasks--
	}
	k.Close()
}

// Close stops the pooled coroutines of finished processes; each one's
// goroutine has exited when Close returns. Call it once after the final
// Run on kernels that spawned processes; without it the pooled
// coroutines stay suspended for the life of the OS process. The stopped
// processes' records stay in the free pool, cleared of everything but
// their kernel, and Spawn gives such a record a fresh coroutine, so the
// kernel remains usable afterwards. Close is idempotent and must not be
// called while the kernel is running.
func (k *Kernel) Close() {
	for _, p := range k.procFree {
		if p.stop == nil {
			continue // stopped by an earlier Close
		}
		p.stop()
		*p = Proc{Task: Task{k: k, proc: p, finished: true, inReg: p.inReg}}
	}
}

// Recycle returns a shut-down kernel to the state NewKernel returns, so
// that a new run can reuse its storage: the event slab, its free list
// and the timer heap keep their capacity, and every bare task and
// process record stays pooled. Nothing else survives — the clock,
// sequence numbers and task IDs restart from zero, pending events are
// dropped, the registries are emptied, the probe is detached and no
// pooled record keeps a reference into the previous run's model — so a
// run on a recycled kernel is event-for-event the run a new kernel
// would execute. Call it only after Shutdown.
func (k *Kernel) Recycle() {
	q := &k.events
	clear(q.slab)
	q.slab, q.keys, q.free, q.heap = q.slab[:0], nil, q.free[:0], q.heap[:0]
	q.fast.head, q.fast.n = 0, 0
	// Every bare task is in the registry, the free pool or both. Clearing
	// the pooled ones also unmarks them as registered, so the registered
	// ones left are those Finish never pooled: the tasks Shutdown ended.
	for _, t := range k.taskFree {
		*t = Task{k: k}
	}
	for i, t := range k.tasks {
		if t.inReg {
			*t = Task{k: k}
			k.taskFree = append(k.taskFree, t)
		}
		k.tasks[i] = nil
	}
	// Close has cleared the pooled processes; a process whose body
	// panicked never returned to the pool and is dropped with the
	// registry.
	for _, p := range k.procFree {
		p.inReg = false
	}
	clear(k.procs)
	*k = Kernel{
		events:   *q,
		procs:    k.procs[:0],
		procFree: k.procFree,
		tasks:    k.tasks[:0],
		taskFree: k.taskFree,
	}
}

// activate hands control to p and returns once p parks or finishes. The
// switch goes straight to p's coroutine and back without entering the
// Go scheduler. A panic in p's body (other than the Shutdown sentinel)
// surfaces here, on the kernel's goroutine; one from an event p ran
// inline surfaces just after, from Run's loop. fromRun marks a resumption by the event loop's dispatch —
// the only activation whose next park may run the loop inline
// (parkInline); EndChain, spawnInline, a shard delivery and Shutdown
// pass false. A process the loop resumes while a lone process runs it inline
// has that process as a second live one, so it never inlines itself.
func (k *Kernel) activate(p *Proc, fromRun bool) {
	k.running = p
	p.fromRun = fromRun
	p.next()
	k.running = nil
}

// Proc is a simulation process: a coroutine whose execution is
// interleaved with virtual time. Process bodies call the blocking
// methods (Delay, Resource.Acquire, Mailbox.Get, ...) to advance the
// clock; between those calls they execute instantaneously in simulation
// time. The embedded Task carries the process's identity and wait state,
// so processes and callback tasks share the same waiter queues.
type Proc struct {
	Task
	// next resumes the coroutine (kernel side), yield suspends it
	// (process side) and stop ends a pooled one; see run.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()
	body  func(*Proc)
	// xrank is the delivery rank of the cross-shard rendezvous that most
	// recently resumed this process (ShardGroup.respond): the tie-break
	// that orders same-position requests from processes running in
	// lockstep by the hub-side order that last sequenced them — a
	// barrier's FIFO wake order, a mailbox grant order — which is the
	// order their chains hold in a single kernel. Zero until first
	// resumed.
	xrank uint64
	// chainFin is what a chained process runs in its own body once the
	// wake that ends its chain arrives (Task.EndChainAfter).
	chainFin func()
}

// Spawn creates a process running body and schedules it to start at the
// current virtual time. It may be called before Run or from inside any
// process or event callback. Finished processes park their coroutine
// in a free pool and Spawn reuses them — steady-state spawning performs
// no allocation and creates no goroutine.
func (k *Kernel) Spawn(name string, body func(*Proc)) *Proc {
	p := k.newProc(name, body)
	k.scheduleProc(p, k.now)
	return p
}

// spawnInline creates a process like Spawn but hands control to it
// immediately — inline at the caller's position, with no start event —
// returning once the process parks or finishes. It must be called from
// kernel context between events. A ShardGroup uses it to execute a
// cross-shard request at the exact queue position of the leaf event
// that issued it: a start event scheduled at the current instant would
// sort after every event already pending at this time.
func (k *Kernel) spawnInline(name string, body func(*Proc)) {
	k.activate(k.newProc(name, body), false)
}

// newProc prepares a process (reusing a pooled coroutine when possible)
// without scheduling or running it.
func (k *Kernel) newProc(name string, body func(*Proc)) *Proc {
	k.procSeq++
	var p *Proc
	if n := len(k.procFree); n > 0 {
		p = k.procFree[n-1]
		k.procFree[n-1] = nil
		k.procFree = k.procFree[:n-1]
		p.finished = false
	} else {
		p = &Proc{}
		p.k = k
		p.proc = p
	}
	if p.next == nil {
		// A new record, or one whose coroutine Close stopped.
		p.next, p.stop = iter.Pull(p.run)
	}
	p.name, p.id = name, k.procSeq
	p.body = body
	k.live++
	if !p.inReg {
		if len(k.procs) >= 64 && len(k.procs) >= 2*int(k.live) {
			// Mostly-finished registry: compact so long runs that spawn
			// short-lived processes don't accumulate dead entries.
			live := k.procs[:0]
			for _, q := range k.procs {
				if !q.finished {
					live = append(live, q)
				} else {
					q.inReg = false
				}
			}
			for i := len(live); i < len(k.procs); i++ {
				k.procs[i] = nil
			}
			k.procs = live
		}
		k.procs = append(k.procs, p)
		p.inReg = true
	}
	return p
}

// run is the coroutine behind a process; the first activate starts it.
// After a body returns the coroutine puts itself in the kernel's free
// pool and suspends until Spawn reuses it with a new body — or Close
// stops it, which makes yield report false and lets it return. The pool
// mutations are safe without locks: they happen while the kernel is
// suspended in activate.
func (p *Proc) run(yield func(struct{}) bool) {
	p.yield = yield
	k := p.k
	for {
		p.runBody()
		p.body = nil
		p.finished = true
		k.live--
		k.procFree = append(k.procFree, p)
		if !yield(struct{}{}) {
			return
		}
	}
}

// runBody executes the process body, absorbing the kill sentinel that
// Kernel.Shutdown throws through parked bodies. A killed process counts
// as finished; if it was parked on a blocking primitive its wait site
// is cleared so the kernel's blocked count — and DeadlockReport — come
// out clean.
func (p *Proc) runBody() {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if _, ok := r.(procKilled); !ok {
			panic(r)
		}
		if p.waitOp != "" {
			p.waitOp, p.waitObj = "", ""
			p.k.blocked--
		}
		// A process killed mid-chain may have its Task parked in a
		// *Func primitive; it is not in a chain any more.
		p.waitKind, p.chain, p.chainFin = taskWaitNone, chainOff, nil
		p.xferPipe, p.xferCont = nil, nil
	}()
	p.body(p)
}

// park suspends the process until another event wakes it. The caller is
// responsible for having arranged a wake-up (a timer or registration in
// a waiter queue); parking with neither deadlocks that process.
//
// The switch back to the kernel is a direct coroutine switch: it does
// not allocate, does not enter the Go scheduler, and leaves exactly one
// of {kernel, one process} running. Delay and parkBlocked try
// parkInline first, so park stays small enough to inline into them.
func (p *Proc) park() {
	if p.k.dying {
		panic(procKilled{})
	}
	p.yield(struct{}{})
	if p.k.dying {
		panic(procKilled{})
	}
}

// parkInline is park without the switch, for a process that Run resumed
// and that is its kernel's only live process: it runs the kernel's
// event loop itself (runInline) and reports true once its own wake has
// come up. It reports false — and the caller parks for real — when the
// process is not eligible or the loop stops where Run would stop: a
// bound, Stop, an empty queue, or a panicking event. The loop is Run's
// own, so the events between the park and the wake run in Run's order
// with Run's bookkeeping and the result is the same; a process that a
// callback spawns meanwhile is resumed from the lone process's stack
// exactly where Run would resume it. Shutdown never resumes a process
// with fromRun set, so a dying kernel always takes park's path.
func (p *Proc) parkInline() bool {
	return p.fromRun && p.k.live == 1 && p.k.runInline(p)
}

// parkBlocked is park for processes waiting on a condition rather than a
// timer; it maintains the kernel's blocked count and records the wait
// site (obj may be empty for unnamed primitives) for deadlock reporting.
func (p *Proc) parkBlocked(obj, op string) {
	p.block(obj, op)
	if !p.parkInline() {
		p.park()
	}
	p.unblock()
}

// block records that p waits on a blocking primitive: the wait site,
// the park count and the kernel's blocked count. unblock undoes it once
// p has been woken.
func (p *Proc) block(obj, op string) {
	p.waitObj, p.waitOp = obj, op
	p.k.sched.Count(probe.KindParks, 1)
	p.k.blocked++
}

func (p *Proc) unblock() {
	p.k.blocked--
	p.waitObj, p.waitOp = "", ""
}

// Await parks the process with no wake arranged: it resumes only when
// kernel code activates it directly — a ShardGroup delivering the
// completion of the process's cross-shard call (Shard.Call). The wait
// site appears in DeadlockReport like any other blocking primitive.
// Await always switches back to the kernel, even for a lone process
// (see parkInline): there is no wake event for an inline loop to stop
// at, and the process must be resumed from kernel context, not from a
// callback running on its own stack.
func (p *Proc) Await(obj, op string) {
	p.fromRun = false
	p.parkBlocked(obj, op)
}

// Delay advances this process's virtual time by d. A non-positive d
// yields to other events scheduled at the current time.
func (p *Proc) Delay(d Time) {
	if d < 0 {
		d = 0
	}
	p.k.scheduleProc(p, p.k.now+d)
	if !p.parkInline() {
		p.park()
	}
}
