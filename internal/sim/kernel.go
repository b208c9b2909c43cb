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
// simulation deterministic. Events are stored by value in the kernel's
// queue — scheduling one never allocates.
type event struct {
	t   Time
	seq uint64
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
	fn  func()
	tk  *Task
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
// process} is ever running.
type Kernel struct {
	now     Time
	events  eventQueue
	seq     uint64
	live    int // processes spawned and not yet finished
	blocked int // processes and tasks parked without a pending wake event
	limit   Time
	limited bool
	// posT/posSched/posAnc, when posLimited, additionally bound Run by
	// scheduling position: events at instant posT whose scheduling key
	// (schedT, anc) sorts after (posSched, posAnc) stay queued. A
	// ShardGroup uses the bound on the hub to stop exactly where a
	// cross-shard request slots into single-kernel order, and on a leaf
	// to resume a rendezvoused caller exactly at the hub proxy's event
	// position among the leaf's pending same-instant events.
	posT       Time
	posSched   Time
	posAnc     lineage
	posLimited bool
	stopped    bool
	// dying is set while Shutdown unwinds live processes: any process
	// resumed (or attempting to park) while it is set panics with the
	// kill sentinel instead of continuing its body.
	dying bool
	// curSched is the scheduling time of the event currently executing —
	// the recursive half of the (t, schedT) tie-break key a ShardGroup
	// uses to slot cross-partition requests into single-kernel order.
	// curAnc is the executing event's ancestor-lineage vector (event.anc).
	curSched Time
	curAnc   lineage
	mode     ExecMode
	// publish, when set, is called with the new virtual time just before
	// the kernel advances to it — the clock-promise hook a ShardGroup
	// uses for conservative synchronization. Nil outside sharded runs,
	// so the hot loop pays one predictable branch.
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

	// probe is the attached observability sink (nil when unattached) and
	// sched the kernel's own emission handle for scheduler diagnostics.
	// Model components bind their handles at construction via Probe().
	probe *probe.Sink
	sched probe.Ref
}

// NewKernel returns an empty simulation kernel at time zero, executing
// in DefaultExecMode.
func NewKernel() *Kernel {
	return &Kernel{mode: DefaultExecMode}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// ExecMode reports which execution mode model infrastructure should use.
func (k *Kernel) ExecMode() ExecMode { return k.mode }

// SetExecMode overrides the kernel's execution mode. Call it before
// building any model components: they consult the mode at construction
// time to decide between a service process and a callback state machine.
func (k *Kernel) SetExecMode(m ExecMode) { k.mode = m }

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
func (k *Kernel) Live() int { return k.live }

// Blocked reports the number of live processes and callback tasks that
// are parked waiting on a resource, mailbox, barrier or condition (that
// is, with no pending timer). A nonzero value after Run returns
// indicates a deadlock.
func (k *Kernel) Blocked() int { return k.blocked }

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
		fmt.Fprintf(&sb, "\n  %s: %s", t.name, t.waitOp)
		if t.waitObj != "" {
			fmt.Fprintf(&sb, " on %q", t.waitObj)
		}
	}
	return sb.String()
}

// schedule enqueues an event at absolute time t. Events for the current
// instant take the FIFO fast lane (no heap work); future events go into
// the min-heap. Both paths are allocation-free in steady state.
func (k *Kernel) schedule(t Time, fn func(), tk *Task) {
	k.seq++
	e := event{t: t, seq: k.seq, schedT: k.now, fn: fn, tk: tk}
	e.anc[0] = k.curSched
	copy(e.anc[1:], k.curAnc[:len(e.anc)-1])
	if t == k.now {
		k.events.fast.push(e)
	} else {
		k.events.pushHeap(e)
	}
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
	for !k.events.empty() && !k.stopped {
		if k.limited {
			t := k.events.peekTime()
			if t > k.limit {
				k.now = k.limit
				break
			}
			if k.posLimited && t == k.posT {
				e := k.events.peekEvent()
				if schedKeyAfter(e.schedT, &e.anc, k.posSched, &k.posAnc) {
					k.now = t
					break
				}
			}
		}
		e := k.events.pop()
		if k.publish != nil && e.t != k.now {
			k.publish(e.t)
		}
		k.now = e.t
		k.curSched = e.schedT
		k.curAnc = e.anc
		k.sched.Count(probe.KindEvents, 1)
		if e.fn != nil {
			e.fn()
			continue
		}
		tk := e.tk
		if tk.finished {
			continue // stale wake for a process/task that already exited
		}
		if p := tk.proc; p != nil {
			k.activate(p)
			continue
		}
		tk.dispatch()
	}
	return k.now
}

// RunUntil executes events with virtual time capped at limit and returns
// the final time (at most limit).
func (k *Kernel) RunUntil(limit Time) Time {
	k.limit, k.limited = limit, true
	defer func() { k.limit, k.limited = 0, false }()
	return k.Run()
}

// schedKeyAfter reports whether scheduling key (s, a) sorts strictly
// after (ps, pa): later scheduling instant first, ancestor lineage as
// the recursive tie-break. Equal keys are not after — a position bound
// admits events whose key ties it exactly.
func schedKeyAfter(s Time, a *lineage, ps Time, pa *lineage) bool {
	if s != ps {
		return s > ps
	}
	for i := range a {
		if a[i] != pa[i] {
			return a[i] > pa[i]
		}
	}
	return false
}

// RunUntilPos executes events up to the scheduling position (limit,
// sched, anc): every event at instants before limit, plus events at
// limit whose scheduling key sorts at or before (sched, anc). A
// ShardGroup uses it to stop a kernel exactly at a single-kernel queue
// position — the hub where a cross-shard request belongs (an event at
// the request's instant scheduled after the request's issuing leaf
// event would have carried a larger sequence number in a single
// kernel), a leaf where a rendezvoused caller resumes (the hub proxy's
// event position among the leaf's pending same-instant events).
func (k *Kernel) RunUntilPos(limit, sched Time, anc lineage) Time {
	k.limit, k.limited = limit, true
	k.posT, k.posSched, k.posAnc, k.posLimited = limit, sched, anc, true
	defer func() {
		k.limit, k.limited = 0, false
		k.posT, k.posSched, k.posAnc, k.posLimited = 0, 0, lineage{}, false
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

// NextEventKey returns the earliest pending event's timestamp and
// scheduling key. Within one kernel same-instant events execute in
// sequence order and sequence order respects scheduling keys, so this
// is a lower bound on the key of anything the kernel will execute — or
// send — at that instant. A ShardGroup publishes it so the hub can
// order a parked leaf's remaining same-instant work against pending
// cross-shard requests.
func (k *Kernel) NextEventKey() (t, sched Time, anc lineage, ok bool) {
	if k.events.empty() {
		return 0, 0, lineage{}, false
	}
	e := k.events.peekEvent()
	return e.t, e.schedT, e.anc, true
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

// KernelSnapshot is a point-in-time view of a kernel's scheduler state,
// taken between events. ShardGroup reads it for quiescence detection
// and stall diagnostics; tests use it to assert partition health.
type KernelSnapshot struct {
	Now           Time
	PendingEvents int
	Live          int // spawned processes not yet finished
	LiveTasks     int // bare callback tasks not yet finished
	Blocked       int // parked without a pending wake event
}

// Snapshot captures the kernel's scheduler state. Call it only from the
// goroutine that owns the kernel (between events), like every other
// kernel method.
func (k *Kernel) Snapshot() KernelSnapshot {
	return KernelSnapshot{
		Now:           k.now,
		PendingEvents: k.events.len(),
		Live:          k.live,
		LiveTasks:     k.liveTasks,
		Blocked:       k.blocked,
	}
}

// procKilled is the sentinel Shutdown throws through a live process
// body to unwind it; Proc.runBody absorbs it.
type procKilled struct{}

// Shutdown aborts a run in progress: every live process — parked on a
// timer, a waiter queue, an Await, or not yet started — is resumed into
// a panic that unwinds its body, returning its coroutine to the free
// pool, and parked callback tasks are marked finished; then the
// pool is released via Close. Afterwards Blocked() is zero and
// DeadlockReport returns "": a cancelled simulation leaves no parked
// procs and leaks no goroutines. Like Close, Shutdown must only be
// called between runs (never while Run is executing), and the kernel's
// model state is unspecified afterwards — discard the kernel. It is
// idempotent.
func (k *Kernel) Shutdown() {
	k.dying = true
	// Unwinding bodies can in principle spawn (a defer that starts a
	// process), so index rather than range: appended procs are visited.
	for i := 0; i < len(k.procs); i++ {
		p := k.procs[i]
		if p == nil || p.finished {
			continue
		}
		k.activate(p)
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
// coroutines stay suspended for the life of the OS process. The kernel
// remains usable afterwards (Spawn simply creates fresh coroutines).
// Close is idempotent and must not be called while the kernel is
// running.
func (k *Kernel) Close() {
	for i, p := range k.procFree {
		p.stop()
		k.procFree[i] = nil
	}
	k.procFree = k.procFree[:0]
}

// activate hands control to p and returns once p parks or finishes. The
// switch goes straight to p's coroutine and back without entering the
// Go scheduler. A panic in p's body (other than the Shutdown sentinel)
// surfaces here, on the kernel's goroutine.
func (k *Kernel) activate(p *Proc) {
	k.running = p
	p.next()
	k.running = nil
}

// Handoff transfers control to a process parked in Await, resuming it
// inline: p runs inside the *current* event until its next park, exactly
// where a blocking call in p's own body would have resumed. This is the
// synchronous-call bridge for event-mode state machines that service a
// parked caller — scheduling a wake event instead would let other
// already-queued same-time events run first, reordering resource grants
// relative to the blocking API. Handoff must be called from kernel
// context (an event callback or a task continuation); calling it while
// a process is running panics, since two runnable processes would break
// deterministic ordering.
func (k *Kernel) Handoff(p *Proc) {
	if k.running != nil {
		panic(fmt.Sprintf("sim: Handoff(%q) from process %q; Handoff is only valid in kernel context", p.name, k.running.name))
	}
	k.sched.Count(probe.KindHandoffs, 1)
	k.activate(p)
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
	k.activate(k.newProc(name, body))
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
		p.next, p.stop = iter.Pull(p.run)
	}
	p.name, p.id = name, k.procSeq
	p.body = body
	k.live++
	if !p.inReg {
		if len(k.procs) >= 64 && len(k.procs) >= 2*k.live {
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
	}()
	p.body(p)
}

// park suspends the process until another event wakes it. The caller is
// responsible for having arranged a wake-up (a timer or registration in
// a waiter queue); parking with neither deadlocks that process.
//
// The switch back to the kernel is a direct coroutine switch: it does
// not allocate, does not enter the Go scheduler, and leaves exactly one
// of {kernel, one process} running.
func (p *Proc) park() {
	if p.k.dying {
		panic(procKilled{})
	}
	p.yield(struct{}{})
	if p.k.dying {
		panic(procKilled{})
	}
}

// parkBlocked is park for processes waiting on a condition rather than a
// timer; it maintains the kernel's blocked count and records the wait
// site (obj may be empty for unnamed primitives) for deadlock reporting.
func (p *Proc) parkBlocked(obj, op string) {
	p.waitObj, p.waitOp = obj, op
	p.k.sched.Count(probe.KindParks, 1)
	p.k.blocked++
	p.park()
	p.k.blocked--
	p.waitObj, p.waitOp = "", ""
}

// Await parks the process until a state machine hands control back with
// Kernel.Handoff. The wait site appears in DeadlockReport like any other
// blocking primitive. Unlike the waiter-queue primitives there is no
// queue and no wake event: the matching Handoff resumes the process
// inline, inside the event that completed the work on its behalf.
func (p *Proc) Await(obj, op string) { p.parkBlocked(obj, op) }

// Delay advances this process's virtual time by d. A non-positive d
// yields to other events scheduled at the current time.
func (p *Proc) Delay(d Time) {
	if d < 0 {
		d = 0
	}
	p.k.scheduleProc(p, p.k.now+d)
	p.park()
}

// Yield lets every other event already scheduled at the current time run
// before this process continues.
func (p *Proc) Yield() { p.Delay(0) }
