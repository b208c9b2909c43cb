package sim

import (
	"fmt"

	"howsim/internal/probe"
)

// ExecMode selects how a kernel's model infrastructure executes its hot
// service loops.
type ExecMode int

const (
	// ModeEvent runs infrastructure service loops (disk servicing, link
	// forwarding, bus arbitration, stream pumps) as callback state
	// machines in kernel context via the Task API — no goroutine
	// handoffs on the hot path.
	ModeEvent ExecMode = iota
	// ModeGoroutine runs every model component as a goroutine process
	// (the original execution model). Retained as a cross-check: both
	// modes must render byte-identical figures.
	ModeGoroutine
	// ModeParallel is ModeEvent plus intra-simulation sharding: runs
	// whose topology supports it are partitioned into per-disk subkernels
	// driven by a ShardGroup, each subkernel executing the event-driven
	// fast path on its own core. Model components treat it exactly like
	// ModeEvent (they test for ModeGoroutine); the tasks layer decides
	// whether a given (architecture, task) pair shards.
	ModeParallel
)

func (m ExecMode) String() string {
	switch m {
	case ModeEvent:
		return "event"
	case ModeGoroutine:
		return "goroutine"
	case ModeParallel:
		return "parallel"
	}
	return fmt.Sprintf("ExecMode(%d)", int(m))
}

// ParseExecMode converts a -procmode flag value to an ExecMode.
func ParseExecMode(s string) (ExecMode, error) {
	switch s {
	case "event":
		return ModeEvent, nil
	case "goroutine":
		return ModeGoroutine, nil
	case "parallel":
		return ModeParallel, nil
	}
	return ModeEvent, fmt.Errorf("sim: unknown exec mode %q (want event, goroutine or parallel)", s)
}

// DefaultExecMode is copied into every kernel built by NewKernel. The
// event-driven fast path is the default; tests flip this to cross-check
// the two modes against each other.
var DefaultExecMode = ModeEvent

// taskWait identifies which primitive a callback task is parked on, so
// the kernel knows how to resume it when its wake event fires.
type taskWait uint8

const (
	taskWaitNone taskWait = iota
	taskWaitGet
	taskWaitPut
	taskWaitAcquire
	taskWaitSignal
)

// Task is an execution identity for model code. Every process
// owns one (Proc embeds Task), and callback-mode state machines use a
// bare Task from Kernel.NewTask: a handle that can park in the same
// waiter queues as processes — carrying a name, ID and wait site for
// deadlock reporting — but resumes by running a stored continuation in
// kernel context instead of resuming a process coroutine. Bare tasks are
// pooled (NewTask after Finish reuses storage) and parking/waking one
// never allocates, which is what makes the event-driven fast path
// allocation-free in steady state.
type Task struct {
	name string
	id   int
	k    *Kernel
	proc *Proc // non-nil when this task is the identity of a process

	finished bool
	inReg    bool // present in the kernel's registry (procs or tasks slice)

	// granted is scratch state for Resource acquisition: a parked task
	// waits on at most one resource at a time, so keeping the flag here
	// lets the waiter queue hold plain values instead of allocating a
	// per-wait record.
	granted bool
	// waitSeq is the task's wait token. Entries in waiter queues carry
	// the token current when they enqueued; any waker (a grant or a
	// timeout) increments it before scheduling the wake, which both marks
	// other queued entries for this task stale and guarantees at most
	// one wake per wait — the arbitration that makes timed waits safe
	// when a grant and an expiry land on the same timestamp.
	waitSeq uint64
	// timedOut is set by a timeout wake so the resumed process can tell
	// expiry apart from a grant.
	timedOut bool
	// waitObj/waitOp describe the current blocking wait site (primitive
	// name and operation) for deadlock reporting. Both are empty while
	// the task is runnable or sleeping on a timer. Two fields instead
	// of one formatted string keep the park path allocation-free.
	waitObj string
	waitOp  string

	// Callback-mode park state: which primitive the task is parked on
	// and the continuation to run when the wake arrives. waitMb is kept
	// so a woken getter/putter can re-check the mailbox (the item may
	// have been taken by an earlier waiter at the same timestamp) and
	// re-park, exactly like the retry loop in the goroutine API.
	waitKind taskWait
	waitMb   *Mailbox
	getCont  func(v any, ok bool)
	putCont  func(error)
	putVal   any
	acqCont  func()
	sigCont  func()

	// In-flight Pipe.TransferFunc state. The two step continuations are
	// bound method values created once per task and reused for every
	// transfer, keeping the pipe fast path allocation-free. xferDur
	// carries the transfer duration computed at acquisition so the
	// completion path never recomputes TransferDuration.
	xferPipe  *Pipe
	xferBytes int64
	xferDur   Time
	xferCont  func()
	xferAcqFn func()
	xferEndFn func()
}

// Name returns the name the task was created with.
func (t *Task) Name() string { return t.name }

// ID returns a unique small integer identifying the task.
func (t *Task) ID() int { return t.id }

// Kernel returns the kernel this task belongs to.
func (t *Task) Kernel() *Kernel { return t.k }

// Now returns the current virtual time.
func (t *Task) Now() Time { return t.k.now }

// NewTask creates (or recycles) a bare callback-mode task. Unlike Spawn
// it starts nothing: the caller drives the task by passing it to the
// *Func primitives. Steady-state creation is allocation-free — finished
// tasks return to a per-kernel pool.
func (k *Kernel) NewTask(name string) *Task {
	k.procSeq++
	var t *Task
	if n := len(k.taskFree); n > 0 {
		t = k.taskFree[n-1]
		k.taskFree[n-1] = nil
		k.taskFree = k.taskFree[:n-1]
		t.finished = false
	} else {
		t = &Task{k: k}
	}
	t.name, t.id = name, k.procSeq
	k.liveTasks++
	if !t.inReg {
		if len(k.tasks) >= 64 && len(k.tasks) >= 2*k.liveTasks {
			live := k.tasks[:0]
			for _, q := range k.tasks {
				if !q.finished {
					live = append(live, q)
				} else {
					q.inReg = false
				}
			}
			for i := len(live); i < len(k.tasks); i++ {
				k.tasks[i] = nil
			}
			k.tasks = live
		}
		k.tasks = append(k.tasks, t)
		t.inReg = true
	}
	return t
}

// Finish retires a bare task, returning it to the kernel's pool. It
// panics if the task is still parked (a parked task has a pending wake
// that would otherwise resume recycled state) or if it is the identity
// of a process (processes finish by returning from their body).
func (t *Task) Finish() {
	if t.proc != nil {
		panic(fmt.Sprintf("sim: Finish on process task %q", t.name))
	}
	if t.waitKind != taskWaitNone {
		panic(fmt.Sprintf("sim: Finish on task %q parked in %s", t.name, t.waitOp))
	}
	if t.finished {
		return
	}
	t.finished = true
	t.k.liveTasks--
	t.getCont, t.putCont, t.acqCont, t.sigCont = nil, nil, nil, nil
	t.putVal = nil
	t.waitMb = nil
	t.xferPipe, t.xferCont = nil, nil
	t.k.taskFree = append(t.k.taskFree, t)
}

// wake schedules the task's resumption at the current virtual time (via
// the same-timestamp fast lane): a coroutine switch for processes, a
// continuation dispatch for bare tasks.
func (t *Task) wake() {
	t.k.sched.Count(probe.KindWakes, 1)
	t.k.schedule(t.k.now, nil, t)
}

// parkWait records that a bare task is blocked on a primitive. The
// matching unpark happens in dispatch when the wake event fires.
func (t *Task) parkWait(kind taskWait, obj, op string) {
	if t.proc != nil {
		panic(fmt.Sprintf("sim: *Func primitive used with process task %q (use the blocking API)", t.name))
	}
	if t.waitKind != taskWaitNone {
		panic(fmt.Sprintf("sim: task %q parked twice (already waiting in %s)", t.name, t.waitOp))
	}
	t.waitKind = kind
	t.waitObj, t.waitOp = obj, op
	t.k.sched.Count(probe.KindParks, 1)
	t.k.blocked++
}

func (t *Task) unpark() {
	t.waitKind = taskWaitNone
	t.waitObj, t.waitOp = "", ""
	t.k.blocked--
}

// dispatch resumes a woken bare task: it re-checks the primitive it was
// parked on (mirroring the for-loop re-check in the goroutine API) and
// either runs the stored continuation or re-parks.
func (t *Task) dispatch() {
	switch t.waitKind {
	case taskWaitGet:
		t.unpark()
		t.waitMb.completeGet(t)
	case taskWaitPut:
		t.unpark()
		t.waitMb.completePut(t)
	case taskWaitAcquire:
		// A resource wake is always a grant (admit claimed our token and
		// took the units before scheduling the wake); nothing to re-check.
		t.unpark()
		cont := t.acqCont
		t.acqCont = nil
		cont()
	case taskWaitSignal:
		// Signals never unfire, so a wake from Fire is definitive.
		t.unpark()
		cont := t.sigCont
		t.sigCont = nil
		cont()
	}
}
