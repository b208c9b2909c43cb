package sim

import (
	"fmt"
	"strconv"

	"howsim/internal/probe"
)

// taskWait identifies which primitive a callback task is parked on, so
// the kernel knows how to resume it when its wake event fires.
type taskWait uint8

const (
	taskWaitNone taskWait = iota
	taskWaitGet
	taskWaitPut
	taskWaitAcquire
	taskWaitSignal
	// The two steps of a pipe transfer (Pipe.TransferFunc): parked for
	// a channel, and holding one until the frame's hold ends. A hold is
	// a timer, not a blocking wait: it is not a park, and the task is
	// not blocked while it runs.
	taskWaitXferGrant
	taskWaitXferHold
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
//
// A Task is 168 bytes: every MPI send in flight holds a bare one, and
// every process embeds one. The 12 bytes of flags share two words, one
// continuation slot (cont) serves both the resource and the signal
// waits, the transfer's steps dispatch by waitKind instead of through
// stored method values, and the chain state that only processes use
// (Proc.chainFin) lives on Proc.
type Task struct {
	name string
	id   int
	k    *Kernel
	proc *Proc // non-nil when this task is the identity of a process

	// nameN is the numeric suffix of a NewTaskN name, formatted only
	// when the name is read; hasN reports whether there is one.
	nameN int32
	hasN  bool

	finished bool
	inReg    bool // present in the kernel's registry (procs or tasks slice)
	// granted is scratch state for Resource acquisition: a parked task
	// waits on at most one resource at a time, so keeping the flag here
	// lets the waiter queue hold plain values instead of allocating a
	// per-wait record.
	granted bool
	// waitKind is the primitive a callback-mode wait is parked on (see
	// dispatch); taskWaitNone while the task is not in one. A pipe
	// transfer's hold sets it too, so the hold's end dispatches here.
	waitKind taskWait
	// chain is a process's chain state (see Proc.Chain); always
	// chainOff on a bare task.
	chain chainState
	// xferSeg marks the in-flight transfer as segmented at its pipe's
	// Frame (TransferSegmented) rather than held whole (TransferFunc).
	xferSeg bool
	// fromRun is a process's: set while its current activation came
	// from Run's dispatch, the precondition for Proc.parkInline. It sits
	// with the other flags so Proc stays in a smaller size class.
	fromRun bool

	// waitObj/waitOp describe the current blocking wait site (primitive
	// name and operation) for deadlock reporting. Both are empty while
	// the task is runnable or sleeping on a timer. Two fields instead
	// of one formatted string keep the park path allocation-free.
	waitObj string
	waitOp  string

	// Callback-mode park state: the continuation to run when the wake
	// arrives. waitMb is kept so a woken getter/putter can re-check the
	// mailbox (the item may have been taken by an earlier waiter at the
	// same timestamp) and re-park, exactly like the retry loop in the
	// blocking API. cont is the continuation of a resource or signal
	// wait: a task waits on one primitive at a time, and dispatch tells
	// the two apart by waitKind.
	waitMb  *Mailbox
	getCont func(v any, ok bool)
	putCont func(error)
	putVal  any
	cont    func()

	// In-flight Pipe.TransferFunc / TransferSegmented state. The steps
	// dispatch by waitKind (taskWaitXferGrant, taskWaitXferHold), so
	// the pipe fast path stores no continuation of its own and stays
	// allocation-free. xferBytes is the payload not yet booked and
	// xferDur the current hold's duration, computed at acquisition so
	// the completion path never recomputes TransferDuration.
	xferPipe  *Pipe
	xferBytes int64
	xferDur   Time
	xferCont  func()
}

// Name returns the name the task was created with.
func (t *Task) Name() string {
	if t.hasN {
		return t.name + strconv.Itoa(int(t.nameN))
	}
	return t.name
}

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
	t := k.newTask()
	t.name, t.hasN = name, false
	return t
}

// NewTaskN is NewTask for the name prefix followed by n in decimal
// ("isend3->" and 5 name "isend3->5"). The name is formatted only when
// it is read (Name, DeadlockReport, panics), so a task created per
// operation costs no string. n must fit in an int32.
func (k *Kernel) NewTaskN(prefix string, n int) *Task {
	if int(int32(n)) != n {
		panic(fmt.Sprintf("sim: NewTaskN(%q, %d): suffix out of int32 range", prefix, n))
	}
	t := k.newTask()
	t.name, t.nameN, t.hasN = prefix, int32(n), true
	return t
}

// newTask takes a task from the pool (or allocates one), gives it the
// next ID and registers it as live.
func (k *Kernel) newTask() *Task {
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
	t.id = k.procSeq
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
// panics if the task is still parked or holds a pipe channel (either
// has a pending wake that would otherwise resume recycled state) or if
// it is the identity of a process (processes finish by returning from
// their body).
func (t *Task) Finish() {
	if t.proc != nil {
		panic(fmt.Sprintf("sim: Finish on process task %q", t.Name()))
	}
	if t.waitKind != taskWaitNone {
		panic(fmt.Sprintf("sim: Finish on task %q parked in %s", t.Name(), t.waitOp))
	}
	if t.finished {
		return
	}
	t.finished = true
	t.k.liveTasks--
	t.getCont, t.putCont, t.cont = nil, nil, nil
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

// parkWait records that a bare task, or a process sleeping in a chain,
// is blocked on a primitive. The matching unpark happens in dispatch
// when the wake event fires.
func (t *Task) parkWait(kind taskWait, obj, op string) {
	if t.proc != nil && t.chain != chainRunning {
		panic(fmt.Sprintf("sim: *Func primitive used with process task %q outside a chain (use the blocking API)", t.Name()))
	}
	if t.waitKind != taskWaitNone {
		panic(fmt.Sprintf("sim: task %q parked twice (already waiting in %s)", t.Name(), t.waitOp))
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

// dispatch resumes a woken bare task, or a step of a chained process:
// it re-checks the primitive the task was parked on (mirroring the
// for-loop re-check in the blocking API) and either runs the stored
// continuation or re-parks.
func (t *Task) dispatch() {
	switch t.waitKind {
	case taskWaitGet:
		t.unpark()
		t.waitMb.completeGet(t)
	case taskWaitPut:
		t.unpark()
		t.waitMb.completePut(t)
	case taskWaitAcquire, taskWaitSignal:
		// A resource wake is always a grant (admit took the units before
		// scheduling the wake), and signals never unfire, so a wake from
		// Fire is definitive: nothing to re-check.
		t.unpark()
		cont := t.cont
		t.cont = nil
		cont()
	case taskWaitXferGrant:
		t.unpark()
		t.xferAcquired()
	case taskWaitXferHold:
		t.waitKind = taskWaitNone
		t.xferComplete()
	}
}
