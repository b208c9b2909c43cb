package sim

import "fmt"

// chainState is a process's progress through a chain (Proc.Chain).
type chainState uint8

const (
	chainOff     chainState = iota // not in a chain, or its last hold is on and ends in the process's wake
	chainRunning                   // steps pending: the *Func primitives accept the process's Task
	chainEnded                     // the chain ended without a wake; the process resumes in this event
)

// Chain runs a multi-step operation for p while p sleeps: start issues
// the first step, and every step in between runs as a kernel callback
// on p's behalf, so p parks once per call instead of once per step.
// While the chain runs, p's own Task may wait in the *Func primitives
// (Resource.AcquireFunc, Signal.WaitFunc, Pipe.TransferFunc, ...): those
// waits park the Task exactly as the blocking primitives park p — same
// wait site, KindParks and blocked count — and their wakes dispatch the
// stored continuation in the event where p would have resumed. Each
// hold (a timed step) schedules its end with Kernel.After (a pipe
// transfer's hold: a wake of p's Task that dispatch runs as the next
// step), taking the event slot p's own Delay would have taken. The
// last hold ends with EndChainAfter: p's own wake, after which p
// finishes that step in its body. A chain whose last step takes no
// time ends with EndChain instead.
//
// The result — event order, clock, statistics, probe emissions and
// scheduler counters — is that of running the same steps with the
// blocking primitives, because every step runs in the event, and
// schedules into the slot, of the process wake it replaces. start must
// not block (it runs in p's context) and must not retain p past the
// chain.
func (p *Proc) Chain(start func()) {
	p.chain = chainRunning
	start()
	if p.chain != chainEnded {
		if !p.parkInline() {
			p.park()
		}
	}
	p.chain = chainOff
	if p.xferPipe != nil {
		// The chain ended with the hold of a transfer's last frame
		// (xferAcquired): book it here, in the process's body.
		p.xferComplete()
	}
	if fin := p.chainFin; fin != nil {
		p.chainFin = nil
		fin()
	}
}

// chained returns the process whose Task t is, panicking unless it is
// sleeping in a chain with steps still pending.
func (t *Task) chained() *Proc {
	if t.proc == nil || t.chain != chainRunning {
		panic(fmt.Sprintf("sim: %q is not a process sleeping in a chain", t.Name()))
	}
	return t.proc
}

// EndChainAfter ends the chain of t's process with its last hold: the
// process wakes d from now, in the event slot its own Delay(d) would
// take, and runs fin (when non-nil) in its own context before Chain
// returns — the release and booking that follow the hold in a blocking
// step.
func (t *Task) EndChainAfter(d Time, fin func()) {
	t.endChainAfter(d).chainFin = fin
}

// endChainAfter ends the chain of t's process with a hold of d, as
// EndChainAfter does, and returns the process.
func (t *Task) endChainAfter(d Time) *Proc {
	p := t.chained()
	p.chain = chainOff
	t.k.scheduleProc(p, t.k.now+d)
	return p
}

// EndChain ends the chain of t's process in the current event, for a
// last step that takes no time: the process continues its body right
// here, where it would have continued after the step before, which
// ended in its wake. Call it last in the callback: if the process
// sleeps outside an inline loop it runs at once, nested in the
// callback, until it parks again.
func (t *Task) EndChain() {
	p := t.chained()
	p.chain = chainEnded
	k := t.k
	switch {
	case k.running == p:
		// Still in Chain's start: Chain sees the state and does not park.
	case k.inline == p:
		// p runs the event loop on its own stack; the loop returns to
		// p once the current event's callback does.
	default:
		k.activate(p, false)
	}
}
