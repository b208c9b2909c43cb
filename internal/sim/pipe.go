package sim

import (
	"sort"

	"howsim/internal/probe"
)

// Pipe models a bandwidth-limited channel with fixed per-transfer startup
// latency — the paper's "simple queue-based model [with] parameters for
// startup latency, transfer speed and the capacity of the interconnect".
// A Pipe with Channels > 1 admits that many concurrent transfers, each at
// the full per-channel rate (e.g. a dual Fibre Channel arbitrated loop is
// a 2-channel pipe at 100 MB/s per channel). Transfers queue FIFO.
// A transfer longer than Frame bytes re-arbitrates for a channel every
// Frame bytes, and outage windows (SetOutages) stall it before each
// frame.
type Pipe struct {
	name        string
	res         *Resource
	Startup     Time    // fixed cost paid by every transfer while holding a channel
	BytesPerSec float64 // per-channel transfer rate
	// Frame is the arbitration granularity in bytes; 0 transfers whole.
	// Set it before any transfer starts: an in-flight transfer reads it
	// at every frame.
	Frame int64

	outages   []Window // sorted by Start; nil on the fault-free path
	stallTime Time
	stalls    int64

	bytesMoved int64
	transfers  int64
	pr         probe.Ref
}

// NewPipe creates a pipe with the given number of independent channels,
// per-channel bandwidth in bytes/second, and per-transfer startup
// latency.
func NewPipe(k *Kernel, name string, channels int, bytesPerSec float64, startup Time) *Pipe {
	return new(Pipe).Init(k, name, channels, bytesPerSec, startup)
}

// Init builds pp in place as NewPipe would, rebuilding its channel
// resource in place too, and returns it; a nil pp is allocated first.
func (pp *Pipe) Init(k *Kernel, name string, channels int, bytesPerSec float64, startup Time) *Pipe {
	if channels <= 0 {
		panic("sim: pipe must have at least one channel")
	}
	if pp == nil {
		pp = new(Pipe)
	}
	*pp = Pipe{
		name:        name,
		res:         pp.res.Init(k, name+".chan", int64(channels)),
		Startup:     startup,
		BytesPerSec: bytesPerSec,
		pr:          k.Probe().Register("link", name),
	}
	pp.pr.SetCapacity(int64(channels))
	return pp
}

// SetOutages installs outage windows: intervals of virtual time during
// which the pipe carries no traffic. A transfer waits out the window
// covering the instant it arbitrates for a frame, so one in flight when
// an outage starts stalls after its current frame until it lifts. An
// empty slice restores the fault-free path.
func (pp *Pipe) SetOutages(ws []Window) {
	if len(ws) == 0 {
		pp.outages = nil
		return
	}
	pp.outages = append([]Window(nil), ws...)
	sort.Slice(pp.outages, func(i, j int) bool { return pp.outages[i].Start < pp.outages[j].Start })
}

// StallTime returns the total time transfers spent stalled in outages.
func (pp *Pipe) StallTime() Time { return pp.stallTime }

// Stalls returns how many frames were stalled by outages.
func (pp *Pipe) Stalls() int64 { return pp.stalls }

// stall returns how long a frame arbitrating now must wait for the
// outage covering now to lift, booking the stall, or 0 when no window
// covers now. The caller re-checks from scratch after the wait: a
// stall can end inside a later window.
func (pp *Pipe) stall() Time {
	now := pp.res.k.now
	for _, w := range pp.outages {
		if now < w.Start {
			break
		}
		if w.Contains(now) {
			d := w.End - now
			pp.stallTime += d
			pp.stalls++
			pp.pr.Span(probe.KindStall, int64(now), int64(w.End))
			return d
		}
	}
	return 0
}

// Name returns the pipe's name.
func (pp *Pipe) Name() string { return pp.name }

// Channels returns the number of concurrent transfers the pipe admits.
func (pp *Pipe) Channels() int { return int(pp.res.capacity) }

// BytesMoved returns the total payload bytes transferred so far.
func (pp *Pipe) BytesMoved() int64 { return pp.bytesMoved }

// Transfers returns the number of completed transfers.
func (pp *Pipe) Transfers() int64 { return pp.transfers }

// Utilization returns the mean fraction of channel-time in use.
func (pp *Pipe) Utilization() float64 { return pp.res.Utilization() }

// QueueLen returns the number of transfers waiting for a channel.
func (pp *Pipe) QueueLen() int { return pp.res.QueueLen() }

// TransferDuration returns the channel-holding time for a payload of the
// given size (startup plus serialization delay), without performing it.
func (pp *Pipe) TransferDuration(bytes int64) Time {
	return pp.Startup + TransferTime(bytes, pp.BytesPerSec)
}

// Transfer moves bytes through the pipe on behalf of p: for each frame
// it waits out any outage, waits for a free channel, holds it for
// startup + frame/rate, and releases it. The whole round trip — channel
// acquisition (including a contended park in the FIFO waiter queue),
// the hold timer, and the release-side admission of the next waiter —
// is allocation-free in steady state, so bus/loop models can issue
// millions of transfers without GC pressure.
//
// Every transfer runs as a chain (Proc.Chain) of TransferFunc's steps,
// whose state lives in p's Task: every frame but the last ends in a
// kernel callback that books it and arbitrates for the next, and p
// wakes at the end of the last one and books it itself. So p's
// coroutine switches once per transfer instead of once per frame, and
// the result — event order, clock, statistics, probe emissions and
// scheduler counters — is that of one blocking single-frame transfer
// per frame.
func (pp *Pipe) Transfer(p *Proc, bytes int64) {
	p.Chain(func() { pp.TransferFunc(&p.Task, bytes, nil) })
}

// TransferFunc is Transfer for callback tasks: frame by frame it waits
// out any outage, arbitrates for a channel and holds it for the frame's
// duration, and then runs fn in kernel context. The state machine's
// steps dispatch by the task's wait kind, with their state in the task,
// so the whole round trip stays allocation-free in steady state. A task
// may have only one transfer in flight at a time, and waits on nothing
// else while it holds a channel. t may be a process's Task while the
// process sleeps in a chain (Proc.Chain); with fn nil the transfer is
// then the chain's last step, and the process's own wake ends the last
// frame's hold.
func (pp *Pipe) TransferFunc(t *Task, bytes int64, fn func()) {
	if t.proc != nil {
		t.chained() // a process's Task transfers only while it sleeps in a chain
	}
	t.xferPipe, t.xferBytes, t.xferCont = pp, bytes, fn
	pp.arbitrate(t)
}

// arbitrate starts t's next frame: it waits out the outage covering now
// as a timer of t (taskWaitXferStall, whose end arbitrates again), then
// queues t for a channel.
func (pp *Pipe) arbitrate(t *Task) {
	if d := pp.stall(); d > 0 {
		t.waitKind = taskWaitXferStall
		t.k.schedule(t.k.now+d, nil, t)
		return
	}
	if pp.pr.On() {
		pp.pr.Sample(probe.KindQueue, int64(pp.res.QueueLen()))
	}
	if pp.res.acquireTask(t, 1, taskWaitXferGrant) {
		t.xferAcquired()
	}
}

// frame returns the bytes of t's current frame: all that is left of
// the transfer, at most the pipe's Frame.
func (t *Task) frame() int64 {
	if n := t.xferPipe.Frame; n > 0 && t.xferBytes > n {
		return n
	}
	return t.xferBytes
}

// xferAcquired runs when the task holds a pipe channel: it computes the
// frame's hold duration once, carries it in the in-flight op, and
// schedules the hold's end — the chain's last wake for the last frame
// of a chain-ending transfer (Chain then runs xferComplete in the
// process's body), otherwise a wake of t that dispatch turns into
// xferComplete. Either takes the event slot Kernel.After would.
func (t *Task) xferAcquired() {
	n := t.frame()
	t.xferDur = t.xferPipe.TransferDuration(n)
	if t.xferCont == nil && n == t.xferBytes {
		t.endChainAfter(t.xferDur)
		return
	}
	t.waitKind = taskWaitXferHold
	t.k.schedule(t.k.now+t.xferDur, nil, t)
}

// xferComplete releases the channel and books the frame, then
// arbitrates for the next frame or continues. The span uses the
// duration cached at acquisition — the completion path does no float
// math when probing is on.
func (t *Task) xferComplete() {
	pp := t.xferPipe
	n := t.frame()
	pp.res.Release(1)
	pp.bytesMoved += n
	pp.transfers++
	if pp.pr.On() {
		end := t.k.now
		pp.pr.SpanArg(probe.KindXfer, int64(end-t.xferDur), int64(end), n)
		pp.pr.Count(probe.KindBytes, n)
	}
	if t.xferBytes -= n; t.xferBytes > 0 {
		pp.arbitrate(t)
		return
	}
	fn := t.xferCont
	t.xferPipe, t.xferCont = nil, nil
	if fn != nil {
		fn()
	}
}
