package sim

import (
	"fmt"

	"howsim/internal/probe"
)

// Pipe models a bandwidth-limited channel with fixed per-transfer startup
// latency — the paper's "simple queue-based model [with] parameters for
// startup latency, transfer speed and the capacity of the interconnect".
// A Pipe with Channels > 1 admits that many concurrent transfers, each at
// the full per-channel rate (e.g. a dual Fibre Channel arbitrated loop is
// a 2-channel pipe at 100 MB/s per channel). Transfers queue FIFO.
type Pipe struct {
	name        string
	res         *Resource
	Startup     Time    // fixed cost paid by every transfer while holding a channel
	BytesPerSec float64 // per-channel transfer rate
	// Frame is TransferSegmented's arbitration granularity in bytes; 0
	// transfers whole. Set it before any transfer starts: an in-flight
	// segmented transfer reads it at every frame.
	Frame int64

	bytesMoved int64
	transfers  int64
	busyInt    float64 // integral of busy channels over time (via res)
	pr         probe.Ref
}

// NewPipe creates a pipe with the given number of independent channels,
// per-channel bandwidth in bytes/second, and per-transfer startup
// latency.
func NewPipe(k *Kernel, name string, channels int, bytesPerSec float64, startup Time) *Pipe {
	if channels <= 0 {
		panic("sim: pipe must have at least one channel")
	}
	pp := &Pipe{
		name:        name,
		res:         NewResource(k, name+".chan", int64(channels)),
		Startup:     startup,
		BytesPerSec: bytesPerSec,
		pr:          k.Probe().Register("link", name),
	}
	pp.pr.SetCapacity(int64(channels))
	return pp
}

// Name returns the pipe's name.
func (pp *Pipe) Name() string { return pp.name }

// Channels returns the number of concurrent transfers the pipe admits.
func (pp *Pipe) Channels() int { return int(pp.res.Capacity()) }

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

// Transfer moves bytes through the pipe on behalf of p: it waits for a
// free channel, holds it for startup + bytes/rate, and releases it.
// The whole round trip — channel acquisition (including a contended
// park in the FIFO waiter queue), the hold timer, and the release-side
// admission of the next waiter — is allocation-free in steady state,
// so bus/loop models can issue millions of transfers without GC
// pressure.
func (pp *Pipe) Transfer(p *Proc, bytes int64) {
	if pp.pr.On() {
		pp.pr.Sample(probe.KindQueue, int64(pp.res.QueueLen()))
	}
	pp.res.Acquire(p, 1)
	dur := pp.TransferDuration(bytes)
	p.Delay(dur)
	pp.res.Release(1)
	pp.bytesMoved += bytes
	pp.transfers++
	if pp.pr.On() {
		end := p.Now()
		pp.pr.SpanArg(probe.KindXfer, int64(end-dur), int64(end), bytes)
		pp.pr.Count(probe.KindBytes, bytes)
	}
}

// TransferFunc is Transfer for callback tasks: it arbitrates for a
// channel, holds it for the transfer duration, and then runs fn in
// kernel context. The state machine's step continuations are bound
// method values created once per task and reused for every transfer, so
// the whole round trip stays allocation-free in steady state. A task
// may have only one transfer in flight at a time.
func (pp *Pipe) TransferFunc(t *Task, bytes int64, fn func()) {
	if t.xferAcqFn == nil {
		if t.proc != nil {
			// A process's xfer* fields carry its TransferSegmented state.
			panic(fmt.Sprintf("sim: TransferFunc on process task %q (use Transfer)", t.name))
		}
		t.xferAcqFn = t.xferAcquired
		t.xferEndFn = t.xferComplete
	}
	if pp.pr.On() {
		pp.pr.Sample(probe.KindQueue, int64(pp.res.QueueLen()))
	}
	t.xferPipe, t.xferBytes, t.xferCont = pp, bytes, fn
	pp.res.AcquireFunc(t, 1, t.xferAcqFn)
}

// xferAcquired runs when the task holds a pipe channel: it computes the
// hold duration once, carries it in the in-flight op, and starts the
// timer for the serialization delay.
func (t *Task) xferAcquired() {
	t.xferDur = t.xferPipe.TransferDuration(t.xferBytes)
	t.k.After(t.xferDur, t.xferEndFn)
}

// xferComplete releases the channel, books the transfer and continues.
// The span uses the duration cached at acquisition — the completion
// path does no float math when probing is on.
func (t *Task) xferComplete() {
	pp := t.xferPipe
	pp.res.Release(1)
	pp.bytesMoved += t.xferBytes
	pp.transfers++
	if pp.pr.On() {
		end := t.k.now
		pp.pr.SpanArg(probe.KindXfer, int64(end-t.xferDur), int64(end), t.xferBytes)
		pp.pr.Count(probe.KindBytes, t.xferBytes)
	}
	fn := t.xferCont
	t.xferPipe, t.xferCont = nil, nil
	fn()
}

// TransferSegmented moves bytes as a sequence of frames of at most
// Frame bytes, re-arbitrating for a channel between frames. This models
// loop/bus arbitration at frame granularity: long transfers do not
// starve short ones indefinitely. The result — event order, clock,
// statistics, probe emissions and scheduler counters — is that of
// calling Transfer once per frame.
//
// p itself arbitrates for the first frame and wakes at the end of the
// last one. Every frame in between ends in a kernel callback
// (segFrameEnd) that does what p's wake would have done at the same
// queue position: release, book, arbitrate for the next frame. So p
// parks once per transfer, plus once per contended re-arbitration,
// instead of once per frame. The in-flight state lives in p's Task
// xfer* fields, which TransferFunc uses only on bare tasks.
func (pp *Pipe) TransferSegmented(p *Proc, bytes int64) {
	if pp.Frame <= 0 || bytes <= pp.Frame {
		pp.Transfer(p, bytes)
		return
	}
	if p.xferEndFn == nil {
		p.xferEndFn = p.segFrameEnd
	}
	if pp.pr.On() {
		pp.pr.Sample(probe.KindQueue, int64(pp.res.QueueLen()))
	}
	pp.res.Acquire(p, 1)
	p.xferPipe, p.xferBytes = pp, bytes
	p.segHold()
	for {
		if !p.parkInline() {
			p.park()
		}
		if p.waitOp == "" {
			break // p's own wake: the last frame's hold is over
		}
		// segFrameEnd queued p for a channel; a release granted it.
		p.unblock()
		p.segHold()
	}
	p.segRelease()
	p.xferPipe = nil
}

// segHold starts the hold of the current frame on the channel p holds.
// Its end is a segFrameEnd callback, or p's own wake for the last
// frame; either takes the event slot Transfer's Delay would take.
func (p *Proc) segHold() {
	pp := p.xferPipe
	n := min(pp.Frame, p.xferBytes)
	p.xferDur = pp.TransferDuration(n)
	if p.xferBytes > n {
		p.k.After(p.xferDur, p.xferEndFn)
	} else {
		p.k.scheduleProc(p, p.k.now+p.xferDur)
	}
}

// segRelease ends the hold of p's current frame: it releases the
// channel and books the frame, as Transfer does after its Delay.
func (p *Proc) segRelease() {
	pp := p.xferPipe
	n := min(pp.Frame, p.xferBytes)
	pp.res.Release(1)
	pp.bytesMoved += n
	pp.transfers++
	if pp.pr.On() {
		end := p.k.now
		pp.pr.SpanArg(probe.KindXfer, int64(end-p.xferDur), int64(end), n)
		pp.pr.Count(probe.KindBytes, n)
	}
	p.xferBytes -= n
}

// segFrameEnd ends a middle frame of p's TransferSegmented in kernel
// context and arbitrates for the next one, as p's next Transfer would.
// When the channel is taken it queues p in the resource's FIFO and
// marks p blocked, as Acquire would; the grant's wake resumes p.
func (p *Proc) segFrameEnd() {
	p.segRelease()
	pp := p.xferPipe
	if pp.pr.On() {
		pp.pr.Sample(probe.KindQueue, int64(pp.res.QueueLen()))
	}
	if pp.res.TryAcquire(1) {
		p.segHold()
		return
	}
	pp.res.enqueue(&p.Task, 1)
	p.block(pp.res.name, "acquire")
}
