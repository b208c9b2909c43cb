// Package bus models I/O interconnects with the paper's "simple
// queue-based model that has parameters for startup latency, transfer
// speed and the capacity of the interconnect". Concrete interconnects:
// dual-loop Fibre Channel Arbitrated Loop (200 MB/s aggregate, with a
// 400 MB/s "Fast I/O" variant), Ultra2 SCSI, the Origin-2000-style XIO
// I/O subsystem, and a host PCI bus.
//
// Arbitration is modeled at frame granularity: a long transfer
// re-arbitrates for the medium every Frame bytes, so concurrent streams
// share bandwidth fairly instead of serializing whole multi-megabyte
// transfers.
package bus

import (
	"sort"

	"howsim/internal/fault"
	"howsim/internal/probe"
	"howsim/internal/sim"
)

// Bus is a shared transfer medium.
type Bus struct {
	k    *sim.Kernel
	pipe *sim.Pipe // its Frame is the arbitration granularity in bytes

	outages   []fault.Window // sorted outage windows; nil on the fault-free path
	stallTime sim.Time
	stalls    int64

	opFree []*busOp // recycled TransferFunc state machines

	// pr is the same probe instance the underlying pipe registered
	// (Register dedupes), so stall spans land next to the pipe's
	// occupancy spans in reports and traces.
	pr probe.Ref
}

// Params describe an interconnect: its independent channels, each at
// BytesPerSec, charging Startup per arbitration and re-arbitrating every
// Frame bytes.
type Params struct {
	Channels    int
	BytesPerSec float64
	Startup     sim.Time
	Frame       int64
}

// New creates a bus with parameters p.
func New(k *sim.Kernel, name string, p Params) *Bus { return new(Bus).Init(k, name, p) }

// Init builds b in place as New would, keeping only its pooled transfer
// ops and the storage of its pipe, and returns it; a nil b is allocated
// first. Outage windows of an earlier use are dropped.
func (b *Bus) Init(k *sim.Kernel, name string, p Params) *Bus {
	if b == nil {
		b = new(Bus)
	}
	*b = Bus{k: k, pipe: b.pipe.Init(k, name, p.Channels, p.BytesPerSec, p.Startup),
		pr: k.Probe().Register("link", name), opFree: b.opFree}
	b.pipe.Frame = p.Frame
	return b
}

// SetOutages installs outage windows: intervals of virtual time during
// which the bus carries no traffic. Transfers in flight at the start of
// an outage stall (after the current frame) until it lifts. An empty
// slice restores the fault-free fast path.
func (b *Bus) SetOutages(ws []fault.Window) {
	if len(ws) == 0 {
		b.outages = nil
		return
	}
	b.outages = append([]fault.Window(nil), ws...)
	sort.Slice(b.outages, func(i, j int) bool { return b.outages[i].Start < b.outages[j].Start })
}

// StallTime returns the total time transfers spent stalled in outages.
func (b *Bus) StallTime() sim.Time { return b.stallTime }

// Stalls returns how many frame transmissions were stalled by outages.
func (b *Bus) Stalls() int64 { return b.stalls }

// Transfer moves bytes across the bus on behalf of p, re-arbitrating at
// frame granularity. On the fault-free path it is one
// Pipe.TransferSegmented. With outages installed it runs TransferFunc
// as a chain (sim.Proc.Chain), so each frame checks for a window before
// transmitting while p parks once: the last frame's hold ends in p's
// own wake.
func (b *Bus) Transfer(p *sim.Proc, bytes int64) {
	if bytes <= 0 {
		return
	}
	if b.outages == nil {
		b.pipe.TransferSegmented(p, bytes)
		return
	}
	p.Chain(func() { b.TransferFunc(&p.Task, bytes, nil) })
}

// busOp is the state of one in-flight TransferFunc across outage
// windows: frame-granular arbitration unrolled into a state machine
// that checks for a window before each frame. Ops are pooled per bus
// and their step continuations bound once, so transfers perform no
// allocation and no process handoff.
type busOp struct {
	b         *Bus
	t         *sim.Task
	remaining int64
	frame     int64
	done      func()
	stepFn    func()
	sentFn    func()
}

// TransferFunc is Transfer for callback tasks: it moves bytes across
// the bus, re-arbitrating at frame granularity (and waiting out outage
// windows), then runs fn in kernel context. t may be a process's Task
// while the process sleeps in a chain (sim.Proc.Chain); with fn nil the
// transfer is then the chain's last step. On the fault-free path it is
// one Pipe.TransferSegmentedFunc; with outages installed a pooled busOp
// checks for a window before every frame.
func (b *Bus) TransferFunc(t *sim.Task, bytes int64, fn func()) {
	if bytes <= 0 {
		if fn == nil {
			t.EndChain()
		} else {
			fn()
		}
		return
	}
	if b.outages == nil {
		b.pipe.TransferSegmentedFunc(t, bytes, fn)
		return
	}
	var op *busOp
	if n := len(b.opFree); n > 0 {
		op = b.opFree[n-1]
		b.opFree[n-1] = nil
		b.opFree = b.opFree[:n-1]
	} else {
		op = &busOp{b: b}
		op.stepFn = op.step
		op.sentFn = op.frameSent
	}
	op.t, op.remaining, op.done = t, bytes, fn
	op.step()
}

// step transmits the next frame: it first waits out any outage covering
// the current instant, re-checking from scratch after the stall, and
// finishes the op once nothing remains. The last frame of a
// chain-ending transfer (done nil) ends the chain itself, so the op is
// retired as that frame starts.
func (op *busOp) step() {
	b := op.b
	if op.remaining <= 0 {
		fn := op.done
		op.t, op.done = nil, nil
		b.opFree = append(b.opFree, op)
		fn()
		return
	}
	if b.outages != nil {
		now := b.k.Now()
		for _, w := range b.outages {
			if now < w.Start {
				break
			}
			if w.Contains(now) {
				d := w.End - now
				b.stallTime += d
				b.stalls++
				b.pr.Span(probe.KindStall, int64(now), int64(w.End))
				b.k.After(d, op.stepFn)
				return
			}
		}
	}
	n := b.pipe.Frame
	if n <= 0 || op.remaining < n {
		n = op.remaining
	}
	if op.done == nil && n == op.remaining {
		t := op.t
		op.t = nil
		b.opFree = append(b.opFree, op)
		b.pipe.TransferFunc(t, n, nil)
		return
	}
	op.frame = n
	b.pipe.TransferFunc(op.t, n, op.sentFn)
}

func (op *busOp) frameSent() {
	op.remaining -= op.frame
	op.step()
}

// AggregateBandwidth returns the total bytes/sec across all channels.
func (b *Bus) AggregateBandwidth() float64 {
	return b.pipe.BytesPerSec * float64(b.pipe.Channels())
}

// BytesMoved returns total payload bytes moved so far.
func (b *Bus) BytesMoved() int64 { return b.pipe.BytesMoved() }

// Utilization returns the mean fraction of bus capacity in use.
func (b *Bus) Utilization() float64 { return b.pipe.Utilization() }

// QueueLen returns the number of transfers waiting to arbitrate.
func (b *Bus) QueueLen() int { return b.pipe.QueueLen() }

// Name returns the bus's name.
func (b *Bus) Name() string { return b.pipe.Name() }

const (
	// FCALFrame is the arbitration granularity used for Fibre Channel
	// loops. Real FC frames are 2 KB; simulating every frame is
	// needlessly expensive, so arbitration is modeled at 128 KB bursts.
	FCALFrame = 128 << 10
	// FCALStartup is the per-arbitration overhead on a loop.
	FCALStartup = 20 * sim.Microsecond
)

// FCAL is a Fibre Channel Arbitrated Loop interconnect with the given
// number of loops at perLoopBytesPerSec each. The paper's baseline is
// FCAL(2, 100e6): a dual loop at 200 MB/s aggregate; the "Fast I/O"
// variant doubles the per-loop rate.
func FCAL(loops int, perLoopBytesPerSec float64) Params {
	return Params{loops, perLoopBytesPerSec, FCALStartup, FCALFrame}
}

// Ultra2SCSI is an 80 MB/s Ultra2 SCSI bus (the cluster nodes' local
// disk connection).
func Ultra2SCSI() Params { return Params{1, 80e6, 10 * sim.Microsecond, 64 << 10} }

// XIO is an Origin-2000-style I/O subsystem: two I/O nodes with a total
// of 1.4 GB/s of bandwidth.
func XIO() Params { return Params{2, 700e6, 2 * sim.Microsecond, 128 << 10} }

// PCI is a host PCI bus (cluster node and front-end host I/O path):
// 133 MB/s nominal, modeled at 100 MB/s sustained to account for
// arbitration and burst-setup overheads.
func PCI() Params { return Params{1, 100e6, 1 * sim.Microsecond, 64 << 10} }

// SMPInterconnect is the Origin-2000-style board interconnect: 780 MB/s
// links with 1 microsecond latency. Channel count scales with the
// number of boards so the interconnect's bisection bandwidth grows with
// machine size (it is not the bottleneck the paper studies).
func SMPInterconnect(boards int) Params {
	return Params{max(boards, 1), 780e6, 1 * sim.Microsecond, 128 << 10}
}
