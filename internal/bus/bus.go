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

import "howsim/internal/sim"

// Bus is a shared transfer medium: a sim.Pipe whose Frame is the
// arbitration granularity in bytes, and whose outage windows stall
// transfers frame by frame.
type Bus struct {
	pipe *sim.Pipe
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

// Init builds b in place as New would, keeping only the storage of its
// pipe, and returns it; a nil b is allocated first. Outage windows of
// an earlier use are dropped.
func (b *Bus) Init(k *sim.Kernel, name string, p Params) *Bus {
	if b == nil {
		b = new(Bus)
	}
	*b = Bus{pipe: b.pipe.Init(k, name, p.Channels, p.BytesPerSec, p.Startup)}
	b.pipe.Frame = p.Frame
	return b
}

// SetOutages installs outage windows: intervals of virtual time during
// which the bus carries no traffic. Transfers in flight at the start of
// an outage stall (after the current frame) until it lifts. An empty
// slice restores the fault-free path.
func (b *Bus) SetOutages(ws []sim.Window) { b.pipe.SetOutages(ws) }

// StallTime returns the total time transfers spent stalled in outages.
func (b *Bus) StallTime() sim.Time { return b.pipe.StallTime() }

// Stalls returns how many frame transmissions were stalled by outages.
func (b *Bus) Stalls() int64 { return b.pipe.Stalls() }

// Transfer moves bytes across the bus on behalf of p, re-arbitrating at
// frame granularity and waiting out outage windows (sim.Pipe.Transfer).
// A transfer of no bytes takes no time.
func (b *Bus) Transfer(p *sim.Proc, bytes int64) {
	if bytes > 0 {
		b.pipe.Transfer(p, bytes)
	}
}

// TransferFunc is Transfer for callback tasks: it moves bytes across
// the bus, then runs fn in kernel context (sim.Pipe.TransferFunc). t
// may be a process's Task while the process sleeps in a chain
// (sim.Proc.Chain); with fn nil the transfer is then the chain's last
// step. A transfer of no bytes runs fn, or ends the chain, at once.
func (b *Bus) TransferFunc(t *sim.Task, bytes int64, fn func()) {
	switch {
	case bytes > 0:
		b.pipe.TransferFunc(t, bytes, fn)
	case fn == nil:
		t.EndChain()
	default:
		fn()
	}
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
