package diskos

import (
	"fmt"

	"howsim/internal/sim"
)

// This file implements the paper's stream-based disklet programming
// model: "Disk-resident code (disklets) cannot initiate I/O operations,
// cannot allocate (or free) memory, and is sandboxed within the buffers
// from its input streams and a scratch space that is allocated when the
// disklet is initialized. In addition, a disklet is not allowed to
// change where its input streams come from or where its output streams
// go to."
//
// Accordingly a Disklet sees only chunk sizes flowing past and returns
// how much it emits and how many cycles it burned; DiskOS (this
// package) performs all I/O, routes the output stream to its fixed
// sink, and reserves the scratch space for the disklet's lifetime.

// Disklet is application code downloaded to a drive.
type Disklet struct {
	Name string
	// ScratchBytes is reserved from the drive's memory at
	// initialization and released when the disklet finishes. DiskOS
	// rejects disklets that ask for more than the drive has.
	ScratchBytes int64
	// Process consumes one input chunk and returns the bytes to emit
	// downstream plus the processing cycles consumed. It must not
	// retain references or perform I/O; it sees only sizes.
	Process func(chunkBytes int64) (emitBytes int64, cycles int64)
	// Flush is called once after the input stream ends; it may emit a
	// final result (e.g. an aggregate) at a final cycle cost.
	Flush func() (emitBytes int64, cycles int64)
}

// Region is a disklet input stream's source: a byte range on the
// drive's own media.
type Region struct {
	Offset int64
	Length int64
}

// Sink is the fixed destination of a disklet's output stream.
type Sink struct {
	// ToFrontEnd routes output to the front-end host; otherwise output
	// goes to peer disk PeerID.
	ToFrontEnd bool
	PeerID     int
}

// DiskletStats reports a completed disklet run.
type DiskletStats struct {
	BytesIn  int64
	BytesOut int64
	Cycles   int64
	Elapsed  sim.Time
}

// RunDisklet executes a disklet on this drive: DiskOS streams the input
// region off the media in request-sized chunks, hands each chunk to the
// disklet, and forwards everything the disklet emits to the stream's
// fixed sink, batching small emissions. It blocks p until the stream is
// drained and returns the run's statistics.
func (ad *ActiveDisk) RunDisklet(p *sim.Proc, d Disklet, src Region, sink Sink) DiskletStats {
	if d.Process == nil {
		panic("diskos: disklet has no Process function")
	}
	if src.Length <= 0 || src.Offset%512 != 0 {
		panic(fmt.Sprintf("diskos: bad input region %+v", src))
	}
	if d.ScratchBytes > ad.Scratch.Capacity() {
		panic(fmt.Sprintf("diskos: disklet %q wants %d bytes of scratch; drive has %d",
			d.Name, d.ScratchBytes, ad.Scratch.Capacity()))
	}
	// Sandbox: the scratch reservation is held for the disklet's
	// lifetime; a second disklet on the same drive waits if the memory
	// is not there.
	ad.Scratch.Acquire(p, d.ScratchBytes)
	defer ad.Scratch.Release(d.ScratchBytes)

	start := p.Now()
	var st DiskletStats
	const ioChunk = 256 << 10
	const flushBatch = 1 << 20
	var pend int64
	emit := func(n int64) {
		pend += n
		if pend >= flushBatch {
			ad.deliver(p, sink, pend)
			st.BytesOut += pend
			pend = 0
		}
	}
	for off := int64(0); off < src.Length; off += ioChunk {
		n := int64(ioChunk)
		if src.Length-off < n {
			n = src.Length - off
			if n%512 != 0 {
				n += 512 - n%512
			}
		}
		ad.ReadLocal(p, src.Offset+off, n)
		st.BytesIn += n
		out, cycles := d.Process(n)
		ad.Compute(p, cycles)
		st.Cycles += cycles
		if out > 0 {
			emit(out)
		}
	}
	if d.Flush != nil {
		out, cycles := d.Flush()
		ad.Compute(p, cycles)
		st.Cycles += cycles
		if out > 0 {
			emit(out)
		}
	}
	if pend > 0 {
		ad.deliver(p, sink, pend)
		st.BytesOut += pend
	}
	st.Elapsed = p.Now() - start
	return st
}

// deliver routes a batch to the stream's fixed sink.
func (ad *ActiveDisk) deliver(p *sim.Proc, sink Sink, n int64) {
	if sink.ToFrontEnd {
		ad.SendToFrontEnd(p, n, nil)
		return
	}
	ad.Send(p, sink.PeerID, n, nil)
}
