package diskos

import (
	"fmt"
	"strings"
	"testing"

	"howsim/internal/bus"
	"howsim/internal/fault"
	"howsim/internal/probe"
	"howsim/internal/sim"
)

// refStream is the blocking loop the pump replaced for a disk-to-disk
// stream: the sender parks at every step of every chunk — the
// destination's credit, each bus crossing and, relayed through the
// front-end, the host's interrupt and memory copy. The tests and
// FuzzStream use it, with refSendToFrontEnd, refFrontEndSend and
// refRebuildTransfer, as the oracle for the chained pump.
func refStream(s *System, p *sim.Proc, src, dst int, bytes int64, payload any) {
	fe := s.FE
	d := s.Disks[dst]
	for remaining := bytes; remaining > 0; {
		n := min(remaining, chunkBytes)
		remaining -= n
		d.commBuf.Acquire(p, n)
		d.sampleBuf()
		if s.Cfg.DirectComm {
			sl, dl := s.loopOf(src), s.loopOf(dst)
			sl.Transfer(p, n)
			if dl != sl {
				dl.Transfer(p, n)
			}
		} else {
			s.loopOf(src).Transfer(p, n)
			fe.Adaptor.Transfer(p, n)
			fe.PCI.Transfer(p, n)
			fe.CPU.Busy(p, fe.OS.Interrupt+sim.TransferTime(n, fe.OS.MemoryCopyBytesPerSec))
			fe.PCI.Transfer(p, n)
			fe.Adaptor.Transfer(p, n)
			s.loopOf(dst).Transfer(p, n)
			fe.relayedBytes += n
		}
		var pl any
		if remaining == 0 {
			pl = payload
		}
		if !d.inbox.put(Chunk{Src: src, Bytes: n, Payload: pl}) {
			panic("diskos: disk inbox rejected chunk")
		}
		d.pr.Count(probe.KindChunk, 1)
	}
}

// refSendToFrontEnd is the blocking loop ActiveDisk.SendToFrontEnd ran:
// each chunk crosses the loop, the FE adaptor and PCI and interrupts the
// host, and the whole stream lands in the front-end's inbox at the end,
// even when it is empty.
func refSendToFrontEnd(s *System, p *sim.Proc, src int, bytes int64, payload any) {
	fe := s.FE
	for remaining := bytes; remaining > 0; {
		n := min(remaining, chunkBytes)
		remaining -= n
		s.loopOf(src).Transfer(p, n)
		fe.Adaptor.Transfer(p, n)
		fe.PCI.Transfer(p, n)
		fe.CPU.Busy(p, fe.OS.Interrupt)
		fe.receivedBytes += n
	}
	if !fe.inbox.put(Chunk{Src: src, Bytes: bytes, Payload: payload}) {
		panic("diskos: front-end inbox rejected chunk")
	}
}

// refFrontEndSend is the blocking loop System.FrontEndSend ran: credit
// at the destination, the host's message send, PCI, the FE adaptor and
// the destination loop, then the chunk's delivery.
func refFrontEndSend(s *System, p *sim.Proc, dst int, bytes int64, payload any) {
	fe := s.FE
	d := s.Disks[dst]
	for remaining := bytes; remaining > 0; {
		n := min(remaining, chunkBytes)
		remaining -= n
		d.commBuf.Acquire(p, n)
		d.sampleBuf()
		fe.CPU.Busy(p, fe.OS.MessageSend)
		fe.PCI.Transfer(p, n)
		fe.Adaptor.Transfer(p, n)
		s.loopOf(dst).Transfer(p, n)
		var pl any
		if remaining == 0 {
			pl = payload
		}
		if !d.inbox.put(Chunk{Src: FromFrontEnd, Bytes: n, Payload: pl}) {
			panic("diskos: disk inbox rejected front-end chunk")
		}
		d.pr.Count(probe.KindChunk, 1)
	}
}

// refRebuildTransfer is the blocking path System.RebuildTransfer ran:
// the whole rebuild chunk crosses the source loop, then the failed
// disk's loop when a FibreSwitch puts it elsewhere.
func refRebuildTransfer(s *System, p *sim.Proc, src, failed int, n int64) {
	sl, dl := s.loopOf(src), s.loopOf(failed)
	sl.Transfer(p, n)
	if dl != sl {
		dl.Transfer(p, n)
	}
}

// direction is which of the four transfer calls a scenario makes.
type direction uint8

const (
	peer       direction = iota // ActiveDisk.Send
	toFE                        // ActiveDisk.SendToFrontEnd
	fromFE                      // System.FrontEndSend
	rebuildDir                  // System.RebuildTransfer
	directions
)

var directionNames = [directions]string{"send", "to-fe", "from-fe", "rebuild"}

// xfer is one transfer of a scenario.
type xfer struct {
	dir      direction
	src, dst int
	bytes    int64
}

// xferProc is one process of a scenario: it starts at start and makes
// its transfers back to back.
type xferProc struct {
	start sim.Time
	xfers []xfer
}

// streamCase is a stream scenario on one Active Disk system of four
// disks.
type streamCase struct {
	loops   int   // FibreSwitch loop groups (0: one shared loop)
	relayed bool  // disk-to-disk streams relay through the front-end
	credit  int64 // per-disk receive-buffer credit (0: the default)
	// hold is how long a receiving disklet keeps each chunk's credit
	// before it releases it.
	hold  sim.Time
	plan  string // fault plan (fault.ParsePlan syntax): outage windows
	procs []xferProc
	// lone spawns no receivers, so a lone sender runs its kernel's
	// event loop inline, and streams to a disk stall once its credit
	// runs out.
	lone bool
	// until, when positive, stops the run there once with RunUntil and
	// records the state before running to the end.
	until sim.Time
}

const streamDisks = 4

// runStreamCase runs c through the pump, or through the blocking
// references when ref is set, and renders everything observable: the
// (Now, label) trace of every transfer's end and every chunk received,
// the kernel's state, the buses', the front-end CPU's and the receive
// buffers' statistics, the front-end's byte counts, and every probe cell
// and span — the scheduler counters among them.
func runStreamCase(tb testing.TB, c streamCase, ref bool) string {
	k := sim.NewKernel()
	sink := probe.NewSink()
	k.SetProbe(sink)
	defer k.Shutdown()
	cfg := DefaultConfig(streamDisks)
	cfg.SwitchedLoops = c.loops
	cfg.DirectComm = !c.relayed
	cfg.CommBufBytes = c.credit
	s := NewSystem(k, cfg)
	plan, err := fault.ParsePlan(c.plan)
	if err != nil {
		tb.Fatal(err)
	}
	s.InstallFaults(plan)
	var sb strings.Builder
	rec := func(format string, args ...any) {
		fmt.Fprintf(&sb, "%v ", k.Now())
		fmt.Fprintf(&sb, format, args...)
		sb.WriteByte('\n')
	}
	left := len(c.procs)
	for i, pc := range c.procs {
		k.Spawn(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
			p.Delay(pc.start)
			for j, x := range pc.xfers {
				payload := fmt.Sprintf("p%dx%d", i, j)
				switch {
				case x.dir == peer && ref:
					refStream(s, p, x.src, x.dst, x.bytes, payload)
				case x.dir == peer:
					s.Disks[x.src].Send(p, x.dst, x.bytes, payload)
				case x.dir == toFE && ref:
					refSendToFrontEnd(s, p, x.src, x.bytes, payload)
				case x.dir == toFE:
					s.Disks[x.src].SendToFrontEnd(p, x.bytes, payload)
				case x.dir == fromFE && ref:
					refFrontEndSend(s, p, x.dst, x.bytes, payload)
				case x.dir == fromFE:
					s.FrontEndSend(p, x.dst, x.bytes, payload)
				case ref:
					refRebuildTransfer(s, p, x.src, x.dst, x.bytes)
				default:
					s.RebuildTransfer(p, x.src, x.dst, x.bytes)
				}
				rec("p%d x%d %s done", i, j, directionNames[x.dir])
			}
			if left--; left == 0 {
				for _, ad := range s.Disks {
					ad.CloseInbox()
				}
				s.FE.CloseInbox()
			}
		})
	}
	if !c.lone {
		for _, ad := range s.Disks {
			k.Spawn(fmt.Sprintf("ad%d.recv", ad.ID), func(p *sim.Proc) {
				for {
					ch, ok := ad.Recv(p)
					if !ok {
						return
					}
					rec("ad%d got %+v", ad.ID, ch)
					if c.hold > 0 {
						p.Delay(c.hold)
					}
					ad.Release(ch.Bytes)
				}
			})
		}
		k.Spawn("fe.recv", func(p *sim.Proc) {
			for {
				ch, ok := s.FE.Recv(p)
				if !ok {
					return
				}
				rec("fe got %+v", ch)
			}
		})
	}
	state := func(label string) {
		rec("%s: live=%d blocked=%d", label, k.Live(), k.Blocked())
		buses := append([]*bus.Bus{s.FE.Adaptor, s.FE.PCI}, s.loops...)
		for _, b := range buses {
			rec("  %s bytes=%d util=%v queue=%d stall=%v/%d", b.Name(), b.BytesMoved(), b.Utilization(),
				b.QueueLen(), b.StallTime(), b.Stalls())
		}
		rec("  %s busy=%v util=%v", s.FE.CPU.Name(), s.FE.CPU.BusyTime(), s.FE.CPU.Utilization())
		rec("  fe received=%d relayed=%d", s.FE.ReceivedBytes(), s.FE.RelayedBytes())
		for _, ad := range s.Disks {
			rec("  ad%d commbuf=%d", ad.ID, ad.commBuf.InUse())
		}
	}
	if c.until > 0 {
		k.RunUntil(c.until)
		state("bound")
	}
	k.Run()
	state("end")
	for i := 0; i < sink.Instances(); i++ {
		comp, name := sink.Instance(i)
		for kd := probe.Kind(0); int(kd) < sink.Kinds(); kd++ {
			dur, n, sum := sink.Cell(i, kd)
			if dur == 0 && n == 0 && sum == 0 {
				continue
			}
			fmt.Fprintf(&sb, "%s/%s %s: dur=%d n=%d sum=%d max=%d hist=%v\n",
				comp, name, sink.KindName(kd), dur, n, sum, sink.SampleMax(i, kd), sink.Histogram(i, kd))
		}
	}
	sink.EachSpan(func(sp probe.Span) { fmt.Fprintf(&sb, "span %+v\n", sp) })
	return sb.String()
}

// checkStreamCase fails tb unless c renders the same through the pump
// and through the blocking references.
func checkStreamCase(tb testing.TB, c streamCase) {
	tb.Helper()
	got, want := runStreamCase(tb, c, false), runStreamCase(tb, c, true)
	if got == want {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	from := max(0, i-3)
	tb.Fatalf("the stream pump differs from the blocking reference at line %d\ngot:\n%s\nwant:\n%s", i+1,
		strings.Join(g[from:min(len(g), i+3)], "\n"), strings.Join(w[from:min(len(w), i+3)], "\n"))
}

// streamMix is every direction at once from five processes, with byte
// counts below, at and above the chunk size, ragged tails and an empty
// send to the front-end.
var streamMix = []xferProc{
	{0, []xfer{{peer, 0, 1, 3*chunkBytes + 4096}, {toFE, 0, 0, 100 << 10}, {peer, 0, 3, 2 * chunkBytes}}},
	{0, []xfer{{fromFE, 0, 1, 2*chunkBytes + 512}, {fromFE, 0, 2, 64 << 10}}},
	{20 * sim.Microsecond, []xfer{{peer, 2, 1, 5 * chunkBytes}, {toFE, 2, 0, 0}}},
	{0, []xfer{{toFE, 3, 0, 4*chunkBytes + 1}, {rebuildDir, 3, 0, 256 << 10}}},
	{1 * sim.Millisecond, []xfer{{rebuildDir, 1, 2, 200 << 10}, {peer, 1, 0, chunkBytes}}},
}

var streamLone = []xferProc{
	{0, []xfer{{toFE, 0, 0, 3*chunkBytes + 7}, {rebuildDir, 0, 3, 256 << 10}, {toFE, 1, 0, 0},
		{fromFE, 0, 2, 2 * chunkBytes}, {peer, 3, 1, chunkBytes + 9}}},
}

func TestStreamMatchesReference(t *testing.T) {
	const outages = "seed=1,outage=fcal0@1ms+2ms,outage=fe.fc@3ms+1500us,outage=fe.pci@200us+800us,outage=fcal1@2ms+3ms"
	cases := []struct {
		name string
		c    streamCase
	}{
		{"direct", streamCase{procs: streamMix}},
		{"relayed", streamCase{relayed: true, procs: streamMix}},
		{"switched", streamCase{loops: 2, procs: streamMix}},
		{"switched-relayed", streamCase{loops: 2, relayed: true, procs: streamMix}},
		{"backpressure", streamCase{credit: chunkBytes, hold: 3 * sim.Millisecond, procs: streamMix}},
		{"relayed-backpressure", streamCase{relayed: true, credit: chunkBytes + 64<<10, hold: sim.Millisecond,
			procs: streamMix}},
		{"outages", streamCase{loops: 2, plan: outages, procs: streamMix}},
		{"relayed-outages", streamCase{relayed: true, plan: outages, hold: 500 * sim.Microsecond, procs: streamMix}},
		{"run-until", streamCase{relayed: true, procs: streamMix, until: 2 * sim.Millisecond}},
		{"lone", streamCase{lone: true, procs: streamLone}},
		{"lone-relayed-outages", streamCase{lone: true, relayed: true, loops: 2, plan: outages, procs: streamLone}},
		{"lone-stalled", streamCase{lone: true, credit: chunkBytes, procs: streamLone}},
		{"lone-run-until", streamCase{lone: true, procs: streamLone, until: 3 * sim.Millisecond}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkStreamCase(t, tc.c) })
	}
}

// TestStreamShutdownMidChain cancels runs while streams are mid-chain —
// waiting for credit, crossing a bus, holding the front-end CPU — and
// checks Shutdown leaves nothing live or blocked.
func TestStreamShutdownMidChain(t *testing.T) {
	for _, at := range []sim.Time{5 * sim.Microsecond, 700 * sim.Microsecond, 3 * sim.Millisecond} {
		k := sim.NewKernel()
		cfg := DefaultConfig(streamDisks)
		cfg.DirectComm = false
		cfg.CommBufBytes = chunkBytes
		s := NewSystem(k, cfg)
		k.Spawn("send", func(p *sim.Proc) { s.Disks[0].Send(p, 1, 8*chunkBytes, nil) })
		k.Spawn("to-fe", func(p *sim.Proc) { s.Disks[2].SendToFrontEnd(p, 8*chunkBytes, nil) })
		k.Spawn("from-fe", func(p *sim.Proc) { s.FrontEndSend(p, 3, 8*chunkBytes, nil) })
		k.RunUntil(at)
		if k.Live() == 0 {
			t.Fatalf("at %v: nothing left mid-chain", at)
		}
		k.Shutdown()
		if k.Live() != 0 || k.Blocked() != 0 {
			t.Fatalf("after Shutdown at %v: live=%d blocked=%d, want 0 and 0", at, k.Live(), k.Blocked())
		}
	}
}

// FuzzStream checks the stream pump against the blocking references
// over the architecture (direct or relayed, one loop or two behind a
// FibreSwitch), the receive-buffer credit and how long receivers hold
// it, outage windows on a loop, fe.fc and fe.pci, an optional RunUntil
// bound, a receiverless run, and transfers decoded from raw: four bytes
// each — direction and start, source and destination, and two bytes
// that make the byte count (below a chunk, exact multiples and ragged
// tails).
func FuzzStream(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint16(0), []byte{0x00, 0x01, 2, 0, 0x11, 0x20, 1, 9, 0x22, 0x03, 0, 0})
	f.Add(uint8(0x13), uint8(0x21), uint16(30), []byte{0x02, 0x12, 3, 4, 0x43, 0x30, 2, 255, 0x01, 0x10, 0, 1})
	f.Add(uint8(0x86), uint8(0x07), uint16(0), []byte{0x01, 0x00, 1, 0, 0x03, 0x32, 2, 7, 0x02, 0x21, 5, 0})
	f.Fuzz(func(t *testing.T, arch, outage uint8, until uint16, raw []byte) {
		c := streamCase{
			loops:   2 * int(arch&1),
			relayed: arch&2 != 0,
			credit:  chunkBytes + int64(arch>>2&7)*(64<<10),
			hold:    sim.Time(arch>>5&3) * 400 * sim.Microsecond,
			lone:    arch&0x80 != 0,
			until:   sim.Time(until) * 100 * sim.Microsecond,
		}
		if arch>>2&7 == 7 {
			c.credit = 0 // the default, 4 MB
		}
		if outage != 0 {
			// outage's three bit pairs place one window each on a loop,
			// fe.fc and fe.pci; the loop is fcal1 when it exists.
			loop := "fcal0"
			if c.loops > 0 && outage&0x40 != 0 {
				loop = "fcal1"
			}
			at := func(bits uint8) sim.Time { return sim.Time(bits&3) * 700 * sim.Microsecond }
			c.plan = fmt.Sprintf("seed=1,outage=%s@%v+1ms,outage=fe.fc@%v+600us,outage=fe.pci@%v+900us",
				loop, at(outage).Duration(), at(outage>>2).Duration(), at(outage>>4).Duration())
		}
		for len(raw) >= 4 && len(c.procs) < 6 {
			b := raw[:4]
			raw = raw[4:]
			x := xfer{
				dir:   direction(b[0] % uint8(directions)),
				src:   int(b[1] & 3),
				dst:   int(b[1] >> 4 & 3),
				bytes: int64(b[2]%6)*chunkBytes + int64(b[3])*512,
			}
			if x.dir == peer && x.src == x.dst {
				x.dst = (x.dst + 1) % streamDisks
			}
			start := sim.Time(b[0]>>4&7) * 150 * sim.Microsecond
			if n := len(c.procs); n > 0 && b[0]&0x80 != 0 && len(c.procs[n-1].xfers) < 4 {
				c.procs[n-1].xfers = append(c.procs[n-1].xfers, x) // another transfer, same process
				continue
			}
			c.procs = append(c.procs, xferProc{start: start, xfers: []xfer{x}})
		}
		checkStreamCase(t, c)
	})
}
