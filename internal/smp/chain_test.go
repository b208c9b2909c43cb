package smp

import (
	"fmt"
	"strings"
	"testing"

	"howsim/internal/cpu"
	"howsim/internal/disk"
	"howsim/internal/fault"
	"howsim/internal/probe"
	"howsim/internal/sim"
)

// refStripeRW is the blocking loop Stripe.rw replaced: the issuing
// process parks at every step — each CPU charge, each chunk wait, each
// replica re-read, each bus frame (bus.Transfer, itself checked against
// the per-frame loop in package bus). The tests and FuzzStripeRW use it
// as the oracle for the chained path.
func refStripeRW(s *Stripe, p *sim.Proc, c *cpu.CPU, offset, length int64, write bool) (lost int64) {
	m := s.m
	c.Busy(p, m.OS.ReadWriteCall)
	nchunks := (length + s.chunk - 1) / s.chunk
	reqs := make([]disk.Request, nchunks)
	for i := int64(0); i < nchunks; i++ {
		logical := offset + i*s.chunk
		stripeRow := logical / (s.chunk * int64(len(s.disks)))
		diskOff := s.baseOffset + stripeRow*s.chunk
		n := s.chunk
		if rem := length - i*s.chunk; rem < n {
			n = rem
			if n%disk.SectorSize != 0 {
				n += disk.SectorSize - n%disk.SectorSize
			}
		}
		c.Busy(p, m.OS.DriverQueue)
		r := &reqs[i]
		r.Write, r.Offset, r.Length = write, diskOff, n
		m.Disks[s.disks[s.member(logical)]].Submit(r)
	}
	for i := range reqs {
		r := &reqs[i]
		r.Wait(p)
		if r.Err() == nil {
			continue
		}
		if m.replica && len(s.disks) > 1 {
			rep := m.Disks[s.disks[(s.member(offset+int64(i)*s.chunk)+1)%len(s.disks)]]
			var err error
			if r.Write {
				err = rep.Write(p, r.Offset, r.Length)
			} else {
				err = rep.Read(p, r.Offset, r.Length)
			}
			if err == nil {
				m.replicaBytes += r.Length
				continue
			}
		}
		lost += r.Length
	}
	m.FC.Transfer(p, length)
	m.XIO.Transfer(p, length)
	c.Busy(p, m.OS.Interrupt)
	return lost
}

// stripeIO is one striped request of a scenario.
type stripeIO struct {
	offset, length int64
	write          bool
}

// stripeProc is one process of a scenario: it starts at start on CPU
// cpu and issues its requests back to back.
type stripeProc struct {
	cpu   int
	start sim.Time
	ios   []stripeIO
}

// stripeCase is a striped-I/O scenario on one machine.
type stripeCase struct {
	disks int
	procs []stripeProc
	plan  string // fault plan (fault.ParsePlan syntax)
	// zeroOS zeroes the driver-queue and interrupt costs, so chains end
	// without a final hold (EndChain).
	zeroOS bool
	// until, when positive, stops the run there once with RunUntil and
	// records the state before running to the end.
	until sim.Time
}

// runStripeCase runs c with Stripe.rw, or with refStripeRW when ref is
// set, and renders everything observable: the (Now, label) trace, CPU,
// disk and bus statistics, replica bytes, the kernel's state, and every
// probe cell and span — the scheduler counters (KindEvents, KindParks,
// KindWakes, KindHandoffs) among them.
func runStripeCase(tb testing.TB, c stripeCase, ref bool) string {
	k := sim.NewKernel()
	sink := probe.NewSink()
	k.SetProbe(sink)
	defer k.Shutdown()
	m := New(k, DefaultConfig(c.disks))
	if c.zeroOS {
		m.OS.DriverQueue, m.OS.Interrupt = 0, 0
	}
	plan, err := fault.ParsePlan(c.plan)
	if err != nil {
		tb.Fatal(err)
	}
	m.InstallFaults(plan)
	stripe := m.NewStripe(seq(c.disks), 0)
	var sb strings.Builder
	rec := func(format string, args ...any) {
		fmt.Fprintf(&sb, "%v ", k.Now())
		fmt.Fprintf(&sb, format, args...)
		sb.WriteByte('\n')
	}
	for i, pc := range c.procs {
		c := m.CPUs[pc.cpu%len(m.CPUs)]
		k.Spawn(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
			p.Delay(pc.start)
			for j, io := range pc.ios {
				var lost int64
				if ref {
					lost = refStripeRW(stripe, p, c, io.offset, io.length, io.write)
				} else {
					lost = stripe.rw(p, c, io.offset, io.length, io.write)
				}
				rec("p%d io%d lost=%d", i, j, lost)
			}
		})
	}
	state := func(label string) {
		rec("%s: live=%d blocked=%d replica=%d", label, k.Live(), k.Blocked(), m.ReplicaBytes())
		for _, c := range m.CPUs {
			rec("  %s busy=%v slow=%v util=%v", c.Name(), c.BusyTime(), c.SlowdownTime(), c.Utilization())
		}
		for _, d := range m.Disks {
			rec("  %s %+v queue=%d", d.Name(), d.Stats(), d.QueueLen())
		}
		for _, b := range []interface {
			Name() string
			BytesMoved() int64
			Utilization() float64
			QueueLen() int
			StallTime() sim.Time
			Stalls() int64
		}{m.FC, m.XIO} {
			rec("  %s bytes=%d util=%v queue=%d stall=%v/%d", b.Name(), b.BytesMoved(), b.Utilization(),
				b.QueueLen(), b.StallTime(), b.Stalls())
		}
	}
	if c.until > 0 {
		k.RunUntil(c.until)
		state("bound")
	}
	k.Run()
	state("end")
	renderSink(&sb, sink)
	return sb.String()
}

// renderSink renders every probe cell and span of s.
func renderSink(sb *strings.Builder, s *probe.Sink) {
	for i := 0; i < s.Instances(); i++ {
		comp, name := s.Instance(i)
		for kd := probe.Kind(0); int(kd) < s.Kinds(); kd++ {
			dur, n, sum := s.Cell(i, kd)
			if dur == 0 && n == 0 && sum == 0 {
				continue
			}
			fmt.Fprintf(sb, "%s/%s %s: dur=%d n=%d sum=%d max=%d hist=%v\n",
				comp, name, s.KindName(kd), dur, n, sum, s.SampleMax(i, kd), s.Histogram(i, kd))
		}
	}
	s.EachSpan(func(sp probe.Span) { fmt.Fprintf(sb, "span %+v\n", sp) })
}

// checkStripeCase fails tb unless c renders the same under Stripe.rw
// and under the blocking reference.
func checkStripeCase(tb testing.TB, c stripeCase) {
	tb.Helper()
	got, want := runStripeCase(tb, c, false), runStripeCase(tb, c, true)
	if got != want {
		tb.Fatalf("Stripe.rw differs from the blocking reference:\n%s", lineDiff(got, want))
	}
}

// lineDiff renders the first differing line of got and want with a
// few lines of context.
func lineDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	from := max(0, i-3)
	return fmt.Sprintf("line %d\ngot:\n%s\nwant:\n%s", i+1,
		strings.Join(g[from:min(len(g), i+3)], "\n"), strings.Join(w[from:min(len(w), i+3)], "\n"))
}

// stripeMix is several processes, two pairs sharing a CPU, mixing
// reads and writes, whole and partial stripes and partial chunks.
var stripeMix = []stripeProc{
	{0, 0, []stripeIO{{0, 256 << 10, false}, {256 << 10, 1 << 20, false}, {3 << 20, 100 << 10, true}}},
	{0, 0, []stripeIO{{8 << 20, 512 << 10, true}, {9 << 20, 64 << 10, false}}},
	{1, 30 * sim.Microsecond, []stripeIO{{16 << 20, 768 << 10, false}, {0, 4 << 10, false}}},
	{1, 2 * sim.Millisecond, []stripeIO{{24 << 20, 2 << 20, true}}},
	{2, 5 * sim.Millisecond, []stripeIO{{32 << 20, 256 << 10, false}, {40 << 20, 300 << 10, false}}},
}

var stripeLone = []stripeProc{
	{0, 0, []stripeIO{{0, 256 << 10, false}, {1 << 20, 1 << 20, true}, {5 << 20, 70 << 10, false}}},
}

func TestStripeRWMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		c    stripeCase
	}{
		{"contention", stripeCase{disks: 4, procs: stripeMix}},
		{"one-disk", stripeCase{disks: 1, procs: stripeMix}},
		{"replica", stripeCase{disks: 4, procs: stripeMix, plan: "seed=3,fail=1@3ms,replica"}},
		{"failed-member-lost", stripeCase{disks: 4, procs: stripeMix, plan: "seed=3,fail=2@0s"}},
		{"media-errors", stripeCase{disks: 4, procs: stripeMix, plan: "seed=9,media=0.2,slow=0.1,slowby=2ms"}},
		{"media-replica", stripeCase{disks: 3, procs: stripeMix, plan: "seed=5,media=0.3,replica"}},
		{"fc-xio-outages", stripeCase{disks: 4, procs: stripeMix,
			plan: "seed=1,outage=smp.fc@15ms+20ms,outage=smp.xio@44ms+10ms,outage=smp.fc@60ms+3ms"}},
		{"stragglers", stripeCase{disks: 4, procs: stripeMix,
			plan: "seed=1,straggler=0@0s+4ms*3,straggler=1@2ms+10ms*1.5"}},
		{"run-until", stripeCase{disks: 4, procs: stripeMix, until: 7 * sim.Millisecond}},
		{"zero-os", stripeCase{disks: 4, procs: stripeMix, zeroOS: true}},
		{"lone", stripeCase{disks: 4, procs: stripeLone}},
		{"lone-faults", stripeCase{disks: 4, procs: stripeLone,
			plan: "seed=2,media=0.3,fail=3@1ms,replica,outage=smp.fc@10ms+20ms,straggler=0@0s+3ms"}},
		{"lone-run-until", stripeCase{disks: 2, procs: stripeLone, until: 4 * sim.Millisecond}},
		{"lone-zero-os", stripeCase{disks: 4, procs: stripeLone, zeroOS: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkStripeCase(t, tc.c) })
	}
}

// TestStripeRWShutdownMidChain cancels runs while striped requests are
// mid-chain — charging a CPU, queued for one, waiting on chunks, on a
// bus — and checks Shutdown leaves nothing live or blocked.
func TestStripeRWShutdownMidChain(t *testing.T) {
	for _, at := range []sim.Time{5 * sim.Microsecond, 40 * sim.Microsecond, 2 * sim.Millisecond, 9 * sim.Millisecond} {
		k := sim.NewKernel()
		m := New(k, DefaultConfig(4))
		stripe := m.NewStripe(seq(4), 0)
		for _, pc := range stripeMix {
			c := m.CPUs[pc.cpu]
			k.Spawn("p", func(p *sim.Proc) {
				for _, io := range pc.ios {
					stripe.rw(p, c, io.offset, io.length, io.write)
				}
			})
		}
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

// FuzzStripeRW checks Stripe.rw against the blocking reference over
// the disk count, a fault plan from a fixed menu, an optional RunUntil
// bound, zeroed OS costs, and processes decoded from raw: four bytes
// each — CPU and start, offset, length, and a write flag.
func FuzzStripeRW(f *testing.F) {
	f.Add(uint8(4), uint8(0), uint16(0), []byte{0, 0, 4, 0, 1, 1, 8, 3, 0x12, 5, 40, 7})
	f.Add(uint8(3), uint8(2), uint16(70), []byte{0x10, 3, 9, 1, 0x21, 0, 2, 0, 0, 7, 200, 5})
	f.Add(uint8(2), uint8(0x85), uint16(0), []byte{0, 0, 1, 0})
	f.Add(uint8(8), uint8(4), uint16(30), []byte{0, 1, 16, 1, 0x31, 2, 33, 0, 0x02, 6, 3, 1, 0x13, 4, 64, 0})
	plans := []string{
		"",
		"seed=3,fail=1@2ms,replica",
		"seed=4,fail=0@0s",
		"seed=9,media=0.25,slow=0.1,slowby=1ms",
		"seed=5,media=0.3,replica",
		"seed=1,outage=smp.fc@5ms+20ms,outage=smp.xio@30ms+10ms",
		"seed=1,straggler=0@0s+3ms*2.5,straggler=1@1ms+4ms",
		"seed=6,media=0.2,fail=2@1ms,replica,outage=smp.fc@10ms+10ms,straggler=1@0s+2ms",
	}
	f.Fuzz(func(t *testing.T, disks, mode uint8, until uint16, raw []byte) {
		c := stripeCase{
			disks:  int(disks%8) + 1,
			plan:   plans[int(mode&0x0f)%len(plans)],
			zeroOS: mode&0x80 != 0,
			until:  sim.Time(until) * 100 * sim.Microsecond,
		}
		for len(raw) >= 4 && len(c.procs) < 6 {
			b := raw[:4]
			raw = raw[4:]
			io := stripeIO{
				offset: int64(b[1]) * (32 << 10),
				length: int64(b[2])*(12<<10) + 512,
				write:  b[3]&1 != 0,
			}
			cpu, start := int(b[0]&0x0f), sim.Time(b[0]>>4)*150*sim.Microsecond
			if n := len(c.procs); n > 0 && b[3]&2 != 0 && len(c.procs[n-1].ios) < 4 {
				c.procs[n-1].ios = append(c.procs[n-1].ios, io) // another request, same process
				continue
			}
			c.procs = append(c.procs, stripeProc{cpu: cpu, start: start, ios: []stripeIO{io}})
		}
		checkStripeCase(t, c)
	})
}
