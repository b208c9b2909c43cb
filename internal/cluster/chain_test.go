package cluster

import (
	"fmt"
	"strings"
	"testing"

	"howsim/internal/bus"
	"howsim/internal/cpu"
	"howsim/internal/disk"
	"howsim/internal/fault"
	"howsim/internal/osmodel"
	"howsim/internal/probe"
	"howsim/internal/sim"
)

// refNodeRW is the blocking sequence Node.rw replaced: the issuing
// process parks at every step — the CPU charges, the disk request and
// each bus frame (bus.Transfer, itself checked against the per-frame
// loop in package bus). The tests and FuzzNodeRW use it as the oracle
// for the chained path.
func refNodeRW(n *Node, p *sim.Proc, offset, length int64, write bool) error {
	n.CPU.Busy(p, n.OS.ReadWriteCall+n.OS.DriverQueue)
	var err error
	if write {
		err = n.Disk.Write(p, offset, length)
	} else {
		err = n.Disk.Read(p, offset, length)
	}
	if err == nil {
		n.SCSI.Transfer(p, length)
		n.PCI.Transfer(p, length)
	}
	n.CPU.Busy(p, n.OS.Interrupt)
	return err
}

// nodeIO is one local request of a scenario.
type nodeIO struct {
	offset, length int64
	write          bool
}

// nodeProc is one process of a scenario: it starts at start on node
// node and issues its requests back to back.
type nodeProc struct {
	node  int
	start sim.Time
	ios   []nodeIO
}

// nodeCase is a node-local I/O scenario on one cluster.
type nodeCase struct {
	nodes int
	procs []nodeProc
	plan  string // fault plan (fault.ParsePlan syntax)
	// zeroOS zeroes the interrupt cost, so chains end without a final
	// hold (EndChain).
	zeroOS bool
	// until, when positive, stops the run there once with RunUntil and
	// records the state before running to the end.
	until sim.Time
}

// newLocalNodes builds a machine of worker nodes with their local I/O
// path only — CPU, disk, SCSI and PCI — and no network, whose message
// layer would add live processes: a scenario with one process then
// runs it as its kernel's lone process, on the inline path.
func newLocalNodes(k *sim.Kernel, nodes int) *Machine {
	cfg := DefaultConfig(nodes)
	m := &Machine{K: k, Cfg: cfg}
	for i := 0; i < nodes; i++ {
		name := fmt.Sprintf("node%d", i)
		m.Nodes = append(m.Nodes, &Node{
			ID:   i,
			CPU:  cpu.New(k, name+".cpu", cfg.CPUHz),
			Disk: disk.New(k, name+".disk", cfg.DiskSpec),
			SCSI: bus.New(k, name+".scsi", bus.Ultra2SCSI()),
			PCI:  bus.New(k, name+".pci", bus.PCI()),
			OS:   osmodel.FullFunctionOS().ScaledTo(cfg.CPUHz),
			m:    m,
		})
	}
	return m
}

// runNodeCase runs c with Node.rw, or with refNodeRW when ref is set,
// and renders everything observable: the (Now, label) trace with each
// request's error, CPU, disk and bus statistics, the kernel's state,
// and every probe cell and span — the scheduler counters (KindEvents,
// KindParks, KindWakes, KindHandoffs) among them.
func runNodeCase(tb testing.TB, c nodeCase, ref bool) string {
	k := sim.NewKernel()
	sink := probe.NewSink()
	k.SetProbe(sink)
	defer k.Shutdown()
	m := newLocalNodes(k, c.nodes)
	plan, err := fault.ParsePlan(c.plan)
	if err != nil {
		tb.Fatal(err)
	}
	for i, n := range m.Nodes {
		if c.zeroOS {
			n.OS.Interrupt = 0
		}
		n.installFaults(plan, i)
	}
	var sb strings.Builder
	rec := func(format string, args ...any) {
		fmt.Fprintf(&sb, "%v ", k.Now())
		fmt.Fprintf(&sb, format, args...)
		sb.WriteByte('\n')
	}
	for i, pc := range c.procs {
		n := m.Nodes[pc.node%len(m.Nodes)]
		k.Spawn(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
			p.Delay(pc.start)
			for j, io := range pc.ios {
				var err error
				if ref {
					err = refNodeRW(n, p, io.offset, io.length, io.write)
				} else {
					err = n.rw(p, io.offset, io.length, io.write)
				}
				rec("p%d io%d err=%v", i, j, err)
			}
		})
	}
	state := func(label string) {
		rec("%s: live=%d blocked=%d", label, k.Live(), k.Blocked())
		for _, n := range m.Nodes {
			rec("  %s busy=%v slow=%v util=%v", n.CPU.Name(), n.CPU.BusyTime(), n.CPU.SlowdownTime(), n.CPU.Utilization())
			rec("  %s %+v queue=%d", n.Disk.Name(), n.Disk.Stats(), n.Disk.QueueLen())
			for _, b := range []interface {
				Name() string
				BytesMoved() int64
				Utilization() float64
				QueueLen() int
				StallTime() sim.Time
				Stalls() int64
			}{n.SCSI, n.PCI} {
				rec("  %s bytes=%d util=%v queue=%d stall=%v/%d", b.Name(), b.BytesMoved(), b.Utilization(),
					b.QueueLen(), b.StallTime(), b.Stalls())
			}
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

// checkNodeCase fails tb unless c renders the same under Node.rw and
// under the blocking reference.
func checkNodeCase(tb testing.TB, c nodeCase) {
	tb.Helper()
	got, want := runNodeCase(tb, c, false), runNodeCase(tb, c, true)
	if got == want {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	from := max(0, i-3)
	tb.Fatalf("Node.rw differs from the blocking reference at line %d\ngot:\n%s\nwant:\n%s", i+1,
		strings.Join(g[from:min(len(g), i+3)], "\n"), strings.Join(w[from:min(len(w), i+3)], "\n"))
}

// nodeMix is several processes, three of them sharing node 0, mixing
// reads and writes below, at and above the bus frame size.
var nodeMix = []nodeProc{
	{0, 0, []nodeIO{{0, 256 << 10, false}, {256 << 10, 64 << 10, false}, {4 << 20, 1 << 20, true}}},
	{0, 0, []nodeIO{{8 << 20, 512 << 10, true}, {9 << 20, 4 << 10, false}}},
	{0, 40 * sim.Microsecond, []nodeIO{{16 << 20, 256 << 10, false}}},
	{1, 0, []nodeIO{{0, 256 << 10, false}, {1 << 20, 256 << 10, false}}},
	{1, 3 * sim.Millisecond, []nodeIO{{24 << 20, 2 << 20, true}}},
}

var nodeLone = []nodeProc{
	{0, 0, []nodeIO{{0, 256 << 10, false}, {1 << 20, 1 << 20, true}, {5 << 20, 70 << 10, false}}},
}

func TestNodeRWMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		c    nodeCase
	}{
		{"contention", nodeCase{nodes: 2, procs: nodeMix}},
		{"failed-disk", nodeCase{nodes: 2, procs: nodeMix, plan: "seed=3,fail=0@12ms"}},
		{"media-errors", nodeCase{nodes: 2, procs: nodeMix, plan: "seed=9,media=0.5,slow=0.1,slowby=2ms"}},
		{"scsi-pci-outages", nodeCase{nodes: 2, procs: nodeMix,
			plan: "seed=1,outage=node0.scsi@10ms+15ms,outage=node0.pci@30ms+5ms,outage=node1.pci@5ms+20ms"}},
		{"stragglers", nodeCase{nodes: 2, procs: nodeMix, plan: "seed=1,straggler=0@0s+20ms*3,straggler=1@2ms+30ms*1.5"}},
		{"run-until", nodeCase{nodes: 2, procs: nodeMix, until: 14 * sim.Millisecond}},
		{"zero-os", nodeCase{nodes: 2, procs: nodeMix, zeroOS: true}},
		{"lone", nodeCase{nodes: 1, procs: nodeLone}},
		{"lone-faults", nodeCase{nodes: 1, procs: nodeLone,
			plan: "seed=9,media=0.5,outage=node0.scsi@10ms+5ms,straggler=0@0s+20ms"}},
		{"lone-failed", nodeCase{nodes: 1, procs: nodeLone, plan: "seed=2,fail=0@15ms"}},
		{"lone-run-until", nodeCase{nodes: 1, procs: nodeLone, until: 20 * sim.Millisecond}},
		{"lone-zero-os", nodeCase{nodes: 1, procs: nodeLone, zeroOS: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkNodeCase(t, tc.c) })
	}
}

// TestNodeRWShutdownMidChain cancels runs while local requests are
// mid-chain — charging or queued for a CPU, waiting on the disk, on a
// bus — and checks Shutdown leaves nothing live or blocked.
func TestNodeRWShutdownMidChain(t *testing.T) {
	for _, at := range []sim.Time{5 * sim.Microsecond, 60 * sim.Microsecond, 4 * sim.Millisecond, 15 * sim.Millisecond} {
		k := sim.NewKernel()
		m := newLocalNodes(k, 2)
		for _, pc := range nodeMix {
			n := m.Nodes[pc.node]
			k.Spawn("p", func(p *sim.Proc) {
				for _, io := range pc.ios {
					n.rw(p, io.offset, io.length, io.write)
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

// FuzzNodeRW checks Node.rw against the blocking reference over the
// node count, a fault plan from a fixed menu, an optional RunUntil
// bound, a zeroed interrupt cost, and processes decoded from raw: four
// bytes each — node and start, offset, length, and a write flag.
func FuzzNodeRW(f *testing.F) {
	f.Add(uint8(2), uint8(0), uint16(0), []byte{0, 0, 20, 0, 0x10, 4, 5, 3, 1, 9, 90, 0})
	f.Add(uint8(1), uint8(3), uint16(90), []byte{0x20, 3, 9, 1, 0x31, 0, 2, 0})
	f.Add(uint8(3), uint8(0x84), uint16(0), []byte{0, 0, 1, 0, 2, 2, 255, 1})
	plans := []string{
		"",
		"seed=3,fail=0@8ms",
		"seed=9,media=0.5,slow=0.1,slowby=1ms",
		"seed=1,outage=node0.scsi@5ms+10ms,outage=node1.pci@3ms+12ms,outage=node0.pci@20ms+4ms",
		"seed=1,straggler=0@0s+10ms*2.5,straggler=1@1ms+20ms",
		"seed=6,media=0.2,fail=1@6ms,outage=node0.scsi@4ms+6ms,straggler=0@0s+8ms",
	}
	f.Fuzz(func(t *testing.T, nodes, mode uint8, until uint16, raw []byte) {
		c := nodeCase{
			nodes:  int(nodes%3) + 1,
			plan:   plans[int(mode&0x0f)%len(plans)],
			zeroOS: mode&0x80 != 0,
			until:  sim.Time(until) * 100 * sim.Microsecond,
		}
		for len(raw) >= 4 && len(c.procs) < 6 {
			b := raw[:4]
			raw = raw[4:]
			io := nodeIO{
				offset: int64(b[1]) * (64 << 10),
				length: int64(b[2])*(8<<10) + 512,
				write:  b[3]&1 != 0,
			}
			node, start := int(b[0]&0x0f), sim.Time(b[0]>>4)*200*sim.Microsecond
			if n := len(c.procs); n > 0 && b[3]&2 != 0 && len(c.procs[n-1].ios) < 4 {
				c.procs[n-1].ios = append(c.procs[n-1].ios, io) // another request, same process
				continue
			}
			c.procs = append(c.procs, nodeProc{node: node, start: start, ios: []nodeIO{io}})
		}
		checkNodeCase(t, c)
	})
}
