package mpi

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"howsim/internal/cpu"
	"howsim/internal/fault"
	"howsim/internal/netsim"
	"howsim/internal/osmodel"
	"howsim/internal/probe"
	"howsim/internal/sim"
)

// refPath is the process-based message path that the callback sends
// and dispatchers replaced: a process per Isend blocks in netsim.Send
// while the first hop is full, then in Message.Wait until delivery; a
// process per rank blocks on the inbox. The tests and FuzzMessagePath
// use it as the oracle. live counts its processes still running, which
// the callback path does not have.
type refPath struct{ live int }

// refIsend is the process-based Isend.
func (r *refPath) refIsend(ep *Endpoint, p *sim.Proc, dst, tag int, bytes int64, payload any) *Handle {
	ep.chargeCPU(p, ep.w.cost.MessageSend)
	ep.sent++
	ep.bytesSent += bytes
	h := &Handle{ep: ep}
	r.live++
	ep.w.net.Kernel().Spawn(fmt.Sprintf("isend%d->%d", ep.rank, dst), func(ip *sim.Proc) {
		m := ep.w.net.Send(ip, ep.rank, dst, tag, bytes, payload)
		m.Wait(ip)
		h.done.Fire()
		r.live--
	})
	return h
}

// refDispatch is the process-based dispatcher of ep's inbox.
func (r *refPath) refDispatch(ep *Endpoint, p *sim.Proc) {
	for {
		v, ok := ep.inbox.Get(p)
		if !ok {
			r.live--
			return
		}
		ep.deliver(v.(*netsim.Message))
	}
}

// newRefWorld is NewWorld with process dispatchers, spawned where
// NewWorld starts its dispatch tasks.
func (r *refPath) newRefWorld(net *netsim.Network, cpus []*cpu.CPU, cost osmodel.Costs) *World {
	w := new(World).init(net, cpus, cost)
	for _, ep := range w.eps {
		r.live++
		net.Kernel().Spawn(fmt.Sprintf("mpi.dispatch%d", ep.rank), func(p *sim.Proc) { r.refDispatch(ep, p) })
	}
	return w
}

// Scenario operations.
const (
	opSend  = iota // Send: Isend, then wait for delivery
	opIsend        // Isend into the process's window
	opRecv         // Recv from peer (AnySource when peer < 0) with tag (AnyTag when tag < 0)
	opDelay        // sleep for bytes nanoseconds
	opDrain        // wait for every send in the window
	numOps
)

type pathOp struct {
	kind, peer, tag int
	bytes           int64
}

// pathProc is one process of a scenario: from start, rank's process
// runs ops in order, then drains its window.
type pathProc struct {
	rank  int
	start sim.Time
	ops   []pathOp
}

// pathCase is a message-path scenario on a fat tree.
type pathCase struct {
	nodes, perLeaf int
	queue          int   // per-port frames; trunks get 4x
	frame          int64 // frame bytes
	window         int   // sends in flight per process (1 when 0)
	nilCPU         bool  // the last rank charges no CPU (an infrastructure rank)
	procs          []pathProc
	outages        map[string][]fault.Window
	closeAt        map[string]sim.Time // links taken down, and when
	// until, when positive, stops the run there once with RunUntil and
	// records the state before running to the end.
	until sim.Time
}

// runPathCase runs c on the callback path, or on refPath when ref is
// set, and renders everything observable: the (Now, label) trace, the
// network's delivery counts, every link's bytes, frames, drops, stall
// and utilization, every endpoint's counters and queues, the kernel's
// Live and Blocked counts (Live without refPath's own processes), its
// deadlock report, and every probe cell and span — the scheduler
// counters (KindEvents, KindParks, KindWakes, KindHandoffs) among
// them. The deadlock report lists processes before callback tasks, so
// its entries are compared as a sorted set.
func runPathCase(tb testing.TB, c pathCase, ref bool) string {
	k := sim.NewKernel()
	sink := probe.NewSink()
	k.SetProbe(sink)
	defer k.Shutdown()
	n := netsim.New(k, c.frame)
	cfg := netsim.DefaultFatTreeConfig()
	cfg.NodesPerLeaf, cfg.QueueFrames = c.perLeaf, c.queue
	ft := netsim.NewFatTree(n, c.nodes, cfg)
	n.SetTopology(ft)
	var links []*netsim.Link
	ft.EachLink(func(l *netsim.Link) {
		links = append(links, l)
		l.SetOutages(c.outages[l.Name()])
		if at, ok := c.closeAt[l.Name()]; ok {
			k.At(at, l.Close)
		}
	})
	cpus := make([]*cpu.CPU, c.nodes)
	for i := range cpus {
		if !c.nilCPU || i < c.nodes-1 {
			cpus[i] = cpu.New(k, fmt.Sprintf("cpu%d", i), 300e6)
		}
	}
	var rp refPath
	var w *World
	isend := (*Endpoint).Isend
	if ref {
		w = rp.newRefWorld(n, cpus, osmodel.FullFunctionOS())
		isend = func(ep *Endpoint, p *sim.Proc, dst, tag int, bytes int64, payload any) *Handle {
			return rp.refIsend(ep, p, dst, tag, bytes, payload)
		}
	} else {
		w = NewWorld(n, cpus, osmodel.FullFunctionOS())
	}

	var sb strings.Builder
	rec := func(format string, args ...any) {
		fmt.Fprintf(&sb, "%v ", k.Now())
		fmt.Fprintf(&sb, format, args...)
		sb.WriteByte('\n')
	}
	for i, pc := range c.procs {
		ep := w.Rank(pc.rank % c.nodes)
		k.Spawn(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
			p.Delay(pc.start)
			win := NewWindow(max(1, c.window))
			for j, op := range pc.ops {
				peer := op.peer % c.nodes
				switch op.kind {
				case opSend:
					isend(ep, p, peer, op.tag, op.bytes, j).Wait(p)
					rec("p%d op%d sent to %d", i, j, peer)
				case opIsend:
					win.Add(p, isend(ep, p, peer, op.tag, op.bytes, j))
					rec("p%d op%d posted to %d", i, j, peer)
				case opRecv:
					src, tag := peer, op.tag
					if op.peer < 0 {
						src = AnySource
					}
					if tag < 0 {
						tag = AnyTag
					}
					env := ep.Recv(p, src, tag)
					rec("p%d op%d recv %+v", i, j, env)
				case opDelay:
					p.Delay(sim.Time(op.bytes))
				case opDrain:
					win.Drain(p)
					rec("p%d op%d drained", i, j)
				}
			}
			win.Drain(p)
			rec("p%d done", i)
		})
	}
	state := func(label string) {
		rec("%s: live=%d blocked=%d delivered=%d/%d", label, k.Live()-rp.live, k.Blocked(),
			n.BytesDelivered(), n.MessagesDelivered())
		for _, l := range links {
			rec("  %s bytes=%d frames=%d dropped=%d stall=%v util=%v", l.Name(), l.BytesMoved(), l.Frames(),
				l.DroppedFrames(), l.StallTime(), l.Utilization())
		}
		for r := 0; r < w.Size(); r++ {
			ep := w.Rank(r)
			s, rv, b := ep.Stats()
			rec("  rank%d sent=%d received=%d bytes=%d pending=%d waiters=%d inbox=%d", r, s, rv, b,
				ep.pending.Len(), len(ep.waiters), ep.inbox.Len())
		}
		for _, cp := range cpus {
			if cp != nil {
				rec("  %s busy=%v", cp.Name(), cp.BusyTime())
			}
		}
		report := strings.Split(k.DeadlockReport(), "\n")
		slices.Sort(report[1:])
		rec("  %s", strings.Join(report, "\n  "))
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
			dur, cnt, sum := sink.Cell(i, kd)
			if dur == 0 && cnt == 0 && sum == 0 {
				continue
			}
			fmt.Fprintf(&sb, "%s/%s %s: dur=%d n=%d sum=%d max=%d hist=%v\n",
				comp, name, sink.KindName(kd), dur, cnt, sum, sink.SampleMax(i, kd), sink.Histogram(i, kd))
		}
	}
	sink.EachSpan(func(sp probe.Span) { fmt.Fprintf(&sb, "span %+v\n", sp) })
	return sb.String()
}

// checkPathCase fails tb unless c renders the same on the callback
// path and on the process-based reference.
func checkPathCase(tb testing.TB, c pathCase) {
	tb.Helper()
	got, want := runPathCase(tb, c, false), runPathCase(tb, c, true)
	if got == want {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	from := max(0, i-3)
	tb.Fatalf("message path differs from the process-based reference at line %d\ngot:\n%s\nwant:\n%s", i+1,
		strings.Join(g[from:min(len(g), i+3)], "\n"), strings.Join(w[from:min(len(w), i+3)], "\n"))
}

// small is the fat tree the scenarios run on unless they say otherwise:
// three nodes per leaf, so ranks 0-2 and 3-5 talk across the root;
// 16 KB frames and two-frame port queues, so a 64 KB message already
// backs up at its first hop.
func small(nodes int, procs ...pathProc) pathCase {
	return pathCase{nodes: nodes, perLeaf: 3, queue: 2, frame: 16 << 10, procs: procs}
}

func send(peer, tag int, bytes int64) pathOp {
	return pathOp{kind: opSend, peer: peer, tag: tag, bytes: bytes}
}
func isend(peer, tag int, bytes int64) pathOp {
	return pathOp{kind: opIsend, peer: peer, tag: tag, bytes: bytes}
}
func recv(peer, tag int) pathOp { return pathOp{kind: opRecv, peer: peer, tag: tag} }
func delay(d sim.Time) pathOp   { return pathOp{kind: opDelay, bytes: int64(d)} }

func TestMessagePathMatchesReference(t *testing.T) {
	fanIn := small(7)
	for r := 1; r < 7; r++ {
		fanIn.procs = append(fanIn.procs, pathProc{rank: r, ops: []pathOp{
			isend(0, 1, 48<<10), isend(0, 2, 4<<10), isend(0, 1, 0), send(0, 3, 20<<10)}})
	}
	var all []pathOp
	for i := 0; i < 6*4; i++ {
		all = append(all, recv(-1, -1))
	}
	fanIn.procs = append(fanIn.procs, pathProc{rank: 0, ops: all})
	fanIn.window = 2

	windowed := small(6,
		pathProc{rank: 0, ops: []pathOp{isend(1, 1, 100<<10), isend(4, 1, 64<<10), isend(5, 1, 1<<10),
			isend(1, 2, 30<<10), isend(4, 2, 200<<10), pathOp{kind: opDrain}, isend(5, 2, 8<<10)}},
		pathProc{rank: 1, ops: []pathOp{recv(0, 2), recv(0, 1)}},
		pathProc{rank: 4, ops: []pathOp{recv(-1, -1), recv(-1, -1)}},
		pathProc{rank: 5, start: 3 * sim.Millisecond, ops: []pathOp{recv(0, -1), recv(0, -1)}},
	)
	windowed.window = 2

	cases := []struct {
		name string
		c    pathCase
	}{
		{"loopback", small(3,
			pathProc{rank: 1, ops: []pathOp{send(1, 5, 1<<20), isend(1, 6, 0), isend(2, 7, 10<<10), recv(1, 6), recv(1, 5)}},
			pathProc{rank: 2, ops: []pathOp{recv(1, 7), send(2, 1, 100)}},
			pathProc{rank: 2, start: sim.Millisecond, ops: []pathOp{recv(-1, 1)}},
		)},
		{"first-hop backpressure", small(4,
			pathProc{rank: 0, ops: []pathOp{isend(1, 1, 200<<10), isend(2, 1, 96<<10), send(3, 1, 150<<10)}},
			pathProc{rank: 0, ops: []pathOp{send(3, 2, 64<<10), send(1, 2, 17<<10)}},
			pathProc{rank: 1, ops: []pathOp{recv(0, -1), recv(0, -1)}},
			pathProc{rank: 2, ops: []pathOp{recv(-1, 1)}},
			pathProc{rank: 3, ops: []pathOp{recv(0, 2), recv(0, 1)}},
		)},
		{"link outages", func() pathCase {
			c := small(6,
				pathProc{rank: 0, ops: []pathOp{isend(4, 1, 128<<10), isend(1, 1, 64<<10), send(5, 1, 40<<10)}},
				pathProc{rank: 3, ops: []pathOp{send(2, 1, 80<<10), send(0, 1, 10)}},
				pathProc{rank: 4, ops: []pathOp{recv(0, 1)}},
				pathProc{rank: 1, ops: []pathOp{recv(0, 1)}},
				pathProc{rank: 5, ops: []pathOp{recv(-1, -1)}},
				pathProc{rank: 2, ops: []pathOp{recv(3, 1)}},
				pathProc{rank: 0, ops: []pathOp{recv(3, 1)}},
			)
			c.outages = map[string][]fault.Window{
				"node0.up":   {{Start: 0, End: 2 * sim.Millisecond}, {Start: 5 * sim.Millisecond, End: 9 * sim.Millisecond}},
				"leaf0.up":   {{Start: 3 * sim.Millisecond, End: 12 * sim.Millisecond}},
				"leaf1.down": {{Start: sim.Millisecond, End: 4 * sim.Millisecond}},
				"node2.down": {{Start: 6 * sim.Millisecond, End: 30 * sim.Millisecond}},
			}
			return c
		}()},
		{"closed hops", func() pathCase {
			c := small(6,
				pathProc{rank: 0, ops: []pathOp{isend(1, 1, 64<<10), isend(4, 1, 128<<10), send(2, 1, 40<<10)}},
				pathProc{rank: 5, ops: []pathOp{send(3, 1, 32<<10)}},
				pathProc{rank: 3, start: 2 * sim.Millisecond, ops: []pathOp{send(0, 1, 32<<10)}},
				pathProc{rank: 4, ops: []pathOp{recv(0, 1)}},
				pathProc{rank: 1, ops: []pathOp{recv(0, 1)}},
				pathProc{rank: 2, ops: []pathOp{recv(-1, -1)}},
				pathProc{rank: 3, ops: []pathOp{recv(-1, -1)}},
			)
			c.closeAt = map[string]sim.Time{
				"node4.down": 0,                    // next hop closed: frames dropped on the trunk
				"node1.down": 2 * sim.Millisecond,  // closed mid-message
				"node3.up":   2 * sim.Millisecond,  // first hop closed: frames dropped at injection
				"leaf0.up":   15 * sim.Millisecond, // trunk closed under traffic
			}
			return c
		}()},
		{"many-to-one fan-in", fanIn},
		{"windowed sends", windowed},
		{"recv before and after arrival", small(4,
			pathProc{rank: 0, ops: []pathOp{recv(1, 1), recv(-1, 2), recv(2, -1)}},
			pathProc{rank: 1, ops: []pathOp{delay(sim.Millisecond), send(0, 1, 1<<10), send(0, 2, 1<<10)}},
			pathProc{rank: 2, ops: []pathOp{send(0, 9, 70<<10), recv(3, -1)}},
			pathProc{rank: 3, start: 20 * sim.Millisecond, ops: []pathOp{recv(-1, -1), send(2, 4, 10)}},
			pathProc{rank: 3, ops: []pathOp{send(3, 0, 5)}},
		)},
		{"bounded run, infrastructure rank", func() pathCase {
			c := small(5,
				pathProc{rank: 4, ops: []pathOp{isend(0, 1, 90<<10), isend(3, 1, 90<<10), recv(-1, -1)}},
				pathProc{rank: 0, ops: []pathOp{recv(4, 1), send(4, 2, 1<<10)}},
				pathProc{rank: 3, ops: []pathOp{recv(4, 1)}},
			)
			c.nilCPU, c.until = true, 3*sim.Millisecond
			return c
		}()},
		{"paper fat tree", pathCase{nodes: 26, perLeaf: 22, queue: 8, frame: netsim.DefaultFrameBytes, window: 16,
			procs: []pathProc{
				{rank: 0, ops: []pathOp{isend(23, 1, 1<<20), isend(1, 1, 300<<10), isend(25, 1, 0)}},
				{rank: 24, ops: []pathOp{send(0, 2, 200<<10)}},
				{rank: 23, ops: []pathOp{recv(0, -1)}},
				{rank: 1, ops: []pathOp{recv(-1, -1)}},
				{rank: 25, ops: []pathOp{recv(-1, -1)}},
				{rank: 0, ops: []pathOp{recv(24, 2)}},
			}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkPathCase(t, tc.c) })
	}
}

// FuzzMessagePath checks the callback message path against refPath
// over the node count, the window, a link fault from a fixed menu, an
// optional RunUntil bound, and processes decoded from raw: four bytes
// each — rank and start, operation and peer, size, and tag.
func FuzzMessagePath(f *testing.F) {
	f.Add(uint8(4), uint8(0x11), uint16(0), []byte{0, 0x10, 8, 1, 1, 0x02, 0, 1, 0x21, 0x05, 3, 2})
	f.Add(uint8(6), uint8(0x32), uint16(40), []byte{0, 0x41, 20, 0, 0x13, 0x12, 0, 0xff, 4, 0x01, 1, 1})
	f.Add(uint8(7), uint8(0x23), uint16(0), []byte{1, 0x01, 200, 0, 2, 0x01, 90, 0, 0, 0x12, 0, 0xff, 0, 0x22, 0, 0xff})
	faults := []func(c *pathCase){
		func(c *pathCase) {},
		func(c *pathCase) {
			c.outages = map[string][]fault.Window{
				"node0.up": {{Start: 200 * sim.Microsecond, End: 3 * sim.Millisecond}},
				"leaf0.up": {{Start: 0, End: sim.Millisecond}, {Start: 2 * sim.Millisecond, End: 8 * sim.Millisecond}},
			}
		},
		func(c *pathCase) { c.closeAt = map[string]sim.Time{"node1.down": 2 * sim.Millisecond} },
		func(c *pathCase) { c.closeAt = map[string]sim.Time{"node2.up": 0, "leaf1.down": sim.Millisecond} },
	}
	f.Fuzz(func(t *testing.T, nodes, mode uint8, until uint16, raw []byte) {
		c := small(int(nodes%7) + 2)
		c.window = int(mode&0x0f)%4 + 1
		c.nilCPU = mode&0x80 != 0
		c.until = sim.Time(until) * 100 * sim.Microsecond
		faults[int(mode>>4&0x07)%len(faults)](&c)
		for len(raw) >= 4 && len(c.procs) < 8 {
			b := raw[:4]
			raw = raw[4:]
			op := pathOp{kind: int(b[1]&0x0f) % numOps, peer: int(b[1] >> 4), tag: int(b[3]&0x03) - 1,
				bytes: int64(b[2]) * (2 << 10)}
			if op.kind == opRecv && b[3]&0x04 != 0 {
				op.peer = -1
			}
			if op.kind == opDelay {
				op.bytes = int64(b[2]) * int64(10*sim.Microsecond)
			}
			if n := len(c.procs); n > 0 && b[3]&0x80 != 0 && len(c.procs[n-1].ops) < 6 {
				c.procs[n-1].ops = append(c.procs[n-1].ops, op) // another operation, same process
				continue
			}
			c.procs = append(c.procs, pathProc{rank: int(b[0] & 0x0f), start: sim.Time(b[0]>>4) * 300 * sim.Microsecond,
				ops: []pathOp{op}})
		}
		checkPathCase(t, c)
	})
}
