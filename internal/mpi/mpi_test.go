package mpi

import (
	"testing"
	"unsafe"

	"howsim/internal/cpu"
	"howsim/internal/netsim"
	"howsim/internal/osmodel"
	"howsim/internal/probe"
	"howsim/internal/sim"
)

func buildWorld(t *testing.T, nodes int) (*sim.Kernel, *World) {
	t.Helper()
	k := sim.NewKernel()
	n := netsim.New(k, 0)
	ft := netsim.NewFatTree(n, nodes, netsim.DefaultFatTreeConfig())
	n.SetTopology(ft)
	cpus := make([]*cpu.CPU, nodes)
	for i := range cpus {
		cpus[i] = cpu.New(k, "cpu", 300e6)
	}
	return k, NewWorld(n, cpus, osmodel.FullFunctionOS())
}

func TestSendRecvRoundTrip(t *testing.T) {
	k, w := buildWorld(t, 4)
	var got Envelope
	k.Spawn("recv", func(p *sim.Proc) {
		got = w.Rank(1).Recv(p, 0, 7)
	})
	k.Spawn("send", func(p *sim.Proc) {
		w.Rank(0).Send(p, 1, 7, 4096, "hello")
	})
	k.Run()
	if got.Src != 0 || got.Tag != 7 || got.Payload != "hello" || got.Bytes != 4096 {
		t.Fatalf("Recv returned %+v", got)
	}
}

func TestRecvMatchingByTagAndSource(t *testing.T) {
	k, w := buildWorld(t, 4)
	var tags []int
	k.Spawn("recv", func(p *sim.Proc) {
		// Receive tag 2 first even though tag 1 arrives first.
		m2 := w.Rank(3).Recv(p, AnySource, 2)
		m1 := w.Rank(3).Recv(p, AnySource, 1)
		tags = append(tags, int(m2.Tag), int(m1.Tag))
	})
	k.Spawn("send", func(p *sim.Proc) {
		w.Rank(0).Send(p, 3, 1, 100, nil)
		w.Rank(0).Send(p, 3, 2, 100, nil)
	})
	k.Run()
	if len(tags) != 2 || tags[0] != 2 || tags[1] != 1 {
		t.Errorf("matched tags = %v, want [2 1]", tags)
	}
}

func TestRecvBySourceFilter(t *testing.T) {
	k, w := buildWorld(t, 4)
	var from int
	k.Spawn("recv", func(p *sim.Proc) {
		m := w.Rank(0).Recv(p, 2, AnyTag)
		from = int(m.Src)
	})
	k.Spawn("send1", func(p *sim.Proc) {
		w.Rank(1).Send(p, 0, 0, 50, nil)
	})
	k.Spawn("send2", func(p *sim.Proc) {
		p.Delay(sim.Millisecond)
		w.Rank(2).Send(p, 0, 0, 50, nil)
	})
	k.Run()
	if from != 2 {
		t.Errorf("Recv(src=2) matched message from %d", from)
	}
}

func TestIsendOverlap(t *testing.T) {
	// 16 posted async sends to distinct peers should overlap: total time
	// well under 16x a single send.
	k, w := buildWorld(t, 17)
	const bytes = 1_170_000 // 0.1s of NIC time
	var single, batch sim.Time
	k.Spawn("single", func(p *sim.Proc) {
		w.Rank(0).Send(p, 1, 99, bytes, nil)
		single = p.Now()
	})
	k.Run()

	k2, w2 := buildWorld(t, 17)
	for i := 1; i <= 16; i++ {
		i := i
		k2.Spawn("recv", func(p *sim.Proc) {
			w2.Rank(i).Recv(p, 0, AnyTag)
		})
	}
	k2.Spawn("send", func(p *sim.Proc) {
		var hs []*Handle
		for i := 1; i <= 16; i++ {
			hs = append(hs, w2.Rank(0).Isend(p, i, 0, bytes, nil))
		}
		for _, h := range hs {
			h.Wait(p)
		}
		batch = p.Now()
	})
	k2.Run()
	// All 16 sends share rank 0's single NIC: total ~16x the wire time of
	// one message, but the receives all overlap. The point is batch is
	// NIC-bound, not latency-bound: it must beat 16 sequential round trips
	// yet exceed the NIC serialization floor.
	floor := sim.Time(16 * 0.1 * float64(sim.Second))
	if batch < floor {
		t.Errorf("batch of 16 finished at %v, below NIC serialization floor %v", batch, floor)
	}
	if batch > floor+floor/4 {
		t.Errorf("batch of 16 took %v, want close to NIC floor %v (pipelined)", batch, floor)
	}
	_ = single
}

func TestBarrierSynchronizes(t *testing.T) {
	k, w := buildWorld(t, 8)
	g := w.NewGroup("g", []int{0, 1, 2, 3, 4, 5, 6, 7})
	var times []sim.Time
	for i := 0; i < 8; i++ {
		i := i
		k.Spawn("w", func(p *sim.Proc) {
			p.Delay(sim.Time(i) * sim.Millisecond)
			g.Barrier(p)
			times = append(times, p.Now())
		})
	}
	k.Run()
	for _, tt := range times {
		if tt < 7*sim.Millisecond {
			t.Errorf("rank released at %v before last arrival at 7ms", tt)
		}
	}
}

func TestAllReduceSum(t *testing.T) {
	k, w := buildWorld(t, 4)
	g := w.NewGroup("g", []int{0, 1, 2, 3})
	results := make([]float64, 4)
	for i := 0; i < 4; i++ {
		i := i
		k.Spawn("w", func(p *sim.Proc) {
			results[i] = g.AllReduceSum(p, i, float64(i+1))
		})
	}
	k.Run()
	for i, r := range results {
		if r != 10 {
			t.Errorf("rank %d reduced to %v, want 10", i, r)
		}
	}
}

func TestAllReduceMax(t *testing.T) {
	k, w := buildWorld(t, 3)
	g := w.NewGroup("g", []int{0, 1, 2})
	results := make([]float64, 3)
	for i := 0; i < 3; i++ {
		i := i
		k.Spawn("w", func(p *sim.Proc) {
			results[i] = g.AllReduceMax(p, i, float64(10-i))
		})
	}
	k.Run()
	for i, r := range results {
		if r != 10 {
			t.Errorf("rank %d max = %v, want 10", i, r)
		}
	}
}

func TestAllReduceReusable(t *testing.T) {
	k, w := buildWorld(t, 2)
	g := w.NewGroup("g", []int{0, 1})
	sums := make([][]float64, 2)
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn("w", func(p *sim.Proc) {
			for round := 0; round < 3; round++ {
				sums[i] = append(sums[i], g.AllReduceSum(p, i, float64(round)))
			}
		})
	}
	k.Run()
	for i := 0; i < 2; i++ {
		want := []float64{0, 2, 4}
		for r, v := range sums[i] {
			if v != want[r] {
				t.Errorf("rank %d round %d = %v, want %v", i, r, v, want[r])
			}
		}
	}
}

func TestMessagingChargesCPU(t *testing.T) {
	k, w := buildWorld(t, 2)
	k.Spawn("recv", func(p *sim.Proc) {
		w.Rank(1).Recv(p, AnySource, AnyTag)
	})
	k.Spawn("send", func(p *sim.Proc) {
		w.Rank(0).Send(p, 1, 0, 1<<20, nil)
	})
	k.Run()
	s, r, b := w.Rank(0).Stats()
	if s != 1 || b != 1<<20 {
		t.Errorf("sender stats = (%d msgs, %d bytes), want (1, 1MB)", s, b)
	}
	_, r1, _ := w.Rank(1).Stats()
	if r != 0 || r1 != 1 {
		t.Errorf("receive counts: rank0=%d rank1=%d, want 0 and 1", r, r1)
	}
}

func TestCollectiveProbeSpans(t *testing.T) {
	k := sim.NewKernel()
	sink := probe.NewSink()
	sink.SetEnabled(true)
	k.SetProbe(sink)
	n := netsim.New(k, 0)
	ft := netsim.NewFatTree(n, 4, netsim.DefaultFatTreeConfig())
	n.SetTopology(ft)
	cpus := make([]*cpu.CPU, 4)
	for i := range cpus {
		cpus[i] = cpu.New(k, "cpu", 300e6)
	}
	w := NewWorld(n, cpus, osmodel.FullFunctionOS())
	g := w.NewGroup("workers", []int{0, 1, 2})
	var sum float64
	for i := 0; i < 3; i++ {
		i := i
		k.Spawn("member", func(p *sim.Proc) {
			p.Delay(sim.Time(i) * sim.Millisecond) // staggered arrival: real wait spans
			g.Barrier(p)
			v := g.AllReduceSum(p, i, float64(i+1))
			if i == 0 {
				sum = v
			}
		})
	}
	k.Run()
	if sum != 6 {
		t.Fatalf("AllReduceSum = %v, want 6", sum)
	}
	inst := -1
	for i := 0; i < sink.Instances(); i++ {
		if c, name := sink.Instance(i); c == "mpi" && name == "workers" {
			inst = i
		}
	}
	if inst < 0 {
		t.Fatal("no (mpi, workers) probe instance registered")
	}
	bDur, bCount, bSum := sink.Cell(inst, sink.KindNamed("barrier_wait"))
	if bCount != 3 || bSum != -3 {
		t.Errorf("barrier_wait cell = (count %d, sum %d), want 3 spans with arg -1", bCount, bSum)
	}
	if bDur <= 0 {
		t.Errorf("barrier_wait recorded no wait time (dur %d)", bDur)
	}
	rDur, rCount, rSum := sink.Cell(inst, sink.KindNamed("reduce_wait"))
	if rCount != 3 || rSum != 0+1+2 {
		t.Errorf("reduce_wait cell = (count %d, sum %d), want 3 spans with rank args 0+1+2", rCount, rSum)
	}
	if rDur <= 0 {
		t.Errorf("reduce_wait recorded no wait time (dur %d)", rDur)
	}
	// Each member's span must appear in the ring with its rank argument.
	ranks := map[int64]int{}
	sink.EachSpan(func(sp probe.Span) {
		if int(sp.Inst) == inst && sink.KindName(sp.Kind) == "reduce_wait" {
			ranks[sp.Arg]++
		}
	})
	for r := int64(0); r < 3; r++ {
		if ranks[r] != 1 {
			t.Errorf("reduce_wait span for rank %d recorded %d times, want 1", r, ranks[r])
		}
	}
}

// TestUnexpectedMessagesFreedAtDispatch sends N messages to a rank that
// posts no receive until all of them have arrived. The dispatcher copies
// each envelope into the unexpected queue and drops its reference to the
// network message there, so a message lives only while it is in
// transit: the sends use no more messages than were in transit at once,
// and the envelopes and their match order are those of the sends.
func TestUnexpectedMessagesFreedAtDispatch(t *testing.T) {
	const n, window = 64, 4
	k, w := buildWorld(t, 4)
	// A message is in transit from its injection until both its sender
	// (delivered) and the receiving dispatcher (msgFn) are done with it;
	// the wrappers below track that from outside the message.
	refs := map[*netsim.Message]int{}
	seen := map[*netsim.Message]bool{}
	maxInTransit := 0
	drop := func(m *netsim.Message) {
		if refs[m]--; refs[m] == 0 {
			delete(refs, m)
		}
	}
	rcv := w.Rank(3)
	dispatch := rcv.msgFn
	rcv.msgFn = func(v any, ok bool) {
		if ok {
			drop(v.(*netsim.Message))
		}
		dispatch(v, ok)
	}
	wrapped := map[*Handle]bool{}
	sent := sim.NewSignal()
	k.Spawn("send", func(p *sim.Proc) {
		win := NewWindow(window)
		for i := 0; i < n; i++ {
			h := w.Rank(0).Isend(p, 3, 1+i%2, int64(100+i), i)
			if !wrapped[h] {
				// Isend's injection starts in a later event, so the
				// wrappers are in place before the message exists.
				wrapped[h] = true
				step := h.stepFn
				h.stepFn = func() {
					switch h.next {
					case sendInjected:
						seen[h.m] = true
						refs[h.m] += 2
						maxInTransit = max(maxInTransit, len(refs))
					case sendDelivered:
						drop(h.m)
					}
					step()
				}
			}
			win.Add(p, h)
		}
		win.Drain(p)
		sent.Fire()
	})
	var got []Envelope
	k.Spawn("recv", func(p *sim.Proc) {
		sent.Wait(p)
		p.Delay(sim.Millisecond)
		if q := rcv.pending.len(); q != n {
			t.Errorf("unexpected queue holds %d envelopes before the first Recv, want %d", q, n)
		}
		for _, tag := range []int{2, 1} {
			for i := 0; i < n/2; i++ {
				got = append(got, rcv.Recv(p, AnySource, tag))
			}
		}
	})
	k.Run()
	if len(seen) > maxInTransit || maxInTransit > window+1 {
		t.Errorf("%d sends used %d network messages with at most %d in transit at once, want <= %d in transit and no more messages",
			n, len(seen), maxInTransit, window+1)
	}
	if len(got) != n {
		t.Fatalf("received %d envelopes, want %d", len(got), n)
	}
	for j, e := range got {
		i := 2*j + 1 // tag 2 first: the odd sends, in order
		if j >= n/2 {
			i = 2 * (j - n/2)
		}
		want := Envelope{Src: 0, Tag: int32(1 + i%2), Bytes: int64(100 + i), Payload: i}
		if e != want {
			t.Errorf("Recv %d = %+v, want %+v", j, e, want)
		}
	}
}

// TestEnvelopeSize pins Envelope at 32 bytes: an endpoint queues one
// per unexpected message.
func TestEnvelopeSize(t *testing.T) {
	if n := unsafe.Sizeof(Envelope{}); n != 32 {
		t.Errorf("Envelope is %d bytes, want 32", n)
	}
}

// TestRecvMatchesInWrappedQueue receives by tag from an unexpected
// queue whose ring has wrapped. For every head position of an 8-slot
// ring holding 7 envelopes, and every position of the envelope the
// receive matches, the receive takes that envelope, closing the gap
// from whichever side is shorter (across the ring's seam, too), and
// wildcard receives then return the rest in arrival order.
func TestRecvMatchesInWrappedQueue(t *testing.T) {
	k, w := buildWorld(t, 4)
	ep := w.Rank(1)
	recv := func(p *sim.Proc, tag int) int { return ep.Recv(p, AnySource, tag).Payload.(int) }
	k.Spawn("recv", func(p *sim.Proc) {
		for pops := 1; pops < 8; pops++ {
			for take := 0; take < 7; take++ {
				ep.pending = envQueue{}
				var ref []int
				queue := func(n int) {
					for ; n > 0; n-- {
						v := len(ref)
						ep.pending.push(Envelope{Src: 2, Tag: int32(v), Payload: v})
						ref = append(ref, v)
					}
				}
				queue(8)
				for _, want := range ref[:pops] {
					if got := recv(p, AnyTag); got != want {
						t.Errorf("pops=%d: wildcard receive = %d, want %d", pops, got, want)
						return
					}
				}
				queue(pops - 1)
				rest := ref[pops:]
				q := &ep.pending
				if q.len() != 7 || len(q.buf) != 8 || (pops >= 2 && q.head+q.len() <= len(q.buf)) {
					t.Errorf("pops=%d: %d envelopes from slot %d of %d, want 7 in 8 slots, wrapped",
						pops, q.len(), q.head, len(q.buf))
					return
				}
				want := rest[take]
				if got := recv(p, want); got != want {
					t.Errorf("pops=%d take=%d: receive by tag = %d, want %d", pops, take, got, want)
					return
				}
				rest = append(rest[:take], rest[take+1:]...)
				for _, want := range rest {
					if got := recv(p, AnyTag); got != want {
						t.Errorf("pops=%d take=%d: wildcard receive = %d, want %d", pops, take, got, want)
						return
					}
				}
				for i, e := range q.buf {
					if e != (Envelope{}) {
						t.Errorf("pops=%d take=%d: slot %d retains %+v after the queue drained", pops, take, i, e)
					}
				}
			}
		}
	})
	k.Run()
}
