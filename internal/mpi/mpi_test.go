package mpi

import (
	"testing"
	"unsafe"

	"howsim/internal/cpu"
	"howsim/internal/netsim"
	"howsim/internal/osmodel"
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
		if q := rcv.pending.Len(); q != n {
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

// TestHandleSize keeps Handle in the 112-byte allocation size class:
// every send in flight holds one, with its completion signal embedded.
func TestHandleSize(t *testing.T) {
	if n := unsafe.Sizeof(Handle{}); n > 112 {
		t.Errorf("Handle is %d bytes, want <= 112", n)
	}
}

// ringSlot returns the slot of an 8-slot ring that holds q's i-th
// oldest envelope: its offset from the lowest-addressed of the slots
// At(0) to At(7), which are the whole ring.
func ringSlot(q *sim.Ring[Envelope], i int) int {
	addr := func(j int) uintptr { return uintptr(unsafe.Pointer(q.At(j))) }
	base := addr(0)
	for j := 1; j < 8; j++ {
		base = min(base, addr(j))
	}
	return int((addr(i) - base) / unsafe.Sizeof(Envelope{}))
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
				ep.pending = sim.Ring[Envelope]{}
				var ref []int
				queue := func(n int) {
					for ; n > 0; n-- {
						v := len(ref)
						ep.pending.Push(Envelope{Src: 2, Tag: int32(v), Payload: v})
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
				eightSlots := q.At(8) == q.At(0) && q.At(4) != q.At(0)
				if q.Len() != 7 || !eightSlots || ringSlot(q, 0) != pops ||
					(pops >= 2 && ringSlot(q, q.Len()-1) >= pops) {
					t.Errorf("pops=%d: %d envelopes from slot %d to %d (8 slots: %v), want 7 from slot %d of 8, wrapped",
						pops, q.Len(), ringSlot(q, 0), ringSlot(q, q.Len()-1), eightSlots, pops)
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
				for i := 0; i < 8; i++ {
					if e := *q.At(i); e != (Envelope{}) {
						t.Errorf("pops=%d take=%d: slot %d retains %+v after the queue drained", pops, take, i, e)
					}
				}
			}
		}
	})
	k.Run()
}
