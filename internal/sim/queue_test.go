package sim

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// TestFastLaneHeapInterleaving pins the subtle ordering case the fast
// lane must get right: an event already in the heap at time T with a
// lower sequence number fires before a fast-lane event scheduled at T
// while the kernel is executing at T.
func TestFastLaneHeapInterleaving(t *testing.T) {
	k := NewKernel()
	var order []string
	k.At(Millisecond, func() {
		order = append(order, "first")
		// Scheduled at now: takes the fast lane with a higher seq than
		// "second", which is still sitting in the heap at the same time.
		k.At(k.Now(), func() { order = append(order, "third") })
	})
	k.At(Millisecond, func() { order = append(order, "second") })
	k.Run()
	want := []string{"first", "second", "third"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// queueEvent files an event at t with sequence number seq the way
// Kernel.schedule does, routing it by the current instant now.
func queueEvent(q *eventQueue, t Time, seq uint64, now Time) {
	s, e := q.alloc()
	e.t, e.seq = t, seq
	q.push(s, now)
}

// TestEventQueueRandomOrder pops a randomized mix of heap pushes in
// strict (t, seq) order.
func TestEventQueueRandomOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var q eventQueue
	for i := 0; i < 5000; i++ {
		queueEvent(&q, Time(1+rng.Intn(200)), uint64(i+1), 0)
	}
	if q.fast.n != 0 || len(q.heap) != 5000 {
		t.Fatalf("fast lane holds %d, heap %d; want every future event in the heap", q.fast.n, len(q.heap))
	}
	var lastT Time
	var lastSeq uint64
	for i := 0; i < 5000; i++ {
		e := &q.slab[q.pop()]
		if i > 0 && (e.t < lastT || (e.t == lastT && e.seq < lastSeq)) {
			t.Fatalf("pop %d: event (t=%v seq=%d) after (t=%v seq=%d)",
				i, e.t, e.seq, lastT, lastSeq)
		}
		lastT, lastSeq = e.t, e.seq
	}
	if !q.empty() {
		t.Fatal("queue should be empty")
	}
}

// TestSlotRingWraparound drives the fast lane's ring of event slots
// through growth and many wraparounds, checking FIFO order.
func TestSlotRingWraparound(t *testing.T) {
	var r Ring[int32]
	next, expect := int32(1), int32(1)
	for round := 0; round < 100; round++ {
		for i := 0; i < 7; i++ {
			r.Push(next)
			next++
		}
		for i := 0; i < 5; i++ {
			if s := r.Pop(); s != expect {
				t.Fatalf("pop = slot %d, want %d", s, expect)
			}
			expect++
		}
	}
	for r.n > 0 {
		if s := r.Pop(); s != expect {
			t.Fatalf("drain pop = slot %d, want %d", s, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("drained through slot %d, pushed through %d", expect-1, next-1)
	}
	if len(r.buf)&(len(r.buf)-1) != 0 {
		t.Fatalf("ring size %d is not a power of two", len(r.buf))
	}
}

// TestEventSlabReleasesAndReuses checks the slab's lifetime rules: once
// a run drains, every slot is free and none retains a callback or task
// (a popped slot must not keep its closure alive), and a steady timer
// loop reuses freed slots instead of growing the slab.
func TestEventSlabReleasesAndReuses(t *testing.T) {
	k := NewKernel()
	var fn func()
	n := 0
	fn = func() {
		if n++; n < 1000 {
			k.After(Time(n%7), fn) // mix of fast-lane (0) and heap delays
		}
	}
	for i := 0; i < 4; i++ {
		k.After(Time(i+1), fn)
	}
	k.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 50; i++ {
			p.Delay(Time(i % 3))
		}
	})
	k.Run()
	q := &k.events
	if len(q.free) != len(q.slab) {
		t.Fatalf("%d of %d slots free after the run drained", len(q.free), len(q.slab))
	}
	for i := range q.slab {
		if e := &q.slab[i]; e.fn != nil || e.tk != nil {
			t.Errorf("slot %d retains fn/tk after the run drained", i)
		}
	}
	high := len(q.slab)
	for round := 0; round < 20; round++ {
		n = 0
		for i := 0; i < 4; i++ {
			k.After(Time(i+1), fn)
		}
		k.Run()
	}
	if len(q.slab) != high {
		t.Errorf("slab grew from %d to %d slots under a steady timer loop", high, len(q.slab))
	}
	k.Close()
}

// FuzzEventQueueOrder interleaves fast-lane pushes, heap pushes and pops
// the way the kernel issues them and checks every pop against a
// reference model: the popped event is the (t, seq)-least one pending.
// Each input byte is one operation: b%4 == 3 pops; otherwise the byte
// schedules an event b/4 time units after the current instant (0 takes
// the fast lane), which is the time of the last popped event.
func FuzzEventQueueOrder(f *testing.F) {
	f.Add([]byte{0, 0, 3, 3, 3})
	f.Add([]byte{8, 4, 0, 3, 0, 0, 3, 3, 3, 3})
	f.Add([]byte{252, 4, 4, 8, 3, 0, 4, 3, 0, 3, 3, 3, 3})
	f.Add([]byte("interleave heap and fast lane pushes with pops"))
	// A deep heap: 450 pushes cycling through five delays (so many keys
	// tie on t and order by seq), then pop/push/pop rounds that drain it
	// to 150 while pushes land among the queued keys. popHeap walks 9
	// levels to a leaf and sifts up again, through both heap parities.
	deep := make([]byte, 0, 1350)
	for i := 0; i < 450; i++ {
		deep = append(deep, byte(4*(1+i%5)))
	}
	for i := 0; i < 300; i++ {
		deep = append(deep, 3, byte(4*(1+i%3)), 3)
	}
	f.Add(deep)
	f.Fuzz(func(t *testing.T, ops []byte) {
		type key struct {
			t   Time
			seq uint64
		}
		var q eventQueue
		var pending []key
		var now Time
		var seq uint64
		pop := func() {
			min := 0
			for i, p := range pending[1:] {
				if p.t < pending[min].t || (p.t == pending[min].t && p.seq < pending[min].seq) {
					min = i + 1
				}
			}
			want := pending[min]
			pending = append(pending[:min], pending[min+1:]...)
			if pt := q.peekTime(); pt != want.t {
				t.Fatalf("peekTime = %v, want %v", pt, want.t)
			}
			if pe := &q.slab[q.peekSlot()]; pe.t != want.t || pe.seq != want.seq {
				t.Fatalf("peekSlot = (t=%v seq=%d), want (t=%v seq=%d)", pe.t, pe.seq, want.t, want.seq)
			}
			e := &q.slab[q.pop()]
			if e.t != want.t || e.seq != want.seq {
				t.Fatalf("pop = (t=%v seq=%d), want (t=%v seq=%d)", e.t, e.seq, want.t, want.seq)
			}
			now = e.t
		}
		for _, b := range ops {
			if b%4 == 3 {
				if len(pending) > 0 {
					pop()
				}
			} else {
				seq++
				queueEvent(&q, now+Time(b/4), seq, now)
				pending = append(pending, key{now + Time(b/4), seq})
			}
			if q.len() != len(pending) {
				t.Fatalf("len = %d, want %d", q.len(), len(pending))
			}
		}
		for len(pending) > 0 {
			pop()
		}
		if !q.empty() {
			t.Fatal("queue not empty after draining the model")
		}
	})
}

// TestEventSlotSize pins the event slot at 32 bytes: {t, seq, fn, tk}.
// Shard-ordering keys live beside the slab, not in it.
func TestEventSlotSize(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n != 32 {
		t.Errorf("event is %d bytes, want 32", n)
	}
	if n := unsafe.Sizeof(heapKey{}); n != 24 {
		t.Errorf("heapKey is %d bytes, want 24", n)
	}
}

// TestKernelSizeClass keeps Kernel in the 480-byte allocation size
// class: a ShardGroup builds one kernel per disk, so a field that
// pushes it into the next class costs every sharded run 32 bytes a
// disk.
func TestKernelSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Kernel{}); n > 480 {
		t.Fatalf("Kernel is %d bytes, want <= 480", n)
	}
}

// TestEventModeKeepsNoKeys checks that only ShardGroup kernels keep
// shard-ordering keys: an event-mode run with processes switching
// through a mailbox, callbacks, timers, a callback task on a resource
// and a lone process running the loop inline leaves events.keys nil,
// while a hub kernel keys each event by its scheduling chain.
func TestEventModeKeepsNoKeys(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	mb := NewMailbox(k, "mb", 1)
	res := NewResource(k, "arm", 1)
	holder := k.NewTask("holder")
	k.Spawn("put", func(p *Proc) {
		for i := 0; i < 10; i++ {
			mb.Put(p, i)
			p.Delay(Time(1 + i%3))
		}
		mb.Close()
	})
	k.Spawn("get", func(p *Proc) {
		for {
			if _, ok := mb.Get(p); !ok {
				return
			}
			res.AcquireFunc(holder, 1, func() { k.After(2, func() { res.Release(1) }) })
			p.Delay(0)
		}
	})
	k.Run()
	inlined := false
	var done Signal
	k.Spawn("lone", func(p *Proc) {
		for i := 0; i < 10; i++ {
			done.Reset()
			k.After(Time(1+i%3), func() {
				inlined = inlined || onInlineStack()
				k.At(k.Now(), done.Fire)
			})
			done.Wait(p)
			p.Delay(2)
		}
	})
	k.Run()
	if !inlined {
		t.Fatal("the lone process never ran the loop inline")
	}
	if k.events.keys != nil {
		t.Errorf("event-mode kernel holds %d shard keys, want none", len(k.events.keys))
	}

	g := NewShardGroup(1)
	defer g.Recycle()
	hub := g.Hub()
	var got eventKey
	hub.At(5, func() {
		hub.After(1, func() {
			hub.After(1, func() { got = hub.cur })
		})
	})
	hub.Run()
	if want := (eventKey{schedT: 6, anc: lineage{5, 0}}); got != want {
		t.Errorf("hub event key = %+v, want %+v", got, want)
	}
}

// TestFifoClearsPoppedSlots guards the waiter-queue leak fix: a popped
// element must not be retained by the ring.
func TestFifoClearsPoppedSlots(t *testing.T) {
	var q Ring[*Proc]
	procs := []*Proc{{Task: Task{id: 1}}, {Task: Task{id: 2}}, {Task: Task{id: 3}}}
	for _, p := range procs {
		q.Push(p)
	}
	q.Pop()
	q.Pop()
	for i := range q.buf {
		live := (i-int(q.head))&(len(q.buf)-1) < q.Len()
		if !live && q.buf[i] != nil {
			t.Errorf("slot %d retains %v after pop", i, q.buf[i])
		}
	}
	if q.Len() != 1 || q.Pop().id != 3 {
		t.Error("fifo order broken")
	}
}

// TestFifoSteadyStateNoGrowth cycles a fifo far beyond its live size;
// the ring must stay bounded.
func TestFifoSteadyStateNoGrowth(t *testing.T) {
	var q Ring[int]
	for i := 0; i < 64; i++ {
		q.Push(i)
	}
	for i := 0; i < 100000; i++ {
		q.Push(i)
		q.Pop()
	}
	if c := cap(q.buf); c > 1024 {
		t.Errorf("ring grew to %d for a 64-element working set", c)
	}
	if q.Len() != 64 {
		t.Errorf("len = %d, want 64", q.Len())
	}
}

// FuzzFifoOrder interleaves pushes, pops and order-keeping takes and
// checks every removed element, every position and the length against
// a reference slice. Each input byte is one operation: b%3 == 0
// removes one element when the queue is non-empty — the head by Pop if
// b < 128, otherwise the element at index (b/3) % Len by Take; any
// other byte pushes itself. The seeds push past several doublings
// while the ring is wrapped, so growth must unwrap the live elements
// in order, and take from both halves of a wrapped ring, so Take must
// close the gap across the seam from either side.
func FuzzFifoOrder(f *testing.F) {
	f.Add([]byte{1, 2, 0, 4, 5, 0, 7, 8})
	f.Add([]byte{1, 2, 4, 0, 0, 5, 7, 8, 10, 11, 13, 14, 16, 0, 0, 0})
	f.Add([]byte("wrap the ring, then grow it while the head is mid-buffer"))
	wrapped := make([]byte, 0, 600)
	for i := 0; i < 100; i++ {
		// Two pushes and a pop per round: the head walks round the
		// ring while the queue grows through every doubling.
		wrapped = append(wrapped, 1, 2, 0)
	}
	for i := 0; i < 100; i++ {
		wrapped = append(wrapped, 0, 4, 0)
	}
	f.Add(wrapped)
	// Fill an 8-slot ring and wrap it, then alternate a take with a
	// push: the takes (b = 129, 132, ..., 255) index every position of
	// the wrapped ring, on both sides of the seam.
	takes := []byte{1, 2, 4, 5, 7, 8, 10, 11, 0, 0, 0, 13, 14, 16}
	for b := 129; b < 256; b += 3 {
		takes = append(takes, byte(b), 1)
	}
	f.Add(takes)
	f.Fuzz(func(t *testing.T, ops []byte) {
		var q Ring[byte]
		var ref []byte
		for i, b := range ops {
			if b%3 == 0 {
				if len(ref) == 0 {
					continue
				}
				if b < 128 {
					if got := *q.At(0); got != ref[0] {
						t.Fatalf("op %d: head = %d, want %d", i, got, ref[0])
					}
					if got := q.Pop(); got != ref[0] {
						t.Fatalf("op %d: pop = %d, want %d", i, got, ref[0])
					}
					ref = ref[1:]
				} else {
					j := int(b/3) % len(ref)
					if got := q.Take(j); got != ref[j] {
						t.Fatalf("op %d: take(%d) = %d, want %d", i, j, got, ref[j])
					}
					ref = slices.Delete(ref, j, j+1)
				}
			} else {
				q.Push(b)
				ref = append(ref, b)
			}
			if q.Len() != len(ref) {
				t.Fatalf("op %d: len = %d, want %d", i, q.Len(), len(ref))
			}
			for j, want := range ref {
				if got := *q.At(j); got != want {
					t.Fatalf("op %d: at(%d) = %d, want %d", i, j, got, want)
				}
			}
			if n := len(q.buf); n&(n-1) != 0 {
				t.Fatalf("op %d: ring size %d is not a power of two", i, n)
			}
		}
		for len(ref) > 0 {
			if got := q.Pop(); got != ref[0] {
				t.Fatalf("drain: pop = %d, want %d", got, ref[0])
			}
			ref = ref[1:]
		}
		for i, v := range q.buf {
			if v != 0 {
				t.Fatalf("slot %d retains %d after the queue drained", i, v)
			}
		}
	})
}

// TestFifoSize pins the waiter queue at 32 bytes: the ring's slice
// header and two int32 cursors.
func TestFifoSize(t *testing.T) {
	if n := unsafe.Sizeof(Ring[*Task]{}); n != 32 {
		t.Errorf("fifo is %d bytes, want 32", n)
	}
}

// TestSignalSize keeps Signal, which disk requests, network messages
// and MPI handles embed, at 24 bytes: the first waiter inline, a
// pointer to the queue behind it, and the fired flag.
func TestSignalSize(t *testing.T) {
	if n := unsafe.Sizeof(Signal{}); n > 24 {
		t.Errorf("Signal is %d bytes, want <= 24", n)
	}
}

// TestSchedulingAllocFree verifies the headline property end to end:
// steady-state timer scheduling and same-time wakes do not allocate.
func TestSchedulingAllocFree(t *testing.T) {
	k := NewKernel()
	var fn func()
	n := 0
	fn = func() {
		if n++; n < 100 {
			k.After(Time(n%7), fn) // mix of fast-lane (0) and heap delays
		}
	}
	k.After(1, fn)
	k.Run() // warm up high-water marks
	allocs := testing.AllocsPerRun(100, func() {
		n = 0
		k.After(1, fn)
		k.Run()
	})
	if allocs > 0 {
		t.Errorf("steady-state scheduling allocates %.1f times per run, want 0", allocs)
	}
}

// FuzzSignalOrder runs rounds of up to eight waiters on one Signal —
// bare tasks in WaitFunc and processes in Wait, mixed — then fires,
// resets and reuses it, checking the wakes against a reference FIFO of
// arrival order. Each round is a header byte h (h%9 waiters; h&0x10
// tries Reset while they are parked, which must panic when any is;
// h&0x20 adds a late waiter after Fire, which must run at once) and
// one byte per waiter (odd: a process, even: a task). Waiter i of a
// round arrives at the round's instant i, and Fire comes after the
// last.
func FuzzSignalOrder(f *testing.F) {
	// A first waiter is held inline: parking it, firing and resetting
	// allocate nothing, even on a signal that never had a waiter.
	k := NewKernel()
	tk := k.NewTask("first")
	sigs := make([]Signal, 128)
	next := 0
	use := func() {
		s := &sigs[next]
		next++
		s.WaitFunc(tk, func() {})
		s.Fire()
		k.Run()
		s.Reset()
	}
	use()
	if a := testing.AllocsPerRun(100, use); a != 0 {
		f.Fatalf("a first waiter allocates %.1f times per wait, want 0", a)
	}

	f.Add([]byte{0x01, 0})
	f.Add([]byte{0x02, 1, 0, 0x33, 0, 1, 0})
	f.Add([]byte{0x18, 0, 1, 0, 1, 1, 0, 0, 1, 0x20, 0x14, 1, 1, 0, 0})
	f.Add([]byte{0x10, 0x29, 0, 0, 0, 0, 0, 0, 0, 0, 0x08, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		k := NewKernel()
		defer k.Shutdown()
		var s Signal
		var woke []int
		for round := 0; len(raw) > 0 && round < 4; round++ {
			h := raw[0]
			n := min(int(h%9), len(raw)-1)
			kinds := raw[1 : 1+n]
			raw = raw[1+n:]
			base := k.Now() + 1
			var ref []int
			woke = woke[:0]
			for i, b := range kinds {
				id, at := 10*round+i, base+Time(i)
				ref = append(ref, id)
				if b&1 == 1 {
					k.Spawn("proc", func(p *Proc) {
						p.Delay(at - p.Now())
						s.Wait(p)
						woke = append(woke, id)
					})
					continue
				}
				k.At(at, func() {
					w := k.NewTask("task")
					s.WaitFunc(w, func() {
						woke = append(woke, id)
						w.Finish()
					})
				})
			}
			fire := base + Time(n)
			k.At(fire, func() {
				if h&0x10 != 0 {
					panicked := func() (p bool) {
						defer func() { p = recover() != nil }()
						s.Reset()
						return false
					}()
					if panicked != (n > 0) {
						t.Errorf("round %d: Reset with %d parked waiters panicked=%v", round, n, panicked)
					}
				}
				s.Fire()
			})
			if h&0x20 != 0 {
				k.At(fire+1, func() {
					late, ran := k.NewTask("late"), false
					s.WaitFunc(late, func() { ran = true })
					late.Finish()
					if !ran {
						t.Errorf("round %d: a waiter after Fire did not run at once", round)
					}
				})
			}
			k.Run()
			if !slices.Equal(woke, ref) {
				t.Fatalf("round %d: woke %v, want arrival order %v", round, woke, ref)
			}
			if b := k.Blocked(); b != 0 {
				t.Fatalf("round %d: %d still blocked after Fire", round, b)
			}
			s.Reset()
		}
	})
}
