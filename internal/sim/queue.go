package sim

import "math/bits"

// This file holds the kernel's allocation-free queueing machinery:
//
//   - fifo[T]: a slice-backed FIFO deque that recycles its backing
//     storage and zeroes popped slots, used for every waiter queue
//     (mailbox getters/putters, resource waiters, barrier/signal/
//     waitgroup parties) and for mailbox items;
//   - eventQueue: the kernel's pending events. Each event lives in one
//     32-byte slot of a slab ([]event plus a free list of int32 slot
//     indices) from schedule until pop; the orderings move only small
//     keys — a binary min-heap of 24-byte heapKey{t, seq, slot} values
//     for future timers, and slotRing, a power-of-two ring of int32
//     slots holding the same-timestamp fast lane. No event value is
//     copied while it is queued. Sharded kernels also keep each slot's
//     shard-ordering key in a keys array beside the slab.
//
// In steady state none of these allocate: slices and ring buffers grow
// to a high-water mark once and are reused for the rest of the run,
// which is what makes timer-heavy loops (disk seeks, bus transfers)
// and park/resume-heavy loops (mailbox handoffs, resource grants)
// allocation-free.

// fifo is a FIFO deque over a reusable slice. Pop zeroes the vacated
// slot so the queue never retains references to removed elements, and
// push compacts the dead prefix before the backing array would grow,
// so a queue that cycles in steady state stops allocating entirely.
type fifo[T any] struct {
	s    []T
	head int
}

func (q *fifo[T]) len() int { return len(q.s) - q.head }

func (q *fifo[T]) push(v T) {
	if q.head >= 16 && 2*q.head >= len(q.s) {
		// The dead prefix is at least as large as the live region:
		// slide the live elements down and clear the tail so append
		// reuses the freed capacity instead of growing.
		var zero T
		n := copy(q.s, q.s[q.head:])
		for i := n; i < len(q.s); i++ {
			q.s[i] = zero
		}
		q.s = q.s[:n]
		q.head = 0
	}
	q.s = append(q.s, v)
}

func (q *fifo[T]) pop() T {
	var zero T
	v := q.s[q.head]
	q.s[q.head] = zero
	q.head++
	if q.head == len(q.s) {
		q.s = q.s[:0]
		q.head = 0
	}
	return v
}

// peek returns a pointer to the head element. The pointer is only valid
// until the next push or pop.
func (q *fifo[T]) peek() *T { return &q.s[q.head] }

// slotRing is a power-of-two-sized ring buffer of event slots: the
// same-timestamp fast lane. Events scheduled for the current instant
// are FIFO by construction (sequence numbers are monotonic), so a ring
// preserves (t, seq) order without any heap work.
type slotRing struct {
	buf  []int32
	head int
	n    int
}

func (r *slotRing) push(s int32) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = s
	r.n++
}

func (r *slotRing) pop() int32 {
	s := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return s
}

func (r *slotRing) peek() int32 { return r.buf[r.head] }

func (r *slotRing) grow() {
	next := make([]int32, max(8, 2*len(r.buf)))
	for i := 0; i < r.n; i++ {
		next[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = next
	r.head = 0
}

// heapKey is a timer-heap entry: the event's ordering key plus the slab
// slot holding the event itself. Sifting moves these 24-byte keys, never
// the event.
type heapKey struct {
	t    Time
	seq  uint64
	slot int32
}

func keyBefore(a, b *heapKey) bool {
	return a.t < b.t || (a.t == b.t && a.seq < b.seq)
}

// eventQueue orders events by (t, seq). Every pending event occupies
// one slab slot from schedule until pop; a min-heap of heapKeys orders
// future timers and the fast-lane ring holds events scheduled at the
// current instant. Freed slots are reused LIFO, so the slab, heap, ring
// and free list all grow once to their high-water mark and scheduling
// never allocates after that.
//
// keys holds slot i's shard-ordering key at keys[i]. Only sharded
// kernels fill it (through key); in event mode it stays nil.
type eventQueue struct {
	slab []event
	keys []eventKey
	free []int32
	heap []heapKey
	fast slotRing
}

func (q *eventQueue) empty() bool { return len(q.heap) == 0 && q.fast.n == 0 }

func (q *eventQueue) len() int { return len(q.heap) + q.fast.n }

// alloc reserves a slot for a new event and returns it with a pointer
// to its storage; the caller fills every field but fn/tk, which pop
// leaves cleared. The pointer is only valid until the next alloc (the
// slab may move when it grows).
func (q *eventQueue) alloc() (int32, *event) {
	if n := len(q.free); n > 0 {
		s := q.free[n-1]
		q.free = q.free[:n-1]
		return s, &q.slab[s]
	}
	q.slab = append(q.slab, event{})
	s := int32(len(q.slab) - 1)
	return s, &q.slab[s]
}

// key returns a pointer to slot s's shard-ordering key. When s is past
// the keys array, the array grows to the slab's capacity, so it grows
// in step with the slab and allocates no more often. The pointer is
// only valid until the next key call.
func (q *eventQueue) key(s int32) *eventKey {
	if int(s) >= len(q.keys) {
		keys := make([]eventKey, cap(q.slab))
		copy(keys, q.keys)
		q.keys = keys
	}
	return &q.keys[s]
}

// push enqueues the filled slot s: into the fast lane when its event is
// due at the current instant now, into the timer heap otherwise.
func (q *eventQueue) push(s int32, now Time) {
	e := &q.slab[s]
	if e.t == now {
		q.fast.push(s)
		return
	}
	q.pushHeap(heapKey{t: e.t, seq: e.seq, slot: s})
}

// heapFirst reports whether the next event is the heap top rather than
// the fast-lane head; the queue must be non-empty. Fast-lane events
// never postdate the heap top (they are scheduled at the instant the
// kernel is executing), so the fast head wins whenever it exists and
// the heap top does not sort strictly before it.
func (q *eventQueue) heapFirst() bool {
	if q.fast.n == 0 {
		return true
	}
	if len(q.heap) == 0 {
		return false
	}
	f := &q.slab[q.fast.peek()]
	return keyBefore(&q.heap[0], &heapKey{t: f.t, seq: f.seq})
}

// peekTime returns the time of the next event; the queue must be
// non-empty.
func (q *eventQueue) peekTime() Time {
	if q.heapFirst() {
		return q.heap[0].t
	}
	return q.slab[q.fast.peek()].t
}

// peekSlot returns the slot of the next event in (t, seq) order across
// both lanes; the queue must be non-empty.
func (q *eventQueue) peekSlot() int32 {
	if q.heapFirst() {
		return q.heap[0].slot
	}
	return q.fast.peek()
}

// pop removes the (t, seq)-least event across both lanes, frees its
// slot and returns it. The caller must copy out what it needs from the
// slot, and clear fn/tk, before anything can alloc again.
func (q *eventQueue) pop() int32 {
	var s int32
	if q.heapFirst() {
		s = q.popHeap()
	} else {
		s = q.fast.pop()
	}
	q.free = append(q.free, s)
	return s
}

func (q *eventQueue) pushHeap(k heapKey) {
	h := append(q.heap, heapKey{})
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !keyBefore(&k, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = k
	q.heap = h
}

// popHeap removes the heap top and returns its slot. It sifts bottom
// up: the hole left at the root walks down to a leaf along the smaller
// child, then the former last key sifts up from there. The walk picks
// each child with the borrow of a 128-bit subtraction instead of a
// data-dependent branch, and the sift-up usually stops within a level
// or two, since the last key of a heap sorts late. Keys are unique
// (seq), so the heap this leaves — and the order of every later pop —
// is exactly the one a top-down sift would leave.
func (q *eventQueue) popHeap() int32 {
	h := q.heap
	top := h[0].slot
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	q.heap = h
	if n == 0 {
		return top
	}
	i, c := 0, 1
	for c+1 < n {
		c += int(lessBit(&h[c+1], &h[c]))
		h[i] = h[c]
		i, c = c, 2*c+1
	}
	if c < n {
		// A lone left child at the bottom level.
		h[i] = h[c]
		i = c
	}
	for i > 0 {
		p := (i - 1) / 2
		if !keyBefore(&last, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = last
	return top
}

// lessBit is keyBefore(a, b) as 0 or 1, computed without a branch: the
// borrow out of the 128-bit subtraction (a.t, a.seq) − (b.t, b.seq).
// Times are never negative, so comparing them as unsigned is exact.
func lessBit(a, b *heapKey) uint64 {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.t), uint64(b.t), borrow)
	return borrow
}
