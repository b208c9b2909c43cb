package sim

import "math/bits"

// This file holds the kernel's allocation-free queueing machinery:
//
//   - fifo[T]: a 32-byte FIFO over a power-of-two ring that doubles
//     only when full and zeroes popped slots, used for every waiter
//     queue (mailbox getters/putters, resource waiters, barrier/signal/
//     waitgroup parties) and for mailbox items;
//   - eventQueue: the kernel's pending events. Each event lives in one
//     32-byte slot of a slab ([]event plus a free list of int32 slot
//     indices) from schedule until pop; the orderings move only small
//     keys — a binary min-heap of 24-byte heapKey{t, seq, slot} values
//     for future timers, and a fifo[int32] of slots holding the
//     same-timestamp fast lane. No event value is
//     copied while it is queued. Sharded kernels also keep each slot's
//     shard-ordering key in a keys array beside the slab.
//
// In steady state none of these allocate: slices and ring buffers grow
// to a high-water mark once and are reused for the rest of the run,
// which is what makes timer-heavy loops (disk seeks, bus transfers)
// and park/resume-heavy loops (mailbox handoffs, resource grants)
// allocation-free.

// fifo is a FIFO queue over a power-of-two ring: 32 bytes, the ring
// and two int32 cursors. Push doubles the ring (from one slot) only
// when it is full, so a queue that cycles in steady state stops
// allocating once it has reached its high-water mark, whether or not
// it ever drains. Pop zeroes the vacated slot so the queue never
// retains references to removed elements.
type fifo[T any] struct {
	buf  []T
	head int32
	n    int32
}

func (q *fifo[T]) len() int { return int(q.n) }

func (q *fifo[T]) push(v T) {
	if int(q.n) == len(q.buf) {
		q.grow()
	}
	q.buf[(int(q.head)+int(q.n))&(len(q.buf)-1)] = v
	q.n++
}

func (q *fifo[T]) pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = int32((int(q.head) + 1) & (len(q.buf) - 1))
	q.n--
	return v
}

// peek returns a pointer to the head element. The pointer is only valid
// until the next push or pop.
func (q *fifo[T]) peek() *T { return &q.buf[q.head] }

// grow doubles the ring, moving the live elements to its front in
// queue order.
func (q *fifo[T]) grow() {
	next := make([]T, max(1, 2*len(q.buf)))
	n := copy(next, q.buf[q.head:])
	copy(next[n:], q.buf[:q.head])
	q.buf = next
	q.head = 0
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
	// fast is the same-timestamp fast lane. Events scheduled for the
	// current instant are FIFO by construction (sequence numbers are
	// monotonic), so a ring preserves (t, seq) order without any heap
	// work.
	fast fifo[int32]
}

func (q *eventQueue) empty() bool { return len(q.heap) == 0 && q.fast.n == 0 }

func (q *eventQueue) len() int { return len(q.heap) + q.fast.len() }

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
	f := &q.slab[*q.fast.peek()]
	return keyBefore(&q.heap[0], &heapKey{t: f.t, seq: f.seq})
}

// peekTime returns the time of the next event; the queue must be
// non-empty.
func (q *eventQueue) peekTime() Time {
	if q.heapFirst() {
		return q.heap[0].t
	}
	return q.slab[*q.fast.peek()].t
}

// peekSlot returns the slot of the next event in (t, seq) order across
// both lanes; the queue must be non-empty.
func (q *eventQueue) peekSlot() int32 {
	if q.heapFirst() {
		return q.heap[0].slot
	}
	return *q.fast.peek()
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
