package sim

// wakeAll wakes every task parked in q, in FIFO order, leaving the
// queue empty (its storage is retained for reuse).
func wakeAll(q *Ring[*Task]) {
	for q.Len() > 0 {
		q.Pop().wake()
	}
}

// wakeFirst wakes the longest-parked task in q, if any.
func wakeFirst(q *Ring[*Task]) {
	if q.Len() > 0 {
		q.Pop().wake()
	}
}

// Mailbox is a FIFO message queue between processes. With capacity 0 the
// mailbox is unbounded and Put never blocks; with a positive capacity
// Put blocks while the mailbox is full, providing backpressure (used to
// model bounded buffer pools between pipeline stages).
type Mailbox struct {
	k        *Kernel
	name     string
	capacity int
	items    Ring[any]
	getters  Ring[*Task]
	putters  Ring[*Task]
	puts     int64
	gets     int64
	closed   bool
}

// NewMailbox creates a mailbox. capacity 0 means unbounded.
func NewMailbox(k *Kernel, name string, capacity int) *Mailbox {
	return new(Mailbox).Init(k, name, capacity)
}

// Init builds m in place as NewMailbox would, keeping only the storage
// of its queues, and returns it; a nil m is allocated first. Any item or
// waiter of an earlier use is dropped.
func (m *Mailbox) Init(k *Kernel, name string, capacity int) *Mailbox {
	if m == nil {
		m = new(Mailbox)
	}
	*m = Mailbox{k: k, name: name, capacity: capacity,
		items: m.items.Emptied(), getters: m.getters.Emptied(), putters: m.putters.Emptied()}
	return m
}

// Name returns the mailbox's name.
func (m *Mailbox) Name() string { return m.name }

// Len returns the number of queued messages.
func (m *Mailbox) Len() int { return m.items.Len() }

// Puts returns the total number of messages ever enqueued.
func (m *Mailbox) Puts() int64 { return m.puts }

// Gets returns the total number of messages ever dequeued.
func (m *Mailbox) Gets() int64 { return m.gets }

// Closed reports whether Close has been called.
func (m *Mailbox) Closed() bool { return m.closed }

// Put enqueues v, blocking while a bounded mailbox is full. Putting to a
// closed mailbox returns ErrClosed (the message is not enqueued) — a
// condition callers model as a dead endpoint, not a programming error.
func (m *Mailbox) Put(p *Proc, v any) error {
	for m.capacity > 0 && m.items.Len() >= m.capacity && !m.closed {
		m.putters.Push(&p.Task)
		p.parkBlocked(m.name, "put")
	}
	if m.closed {
		return ErrClosed
	}
	m.items.Push(v)
	m.puts++
	wakeFirst(&m.getters)
	return nil
}

// PutFunc is Put for callback tasks: it enqueues v and then runs fn
// with the outcome — immediately in the caller's context when the
// mailbox has room (or is closed), otherwise later in kernel context
// once a getter frees a slot. fn may be nil when the caller does not
// continue after the put (fire-and-forget into an unbounded mailbox).
func (m *Mailbox) PutFunc(t *Task, v any, fn func(error)) {
	t.putVal = v
	t.putCont = fn
	m.completePut(t)
}

// completePut attempts t's pending put, re-parking if the mailbox is
// still full. It is called from PutFunc and again from dispatch each
// time the task is woken, mirroring the retry loop in Put.
func (m *Mailbox) completePut(t *Task) {
	if m.capacity > 0 && m.items.Len() >= m.capacity && !m.closed {
		t.waitMb = m
		t.parkWait(taskWaitPut, m.name, "put")
		m.putters.Push(t)
		return
	}
	fn := t.putCont
	v := t.putVal
	t.putCont, t.putVal, t.waitMb = nil, nil, nil
	if m.closed {
		if fn != nil {
			fn(ErrClosed)
		}
		return
	}
	m.items.Push(v)
	m.puts++
	wakeFirst(&m.getters)
	if fn != nil {
		fn(nil)
	}
}

// TryPut enqueues v if the mailbox has room, reporting success.
func (m *Mailbox) TryPut(v any) bool {
	if m.closed || (m.capacity > 0 && m.items.Len() >= m.capacity) {
		return false
	}
	m.items.Push(v)
	m.puts++
	wakeFirst(&m.getters)
	return true
}

// Get dequeues the oldest message, blocking while the mailbox is empty.
// When the mailbox is closed and drained, Get returns (nil, false);
// otherwise it returns (msg, true).
func (m *Mailbox) Get(p *Proc) (any, bool) {
	for m.items.Len() == 0 && !m.closed {
		m.getters.Push(&p.Task)
		p.parkBlocked(m.name, "get")
	}
	if m.items.Len() == 0 {
		return nil, false
	}
	v := m.items.Pop()
	m.gets++
	wakeFirst(&m.putters)
	return v, true
}

// GetFunc is Get for callback tasks: it runs fn with the dequeued
// message — immediately in the caller's context when one is available
// (or the mailbox is closed and drained, with ok=false), otherwise
// later in kernel context when a message arrives.
func (m *Mailbox) GetFunc(t *Task, fn func(v any, ok bool)) {
	t.getCont = fn
	m.completeGet(t)
}

// completeGet attempts t's pending get, re-parking if the mailbox is
// still empty (another waiter woken at the same timestamp may have
// taken the message first). It is called from GetFunc and again from
// dispatch each time the task is woken, mirroring the retry loop in
// Get.
func (m *Mailbox) completeGet(t *Task) {
	if m.items.Len() == 0 && !m.closed {
		t.waitMb = m
		t.parkWait(taskWaitGet, m.name, "get")
		m.getters.Push(t)
		return
	}
	fn := t.getCont
	t.getCont, t.waitMb = nil, nil
	if m.items.Len() == 0 {
		fn(nil, false)
		return
	}
	v := m.items.Pop()
	m.gets++
	wakeFirst(&m.putters)
	fn(v, true)
}

// TryGet dequeues a message without blocking, reporting success.
func (m *Mailbox) TryGet() (any, bool) {
	if m.items.Len() == 0 {
		return nil, false
	}
	v := m.items.Pop()
	m.gets++
	wakeFirst(&m.putters)
	return v, true
}

// Close marks the mailbox as closed. Blocked and future Gets drain the
// remaining messages and then return ok=false. Close is idempotent.
func (m *Mailbox) Close() {
	if m.closed {
		return
	}
	m.closed = true
	wakeAll(&m.getters)
	wakeAll(&m.putters)
}

// Barrier blocks a fixed-size group of processes until all have arrived,
// then releases them together. It is reusable: after a release the next
// Wait starts a new generation.
type Barrier struct {
	k       *Kernel
	name    string
	parties int
	arrived int
	gen     int64
	waiters Ring[*Task]
	rounds  int64
}

// NewBarrier creates a barrier for parties processes.
func NewBarrier(k *Kernel, name string, parties int) *Barrier {
	if parties <= 0 {
		panic("sim: barrier parties must be positive")
	}
	return &Barrier{k: k, name: name, parties: parties}
}

// Rounds returns how many times the barrier has released.
func (b *Barrier) Rounds() int64 { return b.rounds }

// Wait blocks p until all parties have called Wait for this generation.
func (b *Barrier) Wait(p *Proc) {
	gen := b.gen
	b.arrived++
	if b.arrived == b.parties {
		b.arrived = 0
		b.gen++
		b.rounds++
		wakeAll(&b.waiters)
		return
	}
	b.waiters.Push(&p.Task)
	for b.gen == gen {
		p.parkBlocked(b.name, "barrier")
	}
}

// Signal is a one-shot level-triggered event: processes that Wait before
// Fire block; once fired, Wait returns immediately forever after.
//
// A signal is 24 bytes. Disk requests, network messages and MPI handles
// embed one each, and nearly every one of them has exactly one waiter,
// so the first waiter is held inline; the queue behind it (rest) is
// allocated only when a second waiter arrives, and kept for reuse.
type Signal struct {
	first *Task
	rest  *Ring[*Task]
	fired bool
}

// NewSignal creates an unfired signal.
func NewSignal() *Signal { return &Signal{} }

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// Fire releases all current and future waiters, in arrival order.
// Idempotent.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	if t := s.first; t != nil {
		s.first = nil
		t.wake()
		if s.rest != nil {
			wakeAll(s.rest)
		}
	}
}

// enqueue parks t's place behind the signal's current waiters.
func (s *Signal) enqueue(t *Task) {
	switch {
	case s.first == nil:
		s.first = t
	case s.rest == nil:
		s.rest = &Ring[*Task]{}
		fallthrough
	default:
		s.rest.Push(t)
	}
}

// Wait blocks p until the signal fires.
func (s *Signal) Wait(p *Proc) {
	for !s.fired {
		s.enqueue(&p.Task)
		p.parkBlocked("", "signal")
	}
}

// WaitFunc runs fn once the signal has fired: immediately in the
// caller's context if it already has, otherwise in kernel context when
// Fire releases the waiters.
func (s *Signal) WaitFunc(t *Task, fn func()) {
	if s.fired {
		fn()
		return
	}
	t.cont = fn
	t.parkWait(taskWaitSignal, "", "signal")
	s.enqueue(t)
}

// Reset returns a fired signal to the unfired state so pooled
// completion signals can be reused. Resetting with waiters still parked
// panics: they would never be woken.
func (s *Signal) Reset() {
	if s.first != nil {
		panic("sim: Reset on a signal with parked waiters")
	}
	s.fired = false
}

// WaitGroup counts outstanding work items; Wait blocks until the count
// reaches zero. The zero value is unusable — create with NewWaitGroup.
type WaitGroup struct {
	count   int
	waiters Ring[*Task]
}

// NewWaitGroup returns a wait group with an initial count.
func NewWaitGroup(initial int) *WaitGroup { return &WaitGroup{count: initial} }

// Add increments the count by n (n may be negative; Done is Add(-1)).
func (wg *WaitGroup) Add(n int) {
	wg.count += n
	if wg.count < 0 {
		panic("sim: negative waitgroup count")
	}
	if wg.count == 0 {
		wakeAll(&wg.waiters)
	}
}

// Done decrements the count by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait blocks p until the count is zero.
func (wg *WaitGroup) Wait(p *Proc) {
	for wg.count > 0 {
		wg.waiters.Push(&p.Task)
		p.parkBlocked("", "waitgroup")
	}
}
