// Package mpi provides the MPI-like user-space message-passing and
// global-synchronization layer that drives the network model for
// cluster configurations: asynchronous point-to-point operations with
// source/tag matching, plus barrier and reduction collectives. Host CPU
// costs per message come from the osmodel cost table (pinned send and
// receive buffers, as in the BSPlib-class library the paper assumes).
package mpi

import (
	"fmt"
	"math/bits"

	"howsim/internal/cpu"
	"howsim/internal/netsim"
	"howsim/internal/osmodel"
	"howsim/internal/probe"
	"howsim/internal/sim"
)

// Wildcards for Recv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// World is a communicator spanning all nodes of a network.
type World struct {
	net  *netsim.Network
	eps  []*Endpoint
	cost osmodel.Costs
}

// Endpoint is one rank's communication state.
type Endpoint struct {
	w       *World
	rank    int
	cpu     *cpu.CPU
	pending envQueue      // arrived, not yet received (unexpected queue)
	waiters []*recvWaiter // posted receives, in posting order

	// The rank's dispatcher: a bare task draining the network inbox,
	// with its continuation bound once. pumping/got let a get that
	// completes synchronously continue pump's loop in place.
	inbox   *sim.Mailbox
	t       *sim.Task
	msgFn   func(any, bool)
	pumping bool
	got     bool

	handleFree []*Handle
	waiterFree []*recvWaiter
	sendPrefix string // "isend<rank>->": send tasks are named on demand

	sent, received int64
	bytesSent      int64
}

// recvWaiter is a receive posted before its message arrived. Waiters
// are pooled per endpoint, their completion signal embedded.
type recvWaiter struct {
	src, tag int
	msg      Envelope
	done     sim.Signal
}

// Envelope is a received message's header and payload, copied out of
// the network message when the dispatcher takes it from the inbox, so
// the message goes back to the network's pool once its sender is done
// with it, whether or not a receive is posted. It is 32 bytes: ranks
// and tags fit in an int32, and an endpoint queues one envelope per
// unexpected message.
type Envelope struct {
	Src     int32
	Tag     int32
	Bytes   int64
	Payload any
}

// NewWorld creates a communicator over net. cpus[i] is the processor
// charged for rank i's messaging overheads; a nil entry charges nothing
// (used for infrastructure ranks). Each rank's dispatcher starts at the
// current time.
func NewWorld(net *netsim.Network, cpus []*cpu.CPU, cost osmodel.Costs) *World {
	w := newWorld(net, cpus, cost)
	k := net.Kernel()
	for _, ep := range w.eps {
		ep.t = k.NewTask(fmt.Sprintf("mpi.dispatch%d", ep.rank))
		ep.msgFn = ep.onMsg
		k.At(k.Now(), ep.pump)
	}
	return w
}

// newWorld creates the communicator's endpoints without starting their
// dispatchers.
func newWorld(net *netsim.Network, cpus []*cpu.CPU, cost osmodel.Costs) *World {
	if len(cpus) != net.Nodes() {
		panic(fmt.Sprintf("mpi: %d cpus for %d nodes", len(cpus), net.Nodes()))
	}
	w := &World{net: net, cost: cost}
	for i := 0; i < net.Nodes(); i++ {
		w.eps = append(w.eps, &Endpoint{w: w, rank: i, cpu: cpus[i], inbox: net.Inbox(i),
			sendPrefix: fmt.Sprintf("isend%d->", i)})
	}
	return w
}

// Rank returns rank r's endpoint.
func (w *World) Rank(r int) *Endpoint { return w.eps[r] }

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.eps) }

// Network returns the underlying network.
func (w *World) Network() *netsim.Network { return w.net }

// pump drains the rank's network inbox, handing each message to
// deliver, until the inbox is empty and the dispatcher parks on it;
// onMsg resumes the loop when the next message arrives.
func (ep *Endpoint) pump() {
	for {
		ep.pumping, ep.got = true, false
		ep.inbox.GetFunc(ep.t, ep.msgFn)
		ep.pumping = false
		if !ep.got {
			return
		}
	}
}

// onMsg is the dispatcher's get continuation.
func (ep *Endpoint) onMsg(v any, ok bool) {
	if !ok {
		ep.t.Finish() // inbox closed: the dispatcher retires
		return
	}
	ep.deliver(v.(*netsim.Message))
	if ep.pumping {
		ep.got = true
		return
	}
	ep.pump()
}

// deliver copies an arrived message's envelope out, drops the
// receiver's reference to the message, and hands the envelope to the
// oldest matching posted receive or queues it as unexpected.
func (ep *Endpoint) deliver(m *netsim.Message) {
	env := Envelope{Src: int32(m.Src), Tag: int32(m.Tag), Bytes: m.Bytes, Payload: m.Payload}
	m.Release()
	for i, wtr := range ep.waiters {
		if env.matches(wtr.src, wtr.tag) {
			ep.waiters = remove(ep.waiters, i)
			wtr.msg = env
			wtr.done.Fire()
			return
		}
	}
	ep.pending.push(env)
}

func (e *Envelope) matches(src, tag int) bool {
	return (src == AnySource || int(e.Src) == src) && (tag == AnyTag || int(e.Tag) == tag)
}

// envQueue is the unexpected-message queue: a power-of-two ring of
// envelopes in arrival order that doubles only when full. Taking the
// head pops it in constant time; taking an envelope further in closes
// the gap by moving the shorter side, so the rest keep their order.
type envQueue struct {
	buf     []Envelope
	head, n int
}

func (q *envQueue) len() int { return q.n }

// at returns the i-th oldest envelope.
func (q *envQueue) at(i int) *Envelope { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

func (q *envQueue) push(e Envelope) {
	if q.n == len(q.buf) {
		next := make([]Envelope, max(1, 2*len(q.buf)))
		c := copy(next, q.buf[q.head:])
		copy(next[c:], q.buf[:q.head])
		q.buf, q.head = next, 0
	}
	q.n++
	*q.at(q.n - 1) = e
}

// take removes and returns the i-th oldest envelope, clearing the
// vacated slot.
func (q *envQueue) take(i int) Envelope {
	e := *q.at(i)
	if i < q.n/2 {
		for j := i; j > 0; j-- {
			*q.at(j) = *q.at(j - 1)
		}
		*q.at(0) = Envelope{}
		q.head = (q.head + 1) & (len(q.buf) - 1)
	} else {
		for j := i; j < q.n-1; j++ {
			*q.at(j) = *q.at(j + 1)
		}
		*q.at(q.n - 1) = Envelope{}
	}
	q.n--
	return e
}

// remove deletes s[i], keeping order and clearing the vacated slot.
func remove[T any](s []T, i int) []T {
	copy(s[i:], s[i+1:])
	var zero T
	s[len(s)-1] = zero
	return s[:len(s)-1]
}

func (ep *Endpoint) chargeCPU(p *sim.Proc, d sim.Time) {
	if ep.cpu != nil {
		ep.cpu.Busy(p, d)
	}
}

// Send transmits a message and blocks until it is fully delivered.
func (ep *Endpoint) Send(p *sim.Proc, dst, tag int, bytes int64, payload any) {
	ep.Isend(p, dst, tag, bytes, payload).Wait(p)
}

// Handle tracks an asynchronous send. It is also the send's state
// machine: a bare task injects the message and waits for its delivery
// in kernel callbacks. Handles are pooled per endpoint; Wait returns
// one to the pool.
type Handle struct {
	done sim.Signal
	ep   *Endpoint
	t    *sim.Task
	m    *netsim.Message

	dst, tag int
	bytes    int64
	payload  any

	// next is the step stepFn runs when the pending event, injection
	// or wait ends; one continuation, bound once per handle, serves
	// every step.
	next   sendStep
	stepFn func()
}

// sendStep names the step a Handle continues with.
type sendStep uint8

const (
	sendStart     sendStep = iota // the send's event: inject the frames
	sendInjected                  // the last frame is in: wait for delivery
	sendDelivered                 // the message has arrived: complete the handle
)

// Wait blocks p until the send has been delivered, then recycles the
// handle: wait on each handle exactly once, and not after.
func (h *Handle) Wait(p *sim.Proc) {
	h.done.Wait(p)
	h.done.Reset()
	h.ep.handleFree = append(h.ep.handleFree, h)
}

// Isend starts an asynchronous send and returns a handle that completes
// on delivery. The host CPU cost of handing the message to the NIC is
// charged synchronously; frame injection proceeds in the background so
// up to the NIC queue depth of messages can be in flight. Injection
// starts in an event at the current time, in the queue position a
// spawned sender process would start in.
func (ep *Endpoint) Isend(p *sim.Proc, dst, tag int, bytes int64, payload any) *Handle {
	ep.chargeCPU(p, ep.w.cost.MessageSend)
	ep.sent++
	ep.bytesSent += bytes
	var h *Handle
	if n := len(ep.handleFree); n > 0 {
		h = ep.handleFree[n-1]
		ep.handleFree[n-1] = nil
		ep.handleFree = ep.handleFree[:n-1]
	} else {
		h = &Handle{ep: ep}
		h.stepFn = h.step
	}
	h.dst, h.tag, h.bytes, h.payload = dst, tag, bytes, payload
	k := ep.w.net.Kernel()
	k.At(k.Now(), h.then(sendStart))
	return h
}

// then returns the continuation that runs step s.
func (h *Handle) then(s sendStep) func() {
	h.next = s
	return h.stepFn
}

// step runs the send's next step: inject the frames, wait for
// delivery, complete the handle.
func (h *Handle) step() {
	switch h.next {
	case sendStart:
		ep := h.ep
		net := ep.w.net
		h.t = net.Kernel().NewTaskN(ep.sendPrefix, h.dst)
		h.m = net.NewMessage(ep.rank, h.dst, h.tag, h.bytes, h.payload)
		h.payload = nil
		net.SendFunc(h.t, h.m, h.then(sendInjected))
	case sendInjected:
		h.m.WaitFunc(h.t, h.then(sendDelivered))
	case sendDelivered:
		h.m.Release()
		h.m = nil
		h.t.Finish()
		h.t = nil
		h.done.Fire()
	}
}

// Recv blocks until a message matching (src, tag) arrives and returns
// its envelope. Use AnySource/AnyTag as wildcards. The per-message
// receive cost (including the completion interrupt) is charged to the
// rank's CPU.
func (ep *Endpoint) Recv(p *sim.Proc, src, tag int) Envelope {
	var env Envelope
	found := false
	for i := 0; i < ep.pending.len(); i++ {
		if ep.pending.at(i).matches(src, tag) {
			env, found = ep.pending.take(i), true
			break
		}
	}
	if !found {
		var w *recvWaiter
		if n := len(ep.waiterFree); n > 0 {
			w = ep.waiterFree[n-1]
			ep.waiterFree[n-1] = nil
			ep.waiterFree = ep.waiterFree[:n-1]
		} else {
			w = &recvWaiter{}
		}
		w.src, w.tag = src, tag
		ep.waiters = append(ep.waiters, w)
		w.done.Wait(p)
		env = w.msg
		w.msg = Envelope{}
		w.done.Reset()
		ep.waiterFree = append(ep.waiterFree, w)
	}
	ep.received++
	ep.chargeCPU(p, ep.w.cost.MessageRecv)
	return env
}

// Stats returns (messages sent, messages received, bytes sent).
func (ep *Endpoint) Stats() (sent, received, bytesSent int64) {
	return ep.sent, ep.received, ep.bytesSent
}

// Window bounds the number of in-flight asynchronous sends of one
// process, mirroring the paper's "up to 16 asynchronous receives"
// pipelining without unbounded buffering. Its handles sit in a ring
// that is reused for the life of the window.
type Window struct {
	hs      []*Handle // in flight, oldest at hs[head]
	head, n int
}

// NewWindow returns a window of up to max sends in flight.
func NewWindow(max int) *Window { return &Window{hs: make([]*Handle, max)} }

// Add records a send. When the window is already full, p first waits
// for the oldest send in it.
func (w *Window) Add(p *sim.Proc, h *Handle) {
	if w.n == len(w.hs) {
		w.waitOldest(p)
	}
	w.hs[(w.head+w.n)%len(w.hs)] = h
	w.n++
}

// Drain waits for every send in the window, oldest first.
func (w *Window) Drain(p *sim.Proc) {
	for w.n > 0 {
		w.waitOldest(p)
	}
}

func (w *Window) waitOldest(p *sim.Proc) {
	h := w.hs[w.head]
	w.hs[w.head] = nil
	w.head = (w.head + 1) % len(w.hs)
	w.n--
	h.Wait(p)
}

// Group provides collectives over a subset of ranks (e.g. the worker
// nodes, excluding the front-end host). Collective latency is modeled as
// a dissemination pattern: ceil(log2 n) rounds of small-message
// exchanges, matching the "efficient ... global synchronization library"
// validated in Netsim.
type Group struct {
	w       *World
	ranks   []int
	barrier *sim.Barrier
	vals    []float64
	reduced float64
	phase   int
	// RoundCost is the per-round latency of the dissemination pattern.
	RoundCost sim.Time

	// pr records each member's collective wait time: one span per rank
	// per collective, from arrival to release (dissemination latency
	// included), with the caller's group index as the span argument
	// (-1 for barriers, which do not identify their caller).
	pr       probe.Ref
	kBarrier probe.Kind
	kReduce  probe.Kind
}

// NewGroup creates a collective group over the given ranks.
func (w *World) NewGroup(name string, ranks []int) *Group {
	g := &Group{
		w:         w,
		ranks:     append([]int(nil), ranks...),
		barrier:   sim.NewBarrier(w.net.Kernel(), name+".barrier", len(ranks)),
		vals:      make([]float64, len(ranks)),
		RoundCost: 120 * sim.Microsecond,
	}
	g.pr = w.net.Kernel().Probe().Register("mpi", name)
	g.kBarrier = g.pr.KindNamed("barrier_wait")
	g.kReduce = g.pr.KindNamed("reduce_wait")
	return g
}

// Size returns the number of ranks in the group.
func (g *Group) Size() int { return len(g.ranks) }

func (g *Group) rounds() int {
	if len(g.ranks) <= 1 {
		return 0
	}
	return bits.Len(uint(len(g.ranks) - 1))
}

// Barrier synchronizes the group: all members block until everyone has
// arrived, then pay the dissemination latency.
func (g *Group) Barrier(p *sim.Proc) {
	start := p.Now()
	g.barrier.Wait(p)
	p.Delay(sim.Time(g.rounds()) * g.RoundCost)
	if g.pr.On() {
		g.pr.SpanArg(g.kBarrier, int64(start), int64(p.Now()), -1)
	}
}

// AllReduceSum contributes v and returns the sum over the group. index
// is the caller's position within the group's rank list.
func (g *Group) AllReduceSum(p *sim.Proc, index int, v float64) float64 {
	start := p.Now()
	g.vals[index] = v
	g.barrier.Wait(p)
	if index == 0 {
		s := 0.0
		for _, x := range g.vals {
			s += x
		}
		g.reduced = s
	}
	// Second phase: everyone sees the result, then leaves together so
	// the buffer can be reused.
	g.barrier.Wait(p)
	out := g.reduced
	p.Delay(sim.Time(g.rounds()) * g.RoundCost)
	if g.pr.On() {
		g.pr.SpanArg(g.kReduce, int64(start), int64(p.Now()), int64(index))
	}
	return out
}

// AllReduceMax contributes v and returns the maximum over the group.
func (g *Group) AllReduceMax(p *sim.Proc, index int, v float64) float64 {
	start := p.Now()
	g.vals[index] = v
	g.barrier.Wait(p)
	if index == 0 {
		m := g.vals[0]
		for _, x := range g.vals[1:] {
			if x > m {
				m = x
			}
		}
		g.reduced = m
	}
	g.barrier.Wait(p)
	out := g.reduced
	p.Delay(sim.Time(g.rounds()) * g.RoundCost)
	if g.pr.On() {
		g.pr.SpanArg(g.kReduce, int64(start), int64(p.Now()), int64(index))
	}
	return out
}
