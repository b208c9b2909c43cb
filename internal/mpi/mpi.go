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
	pending []*netsim.Message
	waiters []*recvWaiter

	sent, received int64
	bytesSent      int64
}

type recvWaiter struct {
	src, tag int
	msg      *netsim.Message
	done     *sim.Signal
}

// NewWorld creates a communicator over net. cpus[i] is the processor
// charged for rank i's messaging overheads; a nil entry charges nothing
// (used for infrastructure ranks).
func NewWorld(net *netsim.Network, cpus []*cpu.CPU, cost osmodel.Costs) *World {
	if len(cpus) != net.Nodes() {
		panic(fmt.Sprintf("mpi: %d cpus for %d nodes", len(cpus), net.Nodes()))
	}
	w := &World{net: net, cost: cost}
	for i := 0; i < net.Nodes(); i++ {
		ep := &Endpoint{w: w, rank: i, cpu: cpus[i]}
		w.eps = append(w.eps, ep)
		net.Kernel().Spawn(fmt.Sprintf("mpi.dispatch%d", i), ep.dispatch)
	}
	return w
}

// Rank returns rank r's endpoint.
func (w *World) Rank(r int) *Endpoint { return w.eps[r] }

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.eps) }

// Network returns the underlying network.
func (w *World) Network() *netsim.Network { return w.net }

// dispatch drains the rank's network inbox, handing messages to matching
// posted receives or queueing them as unexpected.
func (ep *Endpoint) dispatch(p *sim.Proc) {
	inbox := ep.w.net.Inbox(ep.rank)
	for {
		v, ok := inbox.Get(p)
		if !ok {
			return
		}
		m := v.(*netsim.Message)
		if i := ep.matchWaiter(m); i >= 0 {
			wtr := ep.waiters[i]
			ep.waiters = append(ep.waiters[:i], ep.waiters[i+1:]...)
			wtr.msg = m
			wtr.done.Fire()
		} else {
			ep.pending = append(ep.pending, m)
		}
	}
}

func (ep *Endpoint) matchWaiter(m *netsim.Message) int {
	for i, w := range ep.waiters {
		if (w.src == AnySource || w.src == m.Src) && (w.tag == AnyTag || w.tag == m.Tag) {
			return i
		}
	}
	return -1
}

func matches(m *netsim.Message, src, tag int) bool {
	return (src == AnySource || m.Src == src) && (tag == AnyTag || m.Tag == tag)
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

// Handle tracks an asynchronous operation.
type Handle struct {
	done sim.Signal
	msg  *netsim.Message
}

// Wait blocks p until the operation completes.
func (h *Handle) Wait(p *sim.Proc) { h.done.Wait(p) }

// Done reports completion without blocking.
func (h *Handle) Done() bool { return h.done.Fired() }

// Message returns the delivered message (receives only; nil for sends
// until you have Waited).
func (h *Handle) Message() *netsim.Message { return h.msg }

// Isend starts an asynchronous send and returns a handle that completes
// on delivery. The host CPU cost of handing the message to the NIC is
// charged synchronously; frame injection proceeds in the background so
// up to the NIC queue depth of messages can be in flight.
func (ep *Endpoint) Isend(p *sim.Proc, dst, tag int, bytes int64, payload any) *Handle {
	ep.chargeCPU(p, ep.w.cost.MessageSend)
	ep.sent++
	ep.bytesSent += bytes
	h := &Handle{}
	ep.w.net.Kernel().Spawn(fmt.Sprintf("isend%d->%d", ep.rank, dst), func(ip *sim.Proc) {
		m := ep.w.net.Send(ip, ep.rank, dst, tag, bytes, payload)
		m.Wait(ip)
		h.msg = m
		h.done.Fire()
	})
	return h
}

// Irecv posts an asynchronous receive for (src, tag) — the paper's
// tasks "post up to 16 asynchronous receives for any message from any
// peer". The returned handle completes when a matching message arrives;
// Message() then returns it. The receive cost is charged when the
// posting rank waits on the handle.
func (ep *Endpoint) Irecv(src, tag int) *Handle {
	h := &Handle{}
	for i, m := range ep.pending {
		if matches(m, src, tag) {
			ep.pending = append(ep.pending[:i], ep.pending[i+1:]...)
			ep.received++
			h.msg = m
			h.done.Fire()
			return h
		}
	}
	w := &recvWaiter{src: src, tag: tag, done: &h.done}
	ep.waiters = append(ep.waiters, w)
	// Bridge the waiter's message into the handle when it fires.
	ep.w.net.Kernel().Spawn("irecv.bridge", func(bp *sim.Proc) {
		w.done.Wait(bp)
		h.msg = w.msg
		ep.received++
	})
	return h
}

// WaitRecv blocks on a posted receive and returns the message, charging
// the receive cost.
func (ep *Endpoint) WaitRecv(p *sim.Proc, h *Handle) *netsim.Message {
	h.Wait(p)
	// The bridge process fires at the same instant; let it run so the
	// message is attached.
	for h.msg == nil {
		p.Yield()
	}
	ep.chargeCPU(p, ep.w.cost.MessageRecv)
	return h.msg
}

// Recv blocks until a message matching (src, tag) arrives and returns
// it. Use AnySource/AnyTag as wildcards. The per-message receive cost
// (including the completion interrupt) is charged to the rank's CPU.
func (ep *Endpoint) Recv(p *sim.Proc, src, tag int) *netsim.Message {
	for i, m := range ep.pending {
		if matches(m, src, tag) {
			ep.pending = append(ep.pending[:i], ep.pending[i+1:]...)
			ep.received++
			ep.chargeCPU(p, ep.w.cost.MessageRecv)
			return m
		}
	}
	w := &recvWaiter{src: src, tag: tag, done: sim.NewSignal()}
	ep.waiters = append(ep.waiters, w)
	w.done.Wait(p)
	ep.received++
	ep.chargeCPU(p, ep.w.cost.MessageRecv)
	return w.msg
}

// Stats returns (messages sent, messages received, bytes sent).
func (ep *Endpoint) Stats() (sent, received, bytesSent int64) {
	return ep.sent, ep.received, ep.bytesSent
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
