// Package netsim is the switched-network substrate, reimplementing the
// role Netsim plays in Howsim: "Netsim models switched networks and an
// efficient user-space message-passing and global synchronization
// library with an MPI-like interface".
//
// The model is store-and-forward at frame granularity. A message is cut
// into frames; each frame traverses a path of links. Every link has a
// bounded input queue and one transmit server per physical channel, so
// contention, head-of-line blocking and backpressure all emerge from
// queueing rather than being approximated analytically. The message
// layer with matching semantics lives in package mpi; this package only
// moves bytes.
package netsim

import (
	"fmt"
	"sort"

	"howsim/internal/fault"
	"howsim/internal/probe"
	"howsim/internal/sim"
)

// DefaultFrameBytes is the segmentation granularity for messages.
const DefaultFrameBytes = 64 << 10

// Message is one network transfer. Delivery is signaled when the final
// frame reaches the destination.
type Message struct {
	ID      int64
	Src     int
	Dst     int
	Tag     int
	Bytes   int64
	Payload any

	SentAt      sim.Time
	DeliveredAt sim.Time

	framesLeft int
	done       sim.Signal

	net *Network
	// refs counts the holders of a message from SendFunc: the sender,
	// until its completion has run, and the receiver, until it has
	// consumed the message from the inbox. The last Release returns the
	// message to the network's free list. A message from Send holds no
	// references and is never recycled: its caller may keep it.
	refs int8

	// SendFunc's injection state: the task injecting the frames, the
	// route, the frames and bytes not yet injected, the frame whose put
	// is in flight, and the continuation to run once the last frame is
	// in. inPut/putDone guard against re-entry when a put completes
	// synchronously, so the frame loop continues in place.
	t         *sim.Task
	route     Route
	toInject  int
	remaining int64
	cur       *frame
	injected  func()
	inPut     bool
	putDone   bool

	// Continuations bound once per message allocation and reused with
	// the message.
	putFn      func(error)
	loopbackFn func()
}

// Wait blocks p until the message has been fully delivered.
func (m *Message) Wait(p *sim.Proc) { m.done.Wait(p) }

// WaitFunc is Wait for callback tasks: fn runs once the message has been
// fully delivered — at once if it already has.
func (m *Message) WaitFunc(t *sim.Task, fn func()) { m.done.WaitFunc(t, fn) }

// Delivered reports whether the message has fully arrived.
func (m *Message) Delivered() bool { return m.done.Fired() }

// Release drops one reference to a message from SendFunc (see refs).
// It is a no-op for a message from Send. The message must not be used
// after its last reference is released.
func (m *Message) Release() {
	if m.refs == 0 {
		return
	}
	m.refs--
	if m.refs == 0 {
		m.net.freeMessage(m)
	}
}

// frame is one store-and-forward unit of a message. It carries its
// route by value; route[hop] is the next link to traverse.
type frame struct {
	bytes int64
	route Route
	hop   int
	msg   *Message
}

// Link is a unidirectional transmission link with a bounded queue and
// one transmit server per channel.
type Link struct {
	name  string
	queue *sim.Mailbox
	pipe  *sim.Pipe
	net   *Network

	bytesMoved int64
	frames     int64

	outages   []fault.Window // sorted outage windows; nil on the fault-free path
	stallTime sim.Time
	dropped   int64 // frames dropped on a closed next-hop queue

	// pr is the same probe instance the link's pipe registered (Register
	// dedupes): stall spans, frame drops and input-queue depth samples
	// join the pipe's occupancy spans under one instance.
	pr probe.Ref

	txs []*linkTx // the transmit servers, one per channel
}

// LinkConfig parameterizes a link.
type LinkConfig struct {
	Channels    int      // parallel physical channels (e.g. 2 GigE uplinks)
	BytesPerSec float64  // per-channel rate
	Latency     sim.Time // per-frame startup (propagation + switch cut-in)
	QueueFrames int      // bounded input queue depth (backpressure)
}

// NewLink creates a link and spawns its transmit servers.
func (n *Network) NewLink(name string, cfg LinkConfig) *Link {
	return new(Link).init(n, name, cfg)
}

// init builds l in place as NewLink would, keeping only storage (its
// queue's and pipe's, and its transmit servers), and returns it; a nil
// l is allocated first.
func (l *Link) init(n *Network, name string, cfg LinkConfig) *Link {
	if cfg.Channels <= 0 {
		cfg.Channels = 1
	}
	if cfg.QueueFrames <= 0 {
		cfg.QueueFrames = 8
	}
	if l == nil {
		l = new(Link)
	}
	*l = Link{
		name:  name,
		queue: l.queue.Init(n.k, name+".q", cfg.QueueFrames),
		pipe:  l.pipe.Init(n.k, name, cfg.Channels, cfg.BytesPerSec, cfg.Latency),
		net:   n,
		pr:    n.k.Probe().Register("link", name),
		txs:   sim.Resized(l.txs, cfg.Channels),
	}
	for i, tx := range l.txs {
		l.txs[i] = tx.init(l, fmt.Sprintf("%s.tx%d", name, i))
	}
	return l
}

// Name returns the link's name.
func (l *Link) Name() string { return l.name }

// BytesMoved returns the total payload bytes transmitted on this link.
func (l *Link) BytesMoved() int64 { return l.bytesMoved }

// Utilization returns the fraction of channel-time in use.
func (l *Link) Utilization() float64 { return l.pipe.Utilization() }

// SetOutages installs outage windows during which the link transmits
// nothing: frames already queued wait them out (and so does every frame
// backed up behind them). An empty slice restores the fault-free path.
func (l *Link) SetOutages(ws []fault.Window) {
	if len(ws) == 0 {
		l.outages = nil
		return
	}
	l.outages = append([]fault.Window(nil), ws...)
	sort.Slice(l.outages, func(i, j int) bool { return l.outages[i].Start < l.outages[j].Start })
}

// Frames returns the number of frames this link has transmitted.
func (l *Link) Frames() int64 { return l.frames }

// StallTime returns the total channel-time spent stalled in outages.
func (l *Link) StallTime() sim.Time { return l.stallTime }

// DroppedFrames returns the frames this link discarded because the next
// hop's queue had been closed (a downed endpoint).
func (l *Link) DroppedFrames() int64 { return l.dropped }

// Close takes the link down for good, like a dead port: its input
// queue closes, so every frame bound for it is dropped and counted —
// by the hop before it, or by the link itself when the sender injects
// into it as a first hop — and its transmit servers retire once the
// frames already queued are sent.
func (l *Link) Close() { l.queue.Close() }

// drop discards a frame that could not enter this link's closed queue.
func (l *Link) drop(f *frame) {
	l.dropped++
	l.pr.Count(probe.KindDrop, 1)
	l.net.freeFrame(f)
}

// linkTx is one transmit channel's server loop: pull a frame, serialize
// it onto the wire, then hand it to the next hop (waiting if that hop's
// queue is full — backpressure) or deliver it. A frame bound for a
// closed next-hop queue is dropped and counted, like a packet sent to a
// dead port: the network stays up, the loss is observable. The loop is
// a state machine whose step continuations are bound once at
// construction, so forwarding a frame performs no process handoff and
// no allocation.
type linkTx struct {
	l       *Link
	t       *sim.Task
	f       *frame
	frameFn func(any, bool)
	sentFn  func()
	putFn   func(error)
	stallFn func()
}

// init builds tx in place as a new transmit server of l, keeping its
// bound continuations, starts it and returns it; a nil tx is allocated
// first.
func (tx *linkTx) init(l *Link, name string) *linkTx {
	if tx == nil {
		tx = new(linkTx)
		tx.frameFn = tx.onFrame
		tx.sentFn = tx.onSent
		tx.putFn = tx.onPut
		tx.stallFn = tx.send
	}
	*tx = linkTx{l: l, t: l.net.k.NewTask(name),
		frameFn: tx.frameFn, sentFn: tx.sentFn, putFn: tx.putFn, stallFn: tx.stallFn}
	tx.next()
	return tx
}

func (tx *linkTx) next() { tx.l.queue.GetFunc(tx.t, tx.frameFn) }

func (tx *linkTx) onFrame(v any, ok bool) {
	if !ok {
		tx.t.Finish() // queue closed: this channel's server retires
		return
	}
	tx.f = v.(*frame)
	tx.send()
}

// send waits out any outage covering the current instant, then puts the
// frame on the wire. The windows are re-checked from scratch after each
// stall, since a stall can end inside a later window.
func (tx *linkTx) send() {
	l := tx.l
	if l.outages != nil {
		now := l.net.k.Now()
		for _, w := range l.outages {
			if now < w.Start {
				break
			}
			if w.Contains(now) {
				d := w.End - now
				l.stallTime += d
				l.pr.Span(probe.KindStall, int64(now), int64(w.End))
				l.net.k.After(d, tx.stallFn)
				return
			}
		}
	}
	l.pipe.TransferFunc(tx.t, tx.f.bytes, tx.sentFn)
}

func (tx *linkTx) onSent() {
	l, f := tx.l, tx.f
	l.bytesMoved += f.bytes
	l.frames++
	f.hop++
	if f.hop < MaxHops && f.route[f.hop] != nil {
		next := f.route[f.hop]
		if next.pr.On() {
			next.pr.Sample(probe.KindQueue, int64(next.queue.Len()))
		}
		next.queue.PutFunc(tx.t, f, tx.putFn)
		return
	}
	tx.f = nil
	l.net.deliver(f)
	tx.next()
}

func (tx *linkTx) onPut(err error) {
	if err != nil {
		tx.l.drop(tx.f)
	}
	tx.f = nil
	tx.next()
}

// MaxHops bounds the links one route crosses: a two-level fat tree
// crosses at most four.
const MaxHops = 4

// Route is the ordered links a message crosses from source to
// destination, held by value so that computing one allocates nothing.
// Entries past the last hop are nil.
type Route [MaxHops]*Link

// Topology computes the link path between nodes.
type Topology interface {
	// Nodes returns the number of addressable endpoints.
	Nodes() int
	// Path returns the route a message takes from src to dst. src == dst
	// is never passed (loopback is handled by the Network).
	Path(src, dst int) Route
}

// Network moves messages across a topology and delivers them to
// per-node inboxes.
type Network struct {
	k          *sim.Kernel
	topo       Topology
	inboxes    []*sim.Mailbox
	FrameBytes int64
	// LoopbackTime is charged for self-addressed messages (local memcpy
	// is modeled by the message layer; this is just scheduling latency).
	LoopbackTime sim.Time

	msgSeq         int64
	bytesDelivered int64
	msgsDelivered  int64

	frameFree []*frame   // recycled frames: delivered or dropped
	msgFree   []*Message // recycled SendFunc messages
}

// New creates a network. Attach a topology with SetTopology before
// sending.
func New(k *sim.Kernel, frameBytes int64) *Network { return new(Network).Init(k, frameBytes) }

// Init builds n in place as New would and returns it; a nil n is
// allocated first. It keeps only storage: the pooled frames and
// messages, and the inboxes, which SetTopology rebuilds in place.
func (n *Network) Init(k *sim.Kernel, frameBytes int64) *Network {
	if frameBytes <= 0 {
		frameBytes = DefaultFrameBytes
	}
	if n == nil {
		n = new(Network)
	}
	*n = Network{k: k, FrameBytes: frameBytes, LoopbackTime: sim.Microsecond,
		inboxes: n.inboxes, frameFree: n.frameFree, msgFree: n.msgFree}
	return n
}

// Kernel returns the kernel the network runs on.
func (n *Network) Kernel() *sim.Kernel { return n.k }

// SetTopology installs the topology and creates one inbox per node.
func (n *Network) SetTopology(t Topology) {
	n.topo = t
	n.inboxes = sim.Resized(n.inboxes, t.Nodes())
	for i, mb := range n.inboxes {
		n.inboxes[i] = mb.Init(n.k, fmt.Sprintf("node%d.inbox", i), 0)
	}
}

// Nodes returns the number of endpoints.
func (n *Network) Nodes() int { return n.topo.Nodes() }

// Inbox returns the mailbox where node's fully received *Message values
// appear. The message layer drains it.
func (n *Network) Inbox(node int) *sim.Mailbox { return n.inboxes[node] }

// BytesDelivered returns the total payload bytes fully delivered.
func (n *Network) BytesDelivered() int64 { return n.bytesDelivered }

// MessagesDelivered returns the count of fully delivered messages.
func (n *Network) MessagesDelivered() int64 { return n.msgsDelivered }

// Send injects a message. It blocks p only while the first hop's queue
// is full (socket-buffer-style backpressure); it returns once the last
// frame has been injected. Wait on the returned message for delivery.
func (n *Network) Send(p *sim.Proc, src, dst, tag int, bytes int64, payload any) *Message {
	m := n.newMessage(src, dst, tag, bytes, payload)
	if src == dst {
		m.framesLeft = 1
		n.k.After(n.LoopbackTime, m.loopbackFn)
		return m
	}
	route := n.route(src, dst)
	first := route[0]
	nframes := n.frames(bytes)
	m.framesLeft = nframes
	remaining := bytes
	for i := 0; i < nframes; i++ {
		fb := min(remaining, n.FrameBytes)
		remaining -= fb
		f := n.newFrame(fb, &route, m)
		if first.pr.On() {
			first.pr.Sample(probe.KindQueue, int64(first.queue.Len()))
		}
		if err := first.queue.Put(p, f); err != nil {
			// First hop is down: the frame is lost at injection. The
			// message will never be delivered; timeout-aware receivers
			// observe the loss.
			first.drop(f)
		}
	}
	return m
}

// NewMessage numbers a message for SendFunc, stamped with the current
// time. The message is pooled and carries two references, the
// sender's and the receiver's: each side calls Release when done with
// it (the sender typically after WaitFunc's continuation, the receiver
// once it has taken the message from the inbox).
func (n *Network) NewMessage(src, dst, tag int, bytes int64, payload any) *Message {
	m := n.newMessage(src, dst, tag, bytes, payload)
	m.refs = 2
	return m
}

// SendFunc is Send for callback tasks: t injects the frames of m, a
// message from NewMessage that has not been sent, parking in the first
// hop's queue while it is full, and done runs once the last frame is
// in — at once when nothing had to wait.
func (n *Network) SendFunc(t *sim.Task, m *Message, done func()) {
	if m.Src == m.Dst {
		m.framesLeft = 1
		n.k.After(n.LoopbackTime, m.loopbackFn)
		done()
		return
	}
	m.t, m.route, m.injected = t, n.route(m.Src, m.Dst), done
	m.framesLeft = n.frames(m.Bytes)
	m.toInject, m.remaining = m.framesLeft, m.Bytes
	m.inject()
}

// inject puts SendFunc's remaining frames into the first hop, in the
// order Send's loop does, and runs the injected continuation after the
// last one. A put that completes synchronously continues the loop in
// place; one that parks resumes it from onPut.
func (m *Message) inject() {
	n, first := m.net, m.route[0]
	for m.toInject > 0 {
		m.toInject--
		fb := min(m.remaining, n.FrameBytes)
		m.remaining -= fb
		m.cur = n.newFrame(fb, &m.route, m)
		if first.pr.On() {
			first.pr.Sample(probe.KindQueue, int64(first.queue.Len()))
		}
		m.inPut, m.putDone = true, false
		first.queue.PutFunc(m.t, m.cur, m.putFn)
		m.inPut = false
		if !m.putDone {
			return // parked on a full queue: onPut resumes the loop
		}
	}
	done := m.injected
	m.t, m.injected = nil, nil
	done()
}

// onPut is the put continuation of inject.
func (m *Message) onPut(err error) {
	if err != nil {
		m.route[0].drop(m.cur) // first hop is down, as in Send
	}
	m.cur = nil
	if m.inPut {
		m.putDone = true
		return
	}
	m.inject()
}

// deliverLoopback completes a self-addressed message.
func (m *Message) deliverLoopback() {
	n := m.net
	m.DeliveredAt = n.k.Now()
	m.done.Fire()
	n.bytesDelivered += m.Bytes
	n.msgsDelivered++
	n.inboxes[m.Dst].TryPut(m)
}

// newMessage numbers a message from src to dst, stamped with the
// current time, taking its storage from the free list when it can.
func (n *Network) newMessage(src, dst, tag int, bytes int64, payload any) *Message {
	if dst < 0 || dst >= n.Nodes() {
		panic(fmt.Sprintf("netsim: destination %d out of range", dst))
	}
	n.msgSeq++
	var m *Message
	if i := len(n.msgFree) - 1; i >= 0 {
		m = n.msgFree[i]
		n.msgFree[i] = nil
		n.msgFree = n.msgFree[:i]
	} else {
		m = &Message{net: n}
		m.putFn = m.onPut
		m.loopbackFn = m.deliverLoopback
	}
	m.ID, m.Src, m.Dst, m.Tag, m.Bytes, m.Payload = n.msgSeq, src, dst, tag, bytes, payload
	m.SentAt = n.k.Now()
	return m
}

// freeMessage returns a message whose last reference was released.
func (n *Network) freeMessage(m *Message) {
	m.Payload = nil
	m.DeliveredAt = 0
	m.done.Reset()
	n.msgFree = append(n.msgFree, m)
}

// frames returns the number of frames a message of the given size
// takes; a zero-byte control message still occupies one frame slot.
func (n *Network) frames(bytes int64) int {
	return max(1, int((bytes+n.FrameBytes-1)/n.FrameBytes))
}

// route returns the route from src to dst.
func (n *Network) route(src, dst int) Route {
	r := n.topo.Path(src, dst)
	if r[0] == nil {
		panic(fmt.Sprintf("netsim: no path from %d to %d", src, dst))
	}
	return r
}

// newFrame takes a frame from the network's free list, or allocates one.
func (n *Network) newFrame(bytes int64, route *Route, m *Message) *frame {
	var f *frame
	if i := len(n.frameFree) - 1; i >= 0 {
		f = n.frameFree[i]
		n.frameFree[i] = nil
		n.frameFree = n.frameFree[:i]
	} else {
		f = new(frame)
	}
	f.bytes, f.route, f.hop, f.msg = bytes, *route, 0, m
	return f
}

// freeFrame returns a frame that left the network — delivered or
// dropped — to the free list. Nothing may hold it afterwards.
func (n *Network) freeFrame(f *frame) {
	f.msg = nil
	n.frameFree = append(n.frameFree, f)
}

// deliver finalizes a frame's arrival at its destination and recycles
// the frame.
func (n *Network) deliver(f *frame) {
	m := f.msg
	n.freeFrame(f)
	m.framesLeft--
	if m.framesLeft > 0 {
		return
	}
	m.DeliveredAt = n.k.Now()
	m.done.Fire()
	n.bytesDelivered += m.Bytes
	n.msgsDelivered++
	if !n.inboxes[m.Dst].TryPut(m) {
		panic("netsim: inbox rejected message")
	}
}
