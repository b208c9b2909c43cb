// Conservative parallel execution: one simulation sharded across OS
// threads as a group of kernels synchronized by per-edge clock promises
// (a null-message variant of Chandy-Misra-Bryant).
//
// Partitioning model. A ShardGroup owns one hub kernel plus N leaf
// kernels. Model state is split so that a leaf only ever touches its
// own components; everything shared (buses, the front-end, coordination
// primitives, stream endpoints) lives on the hub. The cross-partition
// operation is Shard.Call: a leaf process posts a timestamped closure
// and parks; a proxy process executes the closure on the hub at the
// message's arrival time and the leaf process resumes when it
// completes. A shard holds at most one outstanding call: the protocol
// is built for one hub-crossing process per leaf, whose local
// components (disk, CPU) sit idle while it waits, so a parked leaf has
// no local work the hub would have to drive. A second concurrent Call
// on one shard panics.
//
// Synchronization. Edges are instantaneous: a call issued at local time
// t executes on the hub at t. Each leaf continuously publishes a
// per-edge horizon — "nothing will arrive over my edge earlier than
// this" — which is its local clock while free-running, its earliest
// remaining local event while parked in Call, and +infinity only once
// it can never send again (the null message that keeps empty links
// from deadlocking the group). The hub only executes work strictly
// below the minimum published horizon (its earliest input time), so a
// grant or arbitration decision can never be reordered by a message
// still in flight. Leaves receive nothing unsolicited: free-running
// leaves race ahead of the hub on their own cores, which is where the
// parallelism comes from. A parked leaf runs nothing until its call is
// delivered, so if only parked leaves hold the earliest input time at
// or below the hub's next obligation, no progress is possible: the
// group stops and reports the shard through Stall instead of hanging.
//
// Exactness. Byte-equivalence with the single-kernel event mode needs
// more than conservative order — it needs the *same-instant* order. In
// a single kernel, events at one instant fire in scheduling order (seq
// respects schedT, ties recursing up the scheduling chain), so every
// boundary here is a full scheduling key — (instant, scheduling time,
// ancestor lineage) — not just a time. Three rules provide the order.
// First, a request is injected at its single-kernel queue position: the
// hub runs its own events at the request's timestamp only up to the
// issuing leaf event's key (runUntilPos) and executes the request
// inline there (spawnInline — no start event that would sort after
// pending events); concurrent requests from different shards order by
// (key, delivery rank, shard). Second, a call's completion rendezvouses
// back into its leaf at the hub's key: the leaf runs its own
// same-instant events keyed before the completing hub event, resumes
// the caller, then drains the rest of the instant; a follow-on call at
// the same instant runs inline at the proxy's event position. Third, a
// request blocked only by parked leaves whose remaining same-instant
// work is keyed after it is injected anyway (the published next-event
// key refines the time-only horizon at the boundary instant).
package sim

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"howsim/internal/probe"
)

// horizonInfinity is the published horizon of a shard that promises to
// inject no further hub work, ever.
const horizonInfinity = int64(math.MaxInt64)

// maxTime is the "no obligation" sentinel in hub scheduling decisions.
const maxTime = Time(math.MaxInt64)

// xcall is one cross-shard request: fn runs on a hub proxy process at
// virtual time at — the issuing event's time; caller is the leaf
// process parked until it returns.
type xcall struct {
	at Time
	// key is the issuing leaf event's scheduling key. key.schedT is the
	// tie-break that slots same-instant requests from different shards
	// into single-kernel sequence order (an event scheduled earlier
	// carries a smaller sequence number). key.anc, the scheduling
	// instants up the issuing event's scheduling chain, is compared when
	// schedT alone cannot separate same-instant requests — in a single
	// kernel the tie recurses to the execution order of the scheduler
	// events, which recurses to *their* scheduling instants.
	key eventKey
	// rank is the issuing process's delivery rank (Proc.xrank): processes
	// running in lockstep — released by the same barrier, granted by the
	// same mailbox — issue requests with identical stamps all the way up
	// their lineage, and the single-kernel order of those requests is the
	// order the hub last sequenced their processes, not the shard
	// numbering.
	rank   uint64
	src    int32
	fn     func(*Proc)
	caller *Proc
}

// xcallBefore is the deterministic injection order: timestamp, then
// scheduling time of the issuing event, then its ancestor scheduling
// instants, then delivery rank of the issuing process, then source
// shard (a shard has at most one request pending).
func xcallBefore(a, b *xcall) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.key != b.key {
		return schedKeyAfter(&b.key, &a.key)
	}
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.src < b.src
}

// horizonQueue holds cross-shard requests the hub has not injected yet,
// in xcallBefore order. It holds at most one request per shard, so a
// sorted scan beats heap bookkeeping.
type horizonQueue struct {
	q []*xcall
}

func (h *horizonQueue) push(c *xcall) { h.q = append(h.q, c) }

func (h *horizonQueue) len() int { return len(h.q) }

// peek returns the least pending request in injection order, nil when
// empty.
func (h *horizonQueue) peek() *xcall {
	var best *xcall
	for _, c := range h.q {
		if best == nil || xcallBefore(c, best) {
			best = c
		}
	}
	return best
}

// takeMin removes and returns the least pending request in injection
// order, nil when empty.
func (h *horizonQueue) takeMin() *xcall {
	if len(h.q) == 0 {
		return nil
	}
	best := 0
	for i := 1; i < len(h.q); i++ {
		if xcallBefore(h.q[i], h.q[best]) {
			best = i
		}
	}
	c := h.q[best]
	last := len(h.q) - 1
	h.q[best] = h.q[last]
	h.q[last] = nil
	h.q = h.q[:last]
	return c
}

// leafState tracks a shard's lifecycle for quiescence detection.
type leafState int32

const (
	// leafRunning: the leaf goroutine is free-running local events; its
	// horizon is its published clock.
	leafRunning leafState = iota
	// leafParked: the leaf's calling process is parked in Call; the leaf
	// goroutine is idle until the hub delivers the call's completion.
	leafParked
	// leafFinished: the leaf's event queue drained with no call in
	// flight. Service-loop tasks parked on their queues are normal here —
	// the same state a single kernel ends a run in.
	leafFinished
)

// leafCmd drives a leaf goroutine from the hub side.
type leafCmd struct {
	kind   int // cmdDeliver | cmdFree | cmdStop
	at     Time
	resume *Proc
	// key carries the hub's current scheduling key into a cmdDeliver:
	// the position of the proxy event the caller would have resumed
	// inside in a single kernel. The delivery adopts it, so the caller's
	// continued chain compares correctly against chains on other shards.
	key eventKey
}

const (
	cmdDeliver = iota // resume the parked caller at .at and drain that instant
	cmdFree           // run local events to quiescence
	cmdStop           // exit the leaf goroutine
)

// leafStatus is a leaf's report after a delivery: the follow-on call it
// stopped at (if any) and its earliest remaining local event.
type leafStatus struct {
	call    *xcall
	next    Time // earliest remaining local event (valid when hasNext)
	hasNext bool
	// nextKey is the scheduling key of the earliest remaining event
	// (valid when hasNext): a lower bound on the key of anything the
	// leaf can still execute — or send — at that instant.
	nextKey eventKey
}

// Shard is one leaf partition: a kernel plus the synchronization state
// the group needs to reason about it.
type Shard struct {
	id int32
	k  *Kernel
	g  *ShardGroup

	// horizon is the shard's published per-edge promise: nothing will
	// arrive from this shard earlier than this time (horizonInfinity
	// once nothing can ever arrive). Written by the leaf's publish hook
	// while free-running and by the hub while the leaf is parked; read
	// by the hub's EIT scan.
	horizon atomic.Int64
	state   atomic.Int32

	// hasNext and nextKey are the hub-side view of a parked leaf's
	// earliest remaining local event's scheduling key.
	hasNext bool     // guarded by g.mu
	nextKey eventKey // guarded by g.mu

	cmds    chan leafCmd
	replies chan leafStatus
	// call is the shard's one cross-shard request. Call fills it and
	// sets pending until the request is handed to the hub: the end of
	// the run slice posts it to the hub inbox, or a delivery's status
	// returns it to the proxy for inline execution. call.caller stays
	// set until the delivery resumes the caller, which is what a second
	// concurrent Call trips over. The leaf writes call only while no
	// request of the shard is with the hub.
	call    xcall
	pending bool
}

// Kernel returns the shard's kernel. Build the shard's model components
// on it; only the leaf's own processes may block on them.
func (sh *Shard) Kernel() *Kernel { return sh.k }

// Call executes fn on the hub and blocks p until it completes. fn runs
// on a hub proxy process at the current virtual time and may use every
// blocking primitive of the hub's model components; it must not touch
// leaf state other than values it captured. p resumes at the virtual
// time fn finished. This is exactly an inline execution — including
// follow-on Calls at the same instant, which run at the same hub event
// position an inline continuation would have. At most one process of a
// shard may be in a Call at a time; a second concurrent Call panics.
func (sh *Shard) Call(p *Proc, fn func(*Proc)) {
	if p.k != sh.k {
		panic(fmt.Sprintf("sim: Call on shard %d from foreign process %q", sh.id, p.name))
	}
	if c := sh.call.caller; c != nil {
		panic(fmt.Sprintf("sim: second concurrent Call on shard %d: %q called while %q is parked in one",
			sh.id, p.name, c.name))
	}
	sh.call = xcall{
		at: sh.k.now, key: sh.k.cur,
		rank: p.xrank, src: sh.id, fn: fn, caller: p,
	}
	sh.pending = true
	// Stop the leaf's run the moment the caller parks: the resume time is
	// hub-determined and may precede every pending local event, so racing
	// ahead would execute the leaf's future before the caller's present.
	sh.k.Stop()
	// The machinery park below is bookkeeping, not model behavior: cancel
	// its diagnostics count so sharded scheduler counters match the
	// single-kernel run byte for byte.
	sh.k.sched.Count(probe.KindParks, -1)
	p.Await("xshard", "call")
}

// leafLoop is the leaf goroutine: free-run to local quiescence, then
// serve hub commands (deliver a call's completion, resume free running,
// stop).
func (sh *Shard) leafLoop() {
	defer sh.g.wg.Done()
	sh.runSlice()
	for cmd := range sh.cmds {
		switch cmd.kind {
		case cmdStop:
			return
		case cmdDeliver:
			sh.deliver(&cmd)
			sh.replies <- sh.takeStatus()
		case cmdFree:
			sh.runSlice()
		}
	}
}

// runSlice executes local events until the queue drains or the calling
// process parks in Call, then publishes the end-of-slice state to the
// group.
func (sh *Shard) runSlice() {
	sh.k.Run()
	sh.k.stopped = false // Call stops the run when the caller parks
	g := sh.g
	g.mu.Lock()
	if sh.pending {
		// Post the request and only then adjust the horizon: the hub must
		// never observe a widened horizon without the request that
		// justifies it.
		sh.pending = false
		g.inbox.push(&sh.call)
		sh.state.Store(int32(leafParked))
	} else {
		sh.state.Store(int32(leafFinished))
	}
	if t, key, ok := sh.k.nextEventKey(); ok {
		sh.hasNext, sh.nextKey = true, key
		sh.horizon.Store(int64(t))
	} else {
		sh.hasNext = false
		sh.horizon.Store(horizonInfinity)
	}
	g.cond.Broadcast()
	g.mu.Unlock()
}

// deliver resumes the parked caller at its single-kernel position: the
// leaf runs its own events at cmd.at keyed at or before the hub event
// that completed the call (runUntilPos), resumes the caller inside that
// event's lineage, then drains the rest of the instant. It stops at a
// follow-on Call: the caller parks again at the same instant and the
// hub runs the call inline. The inline activate adds no scheduler
// counts: the hub process that ran the call already counted every park
// and wake the single-kernel caller makes.
func (sh *Shard) deliver(cmd *leafCmd) {
	k := sh.k
	k.runUntilPos(cmd.at, cmd.key)
	if k.now < cmd.at {
		k.AdvanceTo(cmd.at)
	}
	k.cur = cmd.key
	sh.call.caller = nil
	k.activate(cmd.resume, false)
	k.stopped = false // a follow-on Call stops the run
	if sh.pending {
		return
	}
	k.RunUntil(cmd.at)
	k.stopped = false
}

// takeStatus reports the leaf's state after a delivery: the follow-on
// call it stopped at, if any, and its earliest remaining local event.
func (sh *Shard) takeStatus() leafStatus {
	var st leafStatus
	if sh.pending {
		sh.pending = false
		st.call = &sh.call
	}
	if t, key, ok := sh.k.nextEventKey(); ok {
		st.next, st.hasNext, st.nextKey = t, true, key
	}
	return st
}

// ShardGroup runs one simulation partitioned across a hub kernel and a
// set of leaf kernels, one OS goroutine each.
type ShardGroup struct {
	hub    *Kernel
	shards []*Shard

	mu    sync.Mutex
	cond  *sync.Cond
	inbox horizonQueue // guarded by mu
	// want is the timestamp the hub is currently stalled on (or
	// horizonInfinity): a leaf whose published horizon crosses it
	// broadcasts the condition variable. Keeping the threshold in an
	// atomic lets the leaves' hot publish path skip the lock entirely.
	want atomic.Int64

	// deliverSeq numbers rendezvous deliveries in hub execution order;
	// each delivery stamps the resumed process's xrank. Hub-goroutine
	// only.
	deliverSeq uint64

	wg    sync.WaitGroup
	ran   bool
	stall string
}

// NewShardGroup creates a hub kernel and n leaf kernels wired for
// conservative parallel execution. Build shared model state on Hub()'s
// kernel and per-partition state on each Shard(i)'s kernel, spawn the
// partition processes, then call Run.
func NewShardGroup(n int) *ShardGroup {
	if n < 1 {
		panic("sim: ShardGroup needs at least one shard")
	}
	g := &ShardGroup{hub: &Kernel{sharded: true}}
	g.cond = sync.NewCond(&g.mu)
	g.want.Store(horizonInfinity)
	for i := 0; i < n; i++ {
		sh := &Shard{
			id:      int32(i),
			k:       &Kernel{sharded: true},
			g:       g,
			cmds:    make(chan leafCmd),
			replies: make(chan leafStatus),
		}
		sh.horizon.Store(horizonInfinity)
		sh.k.setPublish(func(t Time) {
			// Wake the hub only when this horizon crosses want. The hub
			// stores want before reading horizons and the leaf swaps
			// before loading want, so one side sees the other; a horizon
			// already above want cannot be what the hub waits on.
			h := int64(t)
			old := sh.horizon.Swap(h)
			if want := g.want.Load(); old <= want && h > want {
				g.mu.Lock()
				g.cond.Broadcast()
				g.mu.Unlock()
			}
		})
		g.shards = append(g.shards, sh)
	}
	return g
}

// Hub returns the group's hub kernel.
func (g *ShardGroup) Hub() *Kernel { return g.hub }

// Shards returns the number of leaf partitions.
func (g *ShardGroup) Shards() int { return len(g.shards) }

// Shard returns leaf partition i.
func (g *ShardGroup) Shard(i int) *Shard { return g.shards[i] }

// Stall describes why the group stopped with work still parked — the
// sharded analogue of Kernel.DeadlockReport. Empty after a clean run.
func (g *ShardGroup) Stall() string { return g.stall }

// DeadlockReport aggregates the parked-process reports of every kernel
// in the group, prefixing each non-empty section with the kernel it
// came from ("hub", "shard 0", ...). Empty when nothing is parked. Call
// after Run; the leaf kernels are quiescent then, so reading them from
// the hub's goroutine is safe.
func (g *ShardGroup) DeadlockReport() string {
	var b strings.Builder
	if r := g.hub.DeadlockReport(); r != "" {
		b.WriteString("hub:\n")
		b.WriteString(r)
	}
	for i, sh := range g.shards {
		if r := sh.k.DeadlockReport(); r != "" {
			if b.Len() > 0 {
				b.WriteString("\n")
			}
			fmt.Fprintf(&b, "shard %d:\n", i)
			b.WriteString(r)
		}
	}
	return b.String()
}

// absorbNextLocked stores a leaf status's earliest remaining event into
// the shard's hub-side state and republishes its horizon. Callers hold
// g.mu.
func (g *ShardGroup) absorbNextLocked(sh *Shard, st *leafStatus) {
	if st.hasNext {
		sh.hasNext, sh.nextKey = true, st.nextKey
		sh.horizon.Store(int64(st.next))
	} else {
		sh.hasNext = false
		sh.horizon.Store(horizonInfinity)
	}
}

// clearFor reports whether pending request rq may be injected even
// though the earliest input time does not clear rq.at: every shard
// whose horizon fails to clear it is parked with its earliest remaining
// work keyed strictly after the request, so nothing any shard can still
// send at that instant sorts before rq in single-kernel order. The
// horizons read here are newer than the hub's peek at rq, so rq must
// also still head the inbox: a leaf may have posted an earlier request
// and parked in between.
func (g *ShardGroup) clearFor(rq *xcall) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.inbox.peek() != rq {
		return false
	}
	for _, sh := range g.shards {
		h := Time(sh.horizon.Load())
		if h > rq.at {
			continue
		}
		if h < rq.at || leafState(sh.state.Load()) != leafParked || !sh.hasNext ||
			!schedKeyAfter(&sh.nextKey, &rq.key) {
			return false
		}
	}
	return true
}

// eit returns the hub's earliest input time: the minimum per-edge
// horizon published by any shard. The hub may execute work strictly
// below it.
func (g *ShardGroup) eit() Time {
	min := maxTime
	for _, sh := range g.shards {
		if h := Time(sh.horizon.Load()); h < min {
			min = h
		}
	}
	return min
}

// Run executes the partitioned simulation to global quiescence and
// returns the final virtual time (the maximum across all kernels). It
// drives the hub kernel on the calling goroutine and each leaf kernel
// on its own goroutine. Run may be called once per group.
func (g *ShardGroup) Run() Time {
	if g.ran {
		panic("sim: ShardGroup.Run called twice")
	}
	g.ran = true
	for _, sh := range g.shards {
		if t, ok := sh.k.NextEventTime(); ok {
			sh.horizon.Store(int64(t))
			sh.state.Store(int32(leafRunning))
		} else {
			sh.horizon.Store(horizonInfinity)
			sh.state.Store(int32(leafFinished))
		}
	}
	for _, sh := range g.shards {
		g.wg.Add(1)
		go sh.leafLoop()
	}

	for {
		l, okL := g.hub.NextEventTime()
		// Read the horizons before the inbox. A leaf posts its requests
		// before it raises its horizon past them, so any request below
		// this eit is already in the inbox when it is peeked. Read the
		// other way round, a leaf could post a request and raise its
		// horizon between the two reads, and the hub would execute a
		// later request ahead of it.
		eit := g.eit()
		g.mu.Lock()
		rq := g.inbox.peek()
		seen := g.inbox.len()
		g.mu.Unlock()

		target := maxTime
		if okL {
			target = l
		}
		if rq != nil && rq.at < target {
			target = rq.at
		}
		if eit <= target && !(rq != nil && rq.at == target && g.clearFor(rq)) {
			// An edge horizon blocks the next obligation: wait for the
			// free-running leaves to advance, or for the whole group to
			// quiesce. A wait that no leaf can end is a stall.
			if target == maxTime {
				if g.quiesceOrWait() {
					break
				}
				continue
			}
			if !g.waitHorizon(target, seen) {
				break
			}
			continue
		}
		if rq == nil || (okL && l < rq.at) {
			// A safe local window: every hub event strictly below both
			// the earliest pending request and the earliest possible new
			// one. A rendezvous handback inside the window may lower the
			// kernel's limit if the resumed leaf could inject earlier.
			winCap := eit - 1
			if rq != nil && rq.at-1 < winCap {
				winCap = rq.at - 1
			}
			g.hub.RunUntil(winCap)
			continue
		}
		// A request due at rq.at: run the hub's own events up to the
		// request's scheduling position — an event at that instant
		// scheduled at or before the request's issuing leaf event carried
		// a smaller sequence number in the single-kernel order; one
		// scheduled after it must wait behind the request — then execute
		// the request inline at exactly that position. One request at a
		// time: its proxy may free a leaf that then posts an
		// earlier-positioned request, so the order is re-evaluated from
		// scratch after each.
		if okL && l <= rq.at {
			g.hub.runUntilPos(rq.at, rq.key)
			if g.hub.now < rq.at {
				// The run stopped early — a delivery freed a leaf that may
				// inject below rq.at (tightening the limit) or the queue
				// drained. Re-evaluate from the top with the new state.
				continue
			}
		}
		if g.hub.now < rq.at {
			g.hub.AdvanceTo(rq.at)
		}
		g.mu.Lock()
		c := g.inbox.takeMin()
		g.mu.Unlock()
		g.runProxy(c)
	}

	for _, sh := range g.shards {
		sh.cmds <- leafCmd{kind: cmdStop}
	}
	g.wg.Wait()
	final := g.hub.now
	for _, sh := range g.shards {
		if t := sh.k.Now(); t > final {
			final = t
		}
	}
	return final
}

// Close stops the pooled process coroutines of every kernel in the
// group. Call once after Run.
func (g *ShardGroup) Close() {
	g.hub.Close()
	for _, sh := range g.shards {
		sh.k.Close()
	}
}

// runProxy starts the hub process that executes one cross-shard
// request — and, via the synchronous rendezvous in respond, any chain
// of same-instant follow-on calls from the same leaf process. The
// proxy starts inline at the hub's current position rather than
// through a start event: the request stands in for its issuing leaf
// event, and a start event at the current instant would sort after
// every hub event already pending at this time. runProxy returns when
// the proxy chain finishes or parks on a hub primitive.
func (g *ShardGroup) runProxy(rq *xcall) {
	sh := g.shards[rq.src]
	g.hub.spawnInline("xshard.proxy", func(p *Proc) {
		for {
			// The request stands in for its issuing leaf event: hub events
			// it schedules must carry that event's lineage, exactly as the
			// closure running inline in a single kernel would.
			g.hub.cur = rq.key
			rq.fn(p)
			next := g.respond(sh, rq.caller)
			if next == nil {
				return
			}
			rq = next
		}
	})
}

// respond completes a call: it resumes the shard's parked caller at the
// hub's current time and waits while the leaf drains that instant. A
// follow-on call the resumed caller issues during the drain is at that
// same instant, since edges carry no latency, and is returned for
// inline execution at the proxy's event position. Otherwise the shard
// goes back to free running, or is marked finished when it has no local
// events left; a free-running shard may inject work at its next event,
// so the hub's run window is tightened below it.
func (g *ShardGroup) respond(sh *Shard, caller *Proc) *xcall {
	at := g.hub.now
	// Stamp the caller with this delivery's rank before it resumes: the
	// hub order of deliveries at an instant (a barrier's FIFO wake order,
	// a grant order) is the sequence-number lineage the resumed processes
	// carry through their next lockstep stretch, and their next requests
	// tie-break by it (xcallBefore).
	g.deliverSeq++
	caller.xrank = g.deliverSeq
	sh.cmds <- leafCmd{
		kind: cmdDeliver, at: at, resume: caller,
		key: g.hub.cur,
	}
	st := <-sh.replies
	g.mu.Lock()
	// Refresh the shard's published state even when it parked again: a
	// chained closure may park on a hub primitive for a long stretch, and
	// the drain's publish hook has left the horizon at some
	// already-executed event time.
	g.absorbNextLocked(sh, &st)
	if c := st.call; c != nil {
		g.mu.Unlock()
		if c.at != at {
			panic(fmt.Sprintf("sim: shard %d issued a call at %v while draining %v", sh.id, c.at, at))
		}
		// Execute it inline at the proxy's event position, exactly where
		// the single-kernel instant would have run its closure. The shard
		// stays parked.
		return c
	}
	if st.hasNext {
		sh.state.Store(int32(leafRunning))
	} else {
		sh.state.Store(int32(leafFinished))
	}
	g.mu.Unlock()
	if st.hasNext {
		if lim := st.next - 1; g.hub.limited && lim < g.hub.limit {
			g.hub.limit = lim
		}
		sh.cmds <- leafCmd{kind: cmdFree}
	}
	return nil
}

// waitHorizon blocks until every shard's horizon clears target or the
// inbox holds more than the seen requests the hub chose target from —
// either changes what the hub should do next. Counting from the hub's
// peek rather than from entry matters: a request posted in between may
// be the very one every horizon is waiting on. It returns false, with
// the stall recorded, once every shard holding a horizon at or below
// target is parked: a parked leaf runs nothing until the hub delivers
// its call, and the hub has nothing below target to run, so no wait
// could end.
func (g *ShardGroup) waitHorizon(target Time, seen int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.want.Store(int64(target))
	defer g.want.Store(horizonInfinity)
	for g.eit() <= target && g.inbox.len() == seen {
		if sh := g.parkedBlockerLocked(target); sh != nil {
			g.stall = g.stallReportLocked(fmt.Sprintf(
				"shard %d is parked in a call with local work at %v, at or below the hub's next obligation at %v",
				sh.id, Time(sh.horizon.Load()), target))
			return false
		}
		g.cond.Wait()
	}
	return true
}

// parkedBlockerLocked returns the lowest-numbered shard whose horizon is
// at or below target when every such shard is parked, and nil while any
// of them still runs. Callers hold g.mu.
func (g *ShardGroup) parkedBlockerLocked(target Time) *Shard {
	var first *Shard
	for _, sh := range g.shards {
		if Time(sh.horizon.Load()) > target {
			continue
		}
		if leafState(sh.state.Load()) != leafParked {
			return nil
		}
		if first == nil {
			first = sh
		}
	}
	return first
}

// quiesceOrWait handles the hub-idle state: true means the group is
// globally quiescent (all leaves finished — or irrecoverably parked,
// the sharded image of a model deadlock, reported via Stall and
// DeadlockReport) and Run should return; false means new work arrived.
func (g *ShardGroup) quiesceOrWait() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		if g.inbox.len() > 0 {
			return false
		}
		anyRunning, allFinished := false, true
		for _, sh := range g.shards {
			switch leafState(sh.state.Load()) {
			case leafRunning:
				anyRunning, allFinished = true, false
			case leafParked:
				allFinished = false
			}
		}
		if allFinished {
			return true
		}
		if !anyRunning {
			// Shards parked in calls whose proxies are parked on hub
			// primitives nobody will fire, with no hub events and no queued
			// requests: the sharded image of a model deadlock (or a wedged
			// protocol). Capture diagnostics and stop instead of hanging;
			// callers inspect Stall and DeadlockReport.
			g.stall = g.stallReportLocked("no hub work is left and every unfinished shard is parked in a call")
			return true
		}
		g.cond.Wait()
	}
}

// stallReportLocked assembles the diagnostic for a wedged group: why it
// stopped, then every shard's state and horizon.
func (g *ShardGroup) stallReportLocked(why string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "shard group stalled at hub time %v: %s", g.hub.now, why)
	for _, sh := range g.shards {
		fmt.Fprintf(&sb, "\n  shard %d: state=%d horizon=%d", sh.id, sh.state.Load(), sh.horizon.Load())
	}
	return sb.String()
}
