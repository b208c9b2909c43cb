// Conservative parallel execution: one simulation sharded across OS
// threads as a group of kernels synchronized by per-edge clock promises
// (a null-message variant of Chandy-Misra-Bryant).
//
// Partitioning model. A ShardGroup owns one hub kernel plus N leaf
// kernels. Model state is split so that a leaf only ever touches its
// own components; everything shared (buses, the front-end, coordination
// primitives, cross-leaf streams) lives on the hub. The cross-partition
// operation is Shard.Call: a leaf process posts a timestamped closure
// and parks; a proxy process executes the closure on the hub at the
// message's arrival time and the leaf process resumes when it
// completes. A shard may hold any number of concurrent outstanding
// calls — one per parked leaf process — which is what lets
// communication-heavy tasks (sort and join repartition streams,
// barriers) run sharded: while some leaf processes are parked in Call,
// the shard's remaining local events are executed under hub control in
// bounded windows.
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
// still in flight. When a parked shard's horizon is what blocks the
// hub, the hub drives that shard's local events directly (cmdRun) up to
// the minimum of every other shard's horizon and its own next
// obligation — the conservative window in which those events provably
// cannot be affected by anything still in flight. Leaves receive
// nothing unsolicited: free-running leaves race ahead of the hub on
// their own cores, which is where the parallelism comes from.
//
// Exactness. Byte-equivalence with the single-kernel event mode needs
// more than conservative order — it needs the *same-instant* order. In
// a single kernel, events at one instant fire in scheduling order (seq
// respects schedT, ties recursing up the scheduling chain), so every
// boundary here is a full scheduling key — (instant, scheduling time,
// ancestor lineage) — not just a time. Three rules provide the order.
// First, a request is injected at its single-kernel queue position: the
// hub runs its own events at the request's timestamp only up to the
// issuing leaf event's key (RunUntilPos) and executes the request
// inline there (spawnInline — no start event that would sort after
// pending events); concurrent requests order by (key, delivery rank,
// shard, issue order). Second, a call's completion rendezvouses back
// into its leaf at the hub's key: the leaf interleaves the delivery
// with its own same-instant events by key (drain), resuming the caller
// exactly after the local events that precede the completing hub event
// and before those that follow it; a follow-on call at the same instant
// runs inline at the proxy's event position. Third, driving a parked
// leaf never crosses the leaf's own pending request: local events at
// the request's instant keyed after it wait behind its injection
// (capped drives), and a request blocked only by leaves whose remaining
// same-instant work is keyed after it is injected anyway (the published
// next-event key refines the time-only horizon at the boundary
// instant).
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
	// sched is the scheduling time of the leaf event that issued the
	// call: the tie-break that slots same-instant requests from
	// different shards into single-kernel sequence order (an event
	// scheduled earlier carries a smaller sequence number).
	sched Time
	// anc is the issuing event's ancestor lineage (event.anc): the
	// scheduling instants of the events up its scheduling chain,
	// compared when sched alone cannot separate same-instant requests —
	// in a single kernel the tie recurses to the execution order of the
	// scheduler events, which recurses to *their* scheduling instants.
	anc lineage
	// rank is the issuing process's delivery rank (Proc.xrank): processes
	// running in lockstep — released by the same barrier, granted by the
	// same mailbox — issue requests with identical stamps all the way up
	// their lineage, and the single-kernel order of those requests is the
	// order the hub last sequenced their processes, not the shard
	// numbering.
	rank   uint64
	src    int32
	seq    uint64
	fn     func(*Proc)
	caller *Proc
}

// xcallBefore is the deterministic injection order: timestamp, then
// scheduling time of the issuing event, then its ancestor scheduling
// instants, then delivery rank of the issuing process, then source
// shard, then issue order within the shard.
func xcallBefore(a, b *xcall) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.sched != b.sched {
		return a.sched < b.sched
	}
	for i := range a.anc {
		if a.anc[i] != b.anc[i] {
			return a.anc[i] < b.anc[i]
		}
	}
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// horizonQueue holds cross-shard requests the hub has not injected yet,
// ordered by (timestamp, sched, source shard, issue order). Outstanding
// requests are bounded by parked leaf processes — a handful per shard —
// so the queue stays tiny and a sorted scan beats heap bookkeeping.
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
	// leafParked: one or more leaf processes are parked in Call with
	// their requests posted; the leaf goroutine is idle awaiting hub
	// commands, and any remaining local events are hub-driven (cmdRun)
	// inside conservative windows.
	leafParked
	// leafFinished: the leaf's event queue drained with no call in
	// flight. Service-loop tasks parked on their queues are normal here —
	// the same state a single kernel ends a run in.
	leafFinished
)

// leafCmd drives a leaf goroutine from the hub side.
type leafCmd struct {
	kind   int // cmdDeliver | cmdRun | cmdFree | cmdStop
	at     Time
	resume *Proc
	// sched and anc carry the hub's current scheduling lineage into a
	// cmdDeliver: the position of the proxy event the caller would have
	// resumed inside in a single kernel. The delivery event adopts them,
	// so the caller's continued chain compares correctly against chains
	// on other shards.
	sched Time
	anc   lineage
	// capped bounds the drain by the scheduling key (capSched, capAnc)
	// at instant .at: a pending cross-shard request with that key sorts
	// before any local event keyed after it, so those events must wait
	// until the request has been injected and responded.
	capped   bool
	capSched Time
	capAnc   lineage
}

const (
	cmdDeliver = iota // resume the parked caller at .at and drain that instant
	cmdRun            // run local events through .at (stops at the first new Call)
	cmdFree           // run local events to quiescence
	cmdStop           // exit the leaf goroutine
)

// leafStatus is a leaf's report after a deliver or drive: the calls it
// parked on (at most one per stop — a Call halts the run) and the
// earliest remaining local event.
type leafStatus struct {
	calls   []*xcall
	next    Time // earliest remaining local event (valid when hasNext)
	hasNext bool
	// nextSched and nextAnc are the scheduling key of the earliest
	// remaining item (valid when hasNext): a lower bound on the key of
	// anything the leaf can still execute — or send — at that instant.
	nextSched Time
	nextAnc   lineage
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

	// outstanding counts calls posted and not yet completed; nextAt,
	// hasNext, nextSched and nextAnc are the hub-side view of a parked
	// leaf's earliest remaining item (local event or undelivered
	// rendezvous resume) and its scheduling key.
	outstanding int     // guarded by g.mu
	nextAt      Time    // guarded by g.mu
	hasNext     bool    // guarded by g.mu
	nextSched   Time    // guarded by g.mu
	nextAnc     lineage // guarded by g.mu

	cmds    chan leafCmd
	replies chan leafStatus
	pending []*xcall // requests issued during the current run slice or drive
	// dlv holds rendezvous completions received but not yet executed:
	// each caller resumes at its delivery's hub-side scheduling key,
	// interleaved with local events by drain. Usually at most one entry;
	// a chained call whose proxy parks on a hub primitive can leave an
	// outer delivery pending while a later-keyed one arrives.
	dlv []pendingDeliver
	seq uint64
}

// pendingDeliver is one rendezvous completion awaiting execution:
// caller p resumes at virtual time at, positioned at the scheduling key
// (sched, anc) of the hub event that completed its call.
type pendingDeliver struct {
	p     *Proc
	at    Time
	sched Time
	anc   lineage
}

// deliverBefore orders pending deliveries by (time, scheduling key) —
// the order their resumes hold in a single kernel.
func deliverBefore(a, b *pendingDeliver) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.sched != b.sched {
		return a.sched < b.sched
	}
	for i := range a.anc {
		if a.anc[i] != b.anc[i] {
			return a.anc[i] < b.anc[i]
		}
	}
	return false
}

// Kernel returns the shard's kernel. Build the shard's model components
// on it; only the leaf's own processes may block on them.
func (sh *Shard) Kernel() *Kernel { return sh.k }

// ID returns the shard's index within its group.
func (sh *Shard) ID() int { return int(sh.id) }

// Call executes fn on the hub and blocks p until it completes. fn runs
// on a hub proxy process at the current virtual time and may use every
// blocking primitive of the hub's model components; it must not touch
// leaf state other than values it captured. p resumes at the virtual
// time fn finished. This is exactly an inline execution — including
// follow-on Calls at the same instant, which run at the same hub event
// position an inline continuation would have. Any number of processes
// on the same shard may hold concurrent Calls.
func (sh *Shard) Call(p *Proc, fn func(*Proc)) {
	if p.k != sh.k {
		panic(fmt.Sprintf("sim: Call on shard %d from foreign process %q", sh.id, p.name))
	}
	sh.seq++
	sh.pending = append(sh.pending, &xcall{
		at: sh.k.now, sched: sh.k.curSched, anc: sh.k.curAnc,
		rank: p.xrank, src: sh.id, seq: sh.seq, fn: fn, caller: p,
	})
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
// serve hub commands (deliver-and-drain, bounded drive, resume free
// running, stop).
func (sh *Shard) leafLoop() {
	defer sh.g.wg.Done()
	sh.runSlice()
	for cmd := range sh.cmds {
		switch cmd.kind {
		case cmdStop:
			return
		case cmdDeliver:
			sh.dlv = append(sh.dlv, pendingDeliver{
				p: cmd.resume, at: cmd.at, sched: cmd.sched, anc: cmd.anc,
			})
			sh.drain(&cmd)
			sh.replies <- sh.takeStatus()
		case cmdRun:
			// Bounded drive of a parked shard's local events, or the
			// continuation of an interrupted deliver drain: run at most to
			// cmd.at, stopping at the first new Call so the leaf never
			// races past a request whose response time is hub-determined.
			sh.drain(&cmd)
			sh.replies <- sh.takeStatus()
		case cmdFree:
			sh.runSlice()
		}
	}
}

// runSlice executes local events until the queue drains or a process
// parks in Call, then publishes the end-of-slice state to the group.
func (sh *Shard) runSlice() {
	sh.k.Run()
	sh.k.stopped = false // Call stops the run when a caller parks
	g := sh.g
	g.mu.Lock()
	if len(sh.pending) > 0 {
		// Post the requests and only then adjust the horizon: the hub
		// must never observe a widened horizon without the requests that
		// justify it.
		for _, c := range sh.pending {
			g.inbox.push(c)
		}
		sh.outstanding += len(sh.pending)
		sh.pending = nil
		sh.state.Store(int32(leafParked))
	} else {
		sh.state.Store(int32(leafFinished))
	}
	if t, sched, anc, ok := sh.k.NextEventKey(); ok {
		sh.nextAt, sh.hasNext = t, true
		sh.nextSched, sh.nextAnc = sched, anc
		sh.horizon.Store(int64(t))
	} else {
		sh.hasNext = false
		sh.horizon.Store(horizonInfinity)
	}
	g.cond.Broadcast()
	g.mu.Unlock()
}

// drain runs local events through cmd.at, interleaving pending
// rendezvous deliveries at their single-kernel positions: a caller
// resumes exactly after the local events whose scheduling keys precede
// its delivery's hub-side key and before those that follow it
// (RunUntilPos), in ascending delivery-key order — a chained call's
// completion can be positioned after an outer pending delivery when its
// proxy parked on a hub primitive. A capped command additionally bounds
// the trailing event run by the cap key: local events at cmd.at keyed
// after a pending cross-shard request must wait behind that request's
// injection. Stops at the first new Call: the caller parks, the resume
// time is hub-determined, and the hub continues the drain with a
// follow-up command. The inline activate adds no scheduler counts — the
// single-kernel run resumes the caller inside the hub event that
// completed its call, whose Handoff the hub side already counted.
func (sh *Shard) drain(cmd *leafCmd) {
	lim := cmd.at
	for {
		i := sh.minDeliver(lim)
		if i < 0 {
			break
		}
		d := sh.dlv[i]
		sh.k.RunUntilPos(d.at, d.sched, d.anc)
		sh.k.stopped = false // a Call stops the run when a caller parks
		if len(sh.pending) > 0 {
			return
		}
		if sh.k.now < d.at {
			sh.k.AdvanceTo(d.at)
		}
		last := len(sh.dlv) - 1
		sh.dlv[i] = sh.dlv[last]
		sh.dlv[last] = pendingDeliver{}
		sh.dlv = sh.dlv[:last]
		// The caller resumes inside the hub event that completed its
		// call: the chain it continues carries that event's lineage.
		sh.k.curSched, sh.k.curAnc = d.sched, d.anc
		sh.k.activate(d.p, false)
		sh.k.stopped = false
		if len(sh.pending) > 0 {
			return
		}
	}
	if cmd.capped {
		sh.k.RunUntilPos(lim, cmd.capSched, cmd.capAnc)
	} else {
		sh.k.RunUntil(lim)
	}
	sh.k.stopped = false
}

// minDeliver returns the index of the least pending delivery due at or
// before lim in (time, scheduling key) order, -1 when none is due.
func (sh *Shard) minDeliver(lim Time) int {
	best := -1
	for i := range sh.dlv {
		d := &sh.dlv[i]
		if d.at > lim {
			continue
		}
		if best < 0 || deliverBefore(d, &sh.dlv[best]) {
			best = i
		}
	}
	return best
}

// takeStatus reports the leaf's state after a deliver drain or drive:
// the call it stopped at (if any) and the earliest remaining work — a
// local event or an undelivered rendezvous resume, either of which can
// issue a new call at its time.
func (sh *Shard) takeStatus() leafStatus {
	st := leafStatus{calls: sh.pending}
	sh.pending = nil
	if t, sched, anc, ok := sh.k.NextEventKey(); ok {
		st.next, st.hasNext = t, true
		st.nextSched, st.nextAnc = sched, anc
	}
	for i := range sh.dlv {
		d := &sh.dlv[i]
		if !st.hasNext || d.at < st.next ||
			(d.at == st.next && !schedKeyAfter(d.sched, &d.anc, st.nextSched, &st.nextAnc)) {
			st.next, st.hasNext = d.at, true
			st.nextSched, st.nextAnc = d.sched, d.anc
		}
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
	g := &ShardGroup{hub: NewKernel()}
	g.cond = sync.NewCond(&g.mu)
	g.want.Store(horizonInfinity)
	for i := 0; i < n; i++ {
		sh := &Shard{
			id:      int32(i),
			k:       NewKernel(),
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

// absorbNextLocked stores a reply's earliest-remaining-work view into
// the shard's hub-side state and republishes its horizon. Callers hold
// g.mu.
func (g *ShardGroup) absorbNextLocked(sh *Shard, st *leafStatus) {
	if st.hasNext {
		sh.nextAt, sh.hasNext = st.next, true
		sh.nextSched, sh.nextAnc = st.nextSched, st.nextAnc
		sh.horizon.Store(int64(st.next))
	} else {
		sh.hasNext = false
		sh.horizon.Store(horizonInfinity)
	}
}

// ownCapLocked returns the smallest scheduling key among sh's own
// pending cross-shard requests due at instant at. Local events of sh at
// that instant keyed after it must wait behind those requests — their
// responses rendezvous back into sh positioned at or after the
// request's key. ok is false when sh has no pending request then.
// Callers hold g.mu.
func (g *ShardGroup) ownCapLocked(sh *Shard, at Time) (sched Time, anc lineage, ok bool) {
	for _, c := range g.inbox.q {
		if c.src != sh.id || c.at != at {
			continue
		}
		if !ok || schedKeyAfter(sched, &anc, c.sched, &c.anc) {
			sched, anc, ok = c.sched, c.anc, true
		}
	}
	return
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
			!schedKeyAfter(sh.nextSched, &sh.nextAnc, rq.sched, &rq.anc) {
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
			// An edge horizon blocks the next obligation. Drive parked
			// shards' local events forward inside their conservative
			// windows; if nothing is drivable, wait for the free-running
			// leaves to advance (or for the whole group to quiesce).
			if g.driveLeaves(target) {
				continue
			}
			if target == maxTime {
				if g.quiesceOrWait() {
					break
				}
				continue
			}
			g.waitHorizon(target, seen)
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
		// time: its proxy may rendezvous with a leaf and queue an
		// earlier-positioned request, so the order is re-evaluated from
		// scratch after each.
		if okL && l <= rq.at {
			g.hub.RunUntilPos(rq.at, rq.sched, rq.anc)
			if g.hub.now < rq.at {
				// The run stopped early — a rendezvous queued a request
				// below rq.at (tightening the limit) or the queue drained.
				// Re-evaluate from the top with the new state.
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

// horizonFloor is a snapshot of the two smallest published horizons.
// A parked shard's drive window is bounded by every other shard's
// horizon, so one snapshot per pass yields every shard's limit in O(1):
// the smallest horizon, except for the shard that published it, whose
// limit is the second smallest.
type horizonFloor struct {
	low, second Time
	owner       int // the shard whose horizon is low
}

// horizonFloorLocked snapshots the two smallest published horizons.
// Horizons only rise, so limits taken from the snapshot stay valid
// lower bounds while shards publish progress concurrently.
func (g *ShardGroup) horizonFloorLocked() horizonFloor {
	f := horizonFloor{low: maxTime, second: maxTime, owner: -1}
	for i, sh := range g.shards {
		h := Time(sh.horizon.Load())
		if h < f.low {
			f.second, f.low, f.owner = f.low, h, i
		} else if h < f.second {
			f.second = h
		}
	}
	return f
}

// limit returns the conservative drive window for parked shard i under
// the hub's next obligation: the minimum of hubBound and every other
// shard's horizon in the snapshot. Events of shard i at or below it
// provably cannot be affected by anything still in flight.
func (f horizonFloor) limit(i int, hubBound Time) Time {
	lim := f.low
	if i == f.owner {
		lim = f.second
	}
	return min(lim, hubBound)
}

// drivableLocked reports whether any parked shard has a local event
// inside its drive window — the condition under which the hub must keep
// driving rather than wait or declare quiescence. A shard whose
// earliest remaining work is keyed behind its own pending request
// contributes nothing drivable: those events wait for the request's
// injection and response.
func (g *ShardGroup) drivableLocked(hubBound Time) bool {
	floor := g.horizonFloorLocked()
	for i, sh := range g.shards {
		if leafState(sh.state.Load()) != leafParked || !sh.hasNext {
			continue
		}
		lim := floor.limit(i, hubBound)
		if sh.nextAt > lim {
			continue
		}
		if s, a, ok := g.ownCapLocked(sh, lim); ok && sh.nextAt == lim &&
			schedKeyAfter(sh.nextSched, &sh.nextAnc, s, &a) {
			continue
		}
		return true
	}
	return false
}

// driveLeaves advances parked shards whose earliest local event lies
// inside their conservative window, all in parallel, and absorbs their
// new state. Returns false when nothing was drivable. The per-shard
// limits are computed against a single horizon snapshot: horizons only
// rise while a drive is in flight, so the snapshot stays a valid lower
// bound even as the driven shards publish progress concurrently.
func (g *ShardGroup) driveLeaves(hubBound Time) bool {
	g.mu.Lock()
	// A request posted since the hub chose hubBound also bounds every
	// drive: its response may resume a caller on a driven shard at its
	// own instant, and the shard must not have run past that instant.
	if rq := g.inbox.peek(); rq != nil && rq.at < hubBound {
		hubBound = rq.at
	}
	var drives []*Shard
	var cmds []leafCmd
	floor := g.horizonFloorLocked()
	for i, sh := range g.shards {
		if leafState(sh.state.Load()) != leafParked || !sh.hasNext {
			continue
		}
		lim := floor.limit(i, hubBound)
		if sh.nextAt > lim {
			continue
		}
		cmd := leafCmd{kind: cmdRun, at: lim}
		if s, a, ok := g.ownCapLocked(sh, lim); ok {
			if sh.nextAt == lim && schedKeyAfter(sh.nextSched, &sh.nextAnc, s, &a) {
				// Everything driveable is keyed behind the shard's own
				// pending request: nothing to do until it is injected.
				continue
			}
			cmd.capped, cmd.capSched, cmd.capAnc = true, s, a
		}
		drives = append(drives, sh)
		cmds = append(cmds, cmd)
	}
	g.mu.Unlock()
	if len(drives) == 0 {
		return false
	}
	for i, sh := range drives {
		sh.cmds <- cmds[i]
	}
	for _, sh := range drives {
		st := <-sh.replies
		g.mu.Lock()
		for _, c := range st.calls {
			g.inbox.push(c)
			sh.outstanding++
		}
		g.absorbNextLocked(sh, &st)
		g.mu.Unlock()
	}
	return true
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
			g.hub.curSched = rq.sched
			g.hub.curAnc = rq.anc
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
// hub's current time and converses with the leaf while it drains that
// instant. A call issued during the drain — a follow-on by the resumed
// process or a call by another process the drain woke — is at that same
// instant, since edges carry no latency, and is returned for inline
// execution at the proxy's event position. Once the instant is drained
// the shard is either handed back to free running (no calls left in
// flight), left parked with its remaining local events hub-driven, or
// marked finished; in the first two cases the run window is tightened
// below the shard's new horizon.
func (g *ShardGroup) respond(sh *Shard, caller *Proc) *xcall {
	at := g.hub.now
	// Stamp the caller with this delivery's rank before it resumes: the
	// hub order of deliveries at an instant (a barrier's FIFO wake order,
	// a grant order) is the sequence-number lineage the resumed processes
	// carry through their next lockstep stretch, and their next requests
	// tie-break by it (xcallBefore).
	g.deliverSeq++
	caller.xrank = g.deliverSeq
	dl := leafCmd{
		kind: cmdDeliver, at: at, resume: caller,
		sched: g.hub.curSched, anc: g.hub.curAnc,
	}
	g.mu.Lock()
	dl.capSched, dl.capAnc, dl.capped = g.ownCapLocked(sh, at)
	g.mu.Unlock()
	sh.cmds <- dl
	for {
		st := <-sh.replies
		if len(st.calls) == 1 {
			c := st.calls[0]
			// Refresh the shard's published state from the snapshot
			// before acting on the call: the chained closure may park on
			// a hub primitive for a long stretch, and the drain's publish
			// hook has left the horizon at some already-executed event
			// time. Without this the hub can wedge on a stale horizon no
			// reply will ever overwrite (hasNext=false with a finite
			// horizon blocks EIT forever). The shard stays parked —
			// outstanding is unchanged below.
			g.mu.Lock()
			g.absorbNextLocked(sh, &st)
			g.mu.Unlock()
			if c.at != at {
				panic(fmt.Sprintf("sim: shard %d issued a call at %v while draining %v", sh.id, c.at, at))
			}
			// Execute it inline at the proxy's event position, exactly
			// where the single-kernel instant would have run its closure.
			// The chain then responds to that caller, which resumes it and
			// keeps draining the instant. One call completed and one
			// opened — outstanding unchanged.
			return c
		}
		// Instant drained. Absorb the shard's new state.
		g.mu.Lock()
		sh.outstanding--
		stillParked := sh.outstanding > 0
		g.absorbNextLocked(sh, &st)
		switch {
		case stillParked:
			sh.state.Store(int32(leafParked))
		case !st.hasNext:
			sh.state.Store(int32(leafFinished))
		default:
			sh.state.Store(int32(leafRunning))
		}
		g.mu.Unlock()
		if st.hasNext {
			// Whether parked (hub-driven) or freed, the shard may yet
			// inject work at next: the current run window must stop short
			// of it.
			if lim := st.next - 1; g.hub.limited && lim < g.hub.limit {
				g.hub.limit = lim
			}
		}
		if !stillParked && st.hasNext {
			sh.cmds <- leafCmd{kind: cmdFree}
		}
		return nil
	}
}

// waitHorizon blocks until every shard's horizon clears target, the
// inbox holds more than the seen requests the hub chose target from, or
// a parked shard becomes drivable — each of which changes what the hub
// should do next. Counting from the hub's peek rather than from entry
// matters: a request posted in between may be the very one every
// horizon is waiting on.
func (g *ShardGroup) waitHorizon(target Time, seen int) {
	g.mu.Lock()
	g.want.Store(int64(target))
	for g.eit() <= target && g.inbox.len() == seen && !g.drivableLocked(target) {
		g.cond.Wait()
	}
	g.want.Store(horizonInfinity)
	g.mu.Unlock()
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
		if g.drivableLocked(maxTime) {
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
			// primitives nobody will fire, with no hub events, no queued
			// requests and nothing drivable: the sharded image of a model
			// deadlock (or a wedged protocol). Capture diagnostics and
			// stop instead of hanging; callers inspect Stall and
			// DeadlockReport.
			g.stall = g.stallReportLocked()
			return true
		}
		g.cond.Wait()
	}
}

// stallReportLocked assembles the diagnostic for a wedged group.
func (g *ShardGroup) stallReportLocked() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "shard group stalled at hub time %v:", g.hub.now)
	for _, sh := range g.shards {
		fmt.Fprintf(&sb, "\n  shard %d: state=%d horizon=%d outstanding=%d",
			sh.id, sh.state.Load(), sh.horizon.Load(), sh.outstanding)
	}
	return sb.String()
}
