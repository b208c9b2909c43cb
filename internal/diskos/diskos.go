// Package diskos models the Active Disk runtime from the paper: each
// drive integrates an embedded processor (200 MHz Cyrix 6x86) and 32 MB
// of SDRAM, runs DiskOS ("support for scheduling disklets as well as for
// managing memory, I/O and stream communication"), and is attached to a
// dual Fibre Channel arbitrated loop shared with all other drives and a
// front-end host.
//
// Disklets are simulation processes bound to a disk's embedded CPU. They
// communicate through streams: bounded, credit-controlled chunk flows
// whose backpressure reflects the OS communication buffers (the paper
// doubles/quadruples those buffers in the 64/128 MB variants). The
// communication architecture is switchable between direct disk-to-disk
// transfers and the restricted mode where every byte is relayed through
// the front-end host's memory (the Figure 5 experiment).
package diskos

import (
	"fmt"
	"sync"

	"howsim/internal/bus"
	"howsim/internal/cpu"
	"howsim/internal/disk"
	"howsim/internal/fault"
	"howsim/internal/osmodel"
	"howsim/internal/probe"
	"howsim/internal/sim"
)

// Config parameterizes an Active Disk system.
type Config struct {
	Disks           int
	DiskSpec        *disk.Spec
	DiskMemBytes    int64   // per-disk SDRAM (32/64/128 MB in the paper)
	EmbeddedHz      float64 // embedded processor clock (200 MHz Cyrix)
	Loops           int     // Fibre Channel loops (2)
	LoopBytesPerSec float64 // per-loop bandwidth (100 MB/s; 200 for Fast I/O)
	DirectComm      bool    // disk-to-disk transfers allowed
	FrontEndHz      float64 // front-end host clock (450 MHz; 1 GHz variant)
	// CommBufBytes is the per-disk memory reserved for inter-device
	// communication buffers. Zero selects the default, which scales with
	// disk memory exactly as the paper scales the OS buffer count.
	CommBufBytes int64
	// SpecFor optionally overrides the drive specification per disk
	// (heterogeneous farms, straggler injection). Nil entries fall back
	// to DiskSpec.
	SpecFor func(i int) *disk.Spec
	// SwitchedLoops splits the farm across this many dual loops joined
	// by a non-blocking FibreSwitch — the paper's recommendation for
	// scaling beyond 64 disks ("a more aggressive interconnect (e.g.,
	// multiple Fibre Channel loops connected by a FibreSwitch)").
	// 0 or 1 selects the baseline single shared loop.
	SwitchedLoops int
}

// DefaultConfig returns the paper's baseline Active Disk configuration
// for n disks: Cheetah 9LP drives, 200 MHz embedded processors with
// 32 MB each, a dual 100 MB/s FC loop, direct disk-to-disk
// communication, and a 450 MHz front-end.
func DefaultConfig(n int) Config {
	return Config{
		Disks:           n,
		DiskSpec:        disk.Cheetah9LP(),
		DiskMemBytes:    32 << 20,
		EmbeddedHz:      200e6,
		Loops:           2,
		LoopBytesPerSec: 100e6,
		DirectComm:      true,
		FrontEndHz:      450e6,
	}
}

func (c Config) commBufBytes() int64 {
	if c.CommBufBytes > 0 {
		return c.CommBufBytes
	}
	// 4 MB of communication buffers at 32 MB, doubled per memory step:
	// "we doubled and quadrupled, respectively, the number of OS buffers
	// allocated for inter-device communication".
	buf := int64(4 << 20)
	for m := int64(32 << 20); m < c.DiskMemBytes && m < 1<<40; m *= 2 {
		buf *= 2
	}
	return buf
}

// chunkBytes is the stream transfer granularity.
const chunkBytes = 128 << 10

// Chunk is one stream transfer delivered to a receiving disklet.
type Chunk struct {
	Src     int // source disk ID, or FromFrontEnd
	Bytes   int64
	Payload any
}

// FromFrontEnd is the Chunk.Src value for data sent by the front-end,
// and the front-end's place as either end of a route.
const FromFrontEnd = -1

// inbox is a chunk mailbox with a free list of the *Chunk boxes that
// cross it: a sender fills a recycled box and the receiver copies the
// value out and returns the box, so a delivered chunk allocates
// nothing. Every inbox is built on the hub kernel, where all of its
// senders and receivers run, so the free list needs no other guard.
type inbox struct {
	mb   *sim.Mailbox
	free []*Chunk
}

// init returns the inbox rebuilt on k, keeping its mailbox's storage and
// its pooled boxes.
func (in *inbox) init(k *sim.Kernel, name string) inbox {
	return inbox{mb: in.mb.Init(k, name, 0), free: in.free}
}

// put delivers c in a recycled box. The mailbox is unbounded, so put
// fails only once the inbox is closed.
func (in *inbox) put(c Chunk) bool {
	var b *Chunk
	if n := len(in.free); n > 0 {
		b = in.free[n-1]
		in.free[n-1] = nil
		in.free = in.free[:n-1]
	} else {
		b = new(Chunk)
	}
	*b = c
	return in.mb.TryPut(b)
}

// get blocks until a chunk arrives, copies it out and recycles its box.
func (in *inbox) get(p *sim.Proc) (Chunk, bool) {
	v, ok := in.mb.Get(p)
	if !ok {
		return Chunk{}, false
	}
	b := v.(*Chunk)
	c := *b
	*b = Chunk{}
	in.free = append(in.free, b)
	return c, true
}

// ActiveDisk is one drive: media, embedded CPU, memory, and its stream
// endpoints.
type ActiveDisk struct {
	ID   int
	Disk *disk.Disk
	CPU  *cpu.CPU

	sys     *System
	commBuf *sim.Resource // receive-side communication buffer credits
	inbox   inbox
	pr      probe.Ref
}

// sampleBuf records the receive-buffer occupancy after a credit grant.
func (ad *ActiveDisk) sampleBuf() {
	if ad.pr.On() {
		ad.pr.Sample(probe.KindBufUse, ad.commBuf.InUse())
	}
}

// FrontEnd is the host that coordinates the Active Disk farm and relays
// communication in the restricted (non-direct) architecture.
type FrontEnd struct {
	CPU *cpu.CPU
	OS  osmodel.Costs
	// Adaptor is the FC host bus adaptor (dual loop, 200 MB/s).
	Adaptor *bus.Bus
	// PCI is the host I/O bus every relayed or delivered byte crosses.
	PCI   *bus.Bus
	inbox inbox

	relayedBytes  int64
	receivedBytes int64
}

// System is an Active Disk installation: the disk farm, its loop (or
// FibreSwitch-joined loops), and the front-end.
type System struct {
	K   *sim.Kernel
	Cfg Config
	// Loop is the first (or only) FC loop; in a FibreSwitch
	// configuration use the Loop* aggregate accessors instead.
	Loop  *bus.Bus
	Disks []*ActiveDisk
	FE    *FrontEnd
	// Spare is the hot-spare drive provisioned when the fault plan
	// declares one (nil otherwise); the background rebuild streams the
	// failed disk's partition onto it.
	Spare    *disk.Disk
	loops    []*bus.Bus
	perGroup int
	// scratch is each drive's disklet working memory (run buffers, hash
	// tables): its SDRAM minus the communication buffers.
	scratch int64

	models disk.Models // the drive models of Cfg's specs, kept by a rebuild
}

// NewSystem builds an Active Disk system on k.
func NewSystem(k *sim.Kernel, cfg Config) *System {
	return new(System).init(cfg, k, func(int) *sim.Kernel { return k })
}

// Rebuild builds the system again on k from its own configuration, as
// NewSystem would: every component is rebuilt in place, keeping only
// storage, so the system carries nothing over from its last run. k
// must be new or recycled (sim.Kernel.Recycle), with its probe attached.
func (s *System) Rebuild(k *sim.Kernel) {
	s.init(s.Cfg, k, func(int) *sim.Kernel { return k })
}

// NewSystemSharded builds the same system partitioned across a
// ShardGroup: the loops, the front-end, and every disk's communication
// endpoints (receive-buffer credits, inbox, diskos probe) live on the
// hub kernel, while disk i's private components (media, embedded CPU)
// live on shard i's kernel. g must have exactly cfg.Disks shards.
//
// On a sharded system only the leaf-local operations (ReadLocal,
// WriteLocal, Compute) may be called from disklet processes directly;
// anything touching the loops, the front-end, or a stream endpoint
// (Send, SendToFrontEnd, Recv, Release in particular) must run on a
// hub process — disklets reach it through Shard.Call, modeling the
// shared FC loop every inter-disk byte crosses. Components are
// constructed in the single-kernel order (loops, front-end, then disks
// ascending, with hub-side placeholders for leaf-registered probes) so
// that merging the leaf probe sinks into the hub's reproduces
// NewSystem's instance numbering.
func NewSystemSharded(g *sim.ShardGroup, cfg Config) *System {
	if g.Shards() != cfg.Disks {
		panic(fmt.Sprintf("diskos: %d shards for %d disks", g.Shards(), cfg.Disks))
	}
	return new(System).init(cfg, g.Hub(), func(i int) *sim.Kernel { return g.Shard(i).Kernel() })
}

// init builds s in place with the shared interconnect and front-end on
// hub and disk i's components on leaf(i) (the same kernel in the
// single-kernel layout), and returns it. Every component is rebuilt in
// place; s keeps only storage from an earlier build.
func (s *System) init(cfg Config, hub *sim.Kernel, leaf func(int) *sim.Kernel) *System {
	if cfg.Disks <= 0 {
		panic("diskos: need at least one disk")
	}
	groups := cfg.SwitchedLoops
	if groups < 1 {
		groups = 1
	}
	if groups > cfg.Disks {
		groups = cfg.Disks
	}
	commBuf := cfg.commBufBytes()
	scratch := cfg.DiskMemBytes - commBuf
	if scratch < 1<<20 {
		panic(fmt.Sprintf("diskos: %d bytes of disk memory leaves no scratch space", cfg.DiskMemBytes))
	}
	if s.models == nil {
		s.models = disk.Models{}
	}
	*s = System{
		K:        hub,
		Cfg:      cfg,
		perGroup: (cfg.Disks + groups - 1) / groups,
		scratch:  scratch,
		loops:    sim.Resized(s.loops, groups),
		Disks:    sim.Resized(s.Disks, cfg.Disks),
		FE:       s.FE,
		models:   s.models,
	}
	for g, l := range s.loops {
		s.loops[g] = l.Init(hub, fmt.Sprintf("fcal%d", g), bus.FCAL(cfg.Loops, cfg.LoopBytesPerSec))
	}
	s.Loop = s.loops[0]
	s.FE = s.FE.init(hub, cfg)
	for i, ad := range s.Disks {
		spec := cfg.DiskSpec
		if cfg.SpecFor != nil {
			if s := cfg.SpecFor(i); s != nil {
				spec = s
			}
		}
		s.Disks[i] = ad.init(s, i, leaf(i), s.models.Of(spec), commBuf)
	}
	return s
}

// init builds fe in place as the front-end of a system configured by
// cfg on k, and returns it; a nil fe is allocated first.
func (fe *FrontEnd) init(k *sim.Kernel, cfg Config) *FrontEnd {
	if fe == nil {
		fe = new(FrontEnd)
	}
	feOS := osmodel.FrontEndOS()
	if cfg.FrontEndHz != 450e6 && cfg.FrontEndHz > 0 {
		feOS = feOS.ScaledTo(cfg.FrontEndHz)
	}
	*fe = FrontEnd{
		CPU:     fe.CPU.Init(k, "fe.cpu", cfg.FrontEndHz),
		OS:      feOS,
		Adaptor: fe.Adaptor.Init(k, "fe.fc", bus.FCAL(cfg.Loops, cfg.LoopBytesPerSec)),
		PCI:     fe.PCI.Init(k, "fe.pci", bus.PCI()),
		inbox:   fe.inbox.init(k, "fe.inbox"),
	}
	return fe
}

// init builds ad in place as disk i of s, its media and embedded CPU on
// lk and its communication endpoints on s's hub, and returns it; a nil
// ad is allocated first.
func (ad *ActiveDisk) init(s *System, i int, lk *sim.Kernel, m *disk.Model, commBuf int64) *ActiveDisk {
	if ad == nil {
		ad = new(ActiveDisk)
	}
	hub := s.K
	name := fmt.Sprintf("ad%d", i)
	if lk != hub {
		// The communication endpoints below register on the hub sink,
		// but the media and embedded CPU register on the leaf's. Claim
		// their hub slots first (empty, capacity adopted at merge) so
		// the hub sink's instance order matches the single-kernel
		// build order and merged traces stay byte-identical.
		hub.Probe().Register("disk", name)
		hub.Probe().Register("cpu", name+".cpu")
	}
	*ad = ActiveDisk{
		ID:      i,
		Disk:    ad.Disk.Init(lk, name, m),
		CPU:     ad.CPU.Init(lk, name+".cpu", s.Cfg.EmbeddedHz),
		sys:     s,
		commBuf: ad.commBuf.Init(hub, name+".commbuf", commBuf),
		inbox:   ad.inbox.init(hub, name+".inbox"),
		pr:      hub.Probe().Register("diskos", name),
	}
	ad.pr.SetCapacity(commBuf)
	return ad
}

// InstallFaults applies a fault plan to the system: per-disk injectors
// (by disk ID), straggler slowdown windows on the matching embedded
// CPUs, a hot spare provisioned for the plan's failed disk, and outage
// windows matched by name to the FC loops ("fcal0", "fcal1", ...), the
// front-end adaptor ("fe.fc") and its PCI bus ("fe.pci"). Call before
// Run. A nil plan is a no-op.
func (s *System) InstallFaults(plan *fault.Plan) {
	if plan == nil {
		return
	}
	for _, ad := range s.Disks {
		if inj := plan.DiskInjector(ad.ID); inj != nil {
			ad.Disk.SetFaultInjector(inj)
		}
		ad.CPU.SetSlowdowns(plan.StragglersFor(ad.ID))
	}
	if plan.Spare && plan.Replica && plan.FailDisk >= 0 && plan.FailDisk < len(s.Disks) {
		s.Spare = s.Disks[plan.FailDisk].Disk.Model().New(s.K, "spare")
	}
	for _, l := range s.loops {
		l.SetOutages(plan.OutagesFor(l.Name()))
	}
	s.FE.Adaptor.SetOutages(plan.OutagesFor(s.FE.Adaptor.Name()))
	s.FE.PCI.SetOutages(plan.OutagesFor(s.FE.PCI.Name()))
}

// RebuildTransfer moves one rebuild chunk from the surviving replica
// holder src toward the spare standing in for the failed disk: the
// spare occupies the failed drive's loop slot, so the chunk crosses
// the source loop and, behind a FibreSwitch, the failed disk's loop —
// contending with every foreground transfer on the way.
func (s *System) RebuildTransfer(p *sim.Proc, src, failed int, n int64) {
	s.stream(p, rebuild, src, failed, n, nil)
}

// groupOf returns the loop group a disk belongs to.
func (s *System) groupOf(diskID int) int { return diskID / s.perGroup }

// loopOf returns the loop a disk is attached to.
func (s *System) loopOf(diskID int) *bus.Bus { return s.loops[s.groupOf(diskID)] }

// Loops returns the number of FC loops (1 in the baseline; more with a
// FibreSwitch).
func (s *System) Loops() int { return len(s.loops) }

// LoopBytesMoved returns payload bytes summed over all loops.
func (s *System) LoopBytesMoved() int64 {
	var n int64
	for _, l := range s.loops {
		n += l.BytesMoved()
	}
	return n
}

// LoopUtilization returns the mean utilization across loops.
func (s *System) LoopUtilization() float64 {
	u := 0.0
	for _, l := range s.loops {
		u += l.Utilization()
	}
	return u / float64(len(s.loops))
}

// ScratchBytes returns the per-disk disklet working memory.
func (s *System) ScratchBytes() int64 { return s.scratch }

// ChunkBytes returns the stream transfer granularity.
func (s *System) ChunkBytes() int64 { return chunkBytes }

// ReadLocal reads length bytes at offset from the drive's own media —
// the defining Active Disk operation: the data never crosses the loop.
// The error is nil on success, disk.ErrMediaError for an unrecoverable
// sector, or disk.ErrDiskFailed after a drive failure; fault-oblivious
// disklets may ignore it.
func (ad *ActiveDisk) ReadLocal(p *sim.Proc, offset, length int64) error {
	return ad.Disk.Read(p, offset, length)
}

// WriteLocal writes length bytes at offset to the drive's own media;
// the error contract matches ReadLocal.
func (ad *ActiveDisk) WriteLocal(p *sim.Proc, offset, length int64) error {
	return ad.Disk.Write(p, offset, length)
}

// Compute executes cycles on the embedded processor.
func (ad *ActiveDisk) Compute(p *sim.Proc, cycles int64) {
	ad.CPU.Compute(p, cycles)
}

// Send streams bytes to the peer disk dst: directly, or relayed through
// the front-end host in the restricted architecture (see route). The
// transfer is chunked; each chunk consumes receive-buffer credit at the
// destination until the receiving disklet consumes it.
func (ad *ActiveDisk) Send(p *sim.Proc, dst int, bytes int64, payload any) {
	ad.sys.stream(p, toDisk, ad.ID, dst, bytes, payload)
}

// SendToFrontEnd streams bytes to the front-end host (results, partial
// aggregates). Each chunk crosses the loop, the FE adaptor and its PCI
// bus and interrupts the host; the front-end's inbox gets the whole
// stream, with its payload, as one Chunk after the last.
func (ad *ActiveDisk) SendToFrontEnd(p *sim.Proc, bytes int64, payload any) {
	ad.sys.stream(p, toFrontEnd, ad.ID, FromFrontEnd, bytes, payload)
}

// Recv blocks until a stream chunk arrives for this disk and returns it.
// The chunk's buffer credit is released once the receiving disklet calls
// Release (or immediately if release is deferred to the runtime).
func (ad *ActiveDisk) Recv(p *sim.Proc) (Chunk, bool) { return ad.inbox.get(p) }

// Release returns receive-buffer credit after a chunk's payload has been
// consumed by the disklet.
func (ad *ActiveDisk) Release(bytes int64) {
	ad.commBuf.Release(bytes)
}

// CloseInbox signals receivers that no more chunks will arrive.
func (ad *ActiveDisk) CloseInbox() { ad.inbox.mb.Close() }

// FrontEndSend streams bytes from the front-end host to a disk
// (candidate broadcasts, control tables): the host's message send, PCI
// out of host memory, the FE adaptor, the loop, and the destination's
// receive buffers.
func (s *System) FrontEndSend(p *sim.Proc, dst int, bytes int64, payload any) {
	s.stream(p, toDisk, FromFrontEnd, dst, bytes, payload)
}

// hop is one leg of a chunk's route: a crossing of bus, or, when bus is
// nil, a charge of cost on the front-end CPU, plus the host memory copy
// of the chunk when copies is set.
type hop struct {
	bus    *bus.Bus
	cost   sim.Time
	copies bool
}

// route appends to hops, and returns, the hops a chunk crosses from
// src to dst, either of which may be FromFrontEnd: the one place a
// chunk's path is spelled out. Disk to disk, it crosses the source
// loop, then the destination loop when a FibreSwitch puts the disks on
// different loops; relayed, it goes to the host and back, whose CPU
// takes an interrupt and copies it. The front-end's adaptor hangs off
// the switch behind a FibreSwitch, off the loop otherwise.
func (s *System) route(hops []hop, src, dst int, relay bool) []hop {
	fe := s.FE
	switch {
	case src == FromFrontEnd:
		return append(hops, hop{cost: fe.OS.MessageSend}, hop{bus: fe.PCI}, hop{bus: fe.Adaptor}, hop{bus: s.loopOf(dst)})
	case dst == FromFrontEnd:
		return append(hops, hop{bus: s.loopOf(src)}, hop{bus: fe.Adaptor}, hop{bus: fe.PCI}, hop{cost: fe.OS.Interrupt})
	case relay:
		return append(hops, hop{bus: s.loopOf(src)}, hop{bus: fe.Adaptor}, hop{bus: fe.PCI},
			hop{cost: fe.OS.Interrupt, copies: true}, hop{bus: fe.PCI}, hop{bus: fe.Adaptor}, hop{bus: s.loopOf(dst)})
	}
	hops = append(hops, hop{bus: s.loopOf(src)})
	if dl := s.loopOf(dst); dl != hops[0].bus {
		hops = append(hops, hop{bus: dl})
	}
	return hops
}

// streamKind is what a stream's pump does around each chunk's hops.
type streamKind uint8

const (
	toDisk     streamKind = iota // credit before the hops, a delivery per chunk, the payload on the last
	toFrontEnd                   // received bytes per chunk, one delivery of the whole stream after the last
	rebuild                      // one chunk as large as the transfer, onto the spare; no delivery
)

// stream moves bytes from src to dst (either may be FromFrontEnd) along
// route's hops, chunk by chunk. The chunk loop runs as a chain
// (sim.Proc.Chain) on p: a pooled state machine walks every chunk's
// steps as kernel callbacks on p's Task, and the last chunk's arrival
// ends the chain, so p sleeps once and continues at exactly the event
// position a blocking loop would have.
func (s *System) stream(p *sim.Proc, kind streamKind, src, dst int, bytes int64, payload any) {
	if bytes <= 0 && kind != toFrontEnd {
		return
	}
	var op *streamOp
	pumps.mu.Lock()
	if n := len(pumps.free); n > 0 {
		op, pumps.free = pumps.free[n-1], pumps.free[:n-1]
	}
	pumps.mu.Unlock()
	if op == nil {
		op = new(streamOp)
		op.stepFn, op.acqFn, op.hopFn = op.step, op.acquired, op.advance
	}
	op.relayed = kind == toDisk && src != FromFrontEnd && !s.Cfg.DirectComm
	op.hops = s.route(op.hops[:0], src, dst, op.relayed)
	op.chunk = chunkBytes
	if kind == rebuild {
		op.chunk = bytes
	}
	op.s, op.t, op.kind, op.src, op.dst, op.bytes, op.remaining, op.payload = s, &p.Task, kind, src, dst, bytes, bytes, payload
	p.Chain(op.stepFn)
	clear(op.hops)
	op.s, op.t, op.payload = nil, nil, nil
	pumps.mu.Lock()
	pumps.free = append(pumps.free, op)
	pumps.mu.Unlock()
}

// pumps holds the idle stream pumps of every system. An idle pump keeps
// nothing of its last stream, so a sharded system, built anew for each
// run, takes the pumps of earlier runs instead of making its own.
var pumps pumpPool

type pumpPool struct {
	mu   sync.Mutex
	free []*streamOp // guarded by mu
}

// streamOp is one stream pump: a state machine that carves a chunk,
// acquires receive-buffer credit when a disk receives it
// (backpressure), walks the chunk's hops, lands it at the destination
// and loops, ending the caller's chain after the last chunk. Ops are
// pooled (pumps) and their continuations bound once, so a stream
// performs no allocation per chunk.
type streamOp struct {
	s         *System
	t         *sim.Task // the caller's, while it sleeps in the chain
	kind      streamKind
	relayed   bool
	src, dst  int
	bytes     int64 // the whole stream
	remaining int64
	chunk     int64 // chunk size
	n         int64 // current chunk size
	payload   any
	hops      []hop // the route
	stage     int   // hops crossed by the current chunk
	stepFn    func()
	acqFn     func()
	hopFn     func()
}

// step starts the next chunk, or finishes the stream: a stream to the
// front-end lands there whole, and the caller's chain ends.
//
// EndChain resumes the caller inside the final hop's completion event —
// the position a caller walking the hops itself would resume at —
// which is the event order the golden digests pin. The caller may
// return this op to the pool (and it, or another run, may start a new
// stream on it) before EndChain returns; nothing after it may touch
// op's fields.
func (op *streamOp) step() {
	if op.remaining <= 0 {
		if op.kind == toFrontEnd {
			if !op.s.FE.inbox.put(Chunk{Src: op.src, Bytes: op.bytes, Payload: op.payload}) {
				panic("diskos: front-end inbox rejected chunk")
			}
		}
		op.t.EndChain()
		return
	}
	op.n = min(op.remaining, op.chunk)
	op.remaining -= op.n
	op.stage = 0
	if op.kind == toDisk {
		op.s.Disks[op.dst].commBuf.AcquireFunc(op.t, op.n, op.acqFn)
		return
	}
	op.advance()
}

// acquired holds the chunk's buffer credit; start its first hop.
func (op *streamOp) acquired() {
	op.s.Disks[op.dst].sampleBuf()
	op.advance()
}

// advance starts the chunk's next hop, or lands the chunk after the
// last one.
func (op *streamOp) advance() {
	if op.stage == len(op.hops) {
		op.arrived()
		return
	}
	h := &op.hops[op.stage]
	op.stage++
	if h.bus != nil {
		h.bus.TransferFunc(op.t, op.n, op.hopFn)
		return
	}
	fe := op.s.FE
	d := h.cost
	if h.copies {
		d += sim.TransferTime(op.n, fe.OS.MemoryCopyBytesPerSec)
	}
	fe.CPU.BusyFunc(op.t, d, op.hopFn)
}

// arrived lands the chunk at its destination and loops to step.
func (op *streamOp) arrived() {
	s := op.s
	switch op.kind {
	case toDisk:
		if op.relayed {
			s.FE.relayedBytes += op.n
		}
		var pl any
		if op.remaining == 0 {
			pl = op.payload
		}
		d := s.Disks[op.dst]
		if !d.inbox.put(Chunk{Src: op.src, Bytes: op.n, Payload: pl}) {
			panic("diskos: disk inbox rejected chunk")
		}
		d.pr.Count(probe.KindChunk, 1)
	case toFrontEnd:
		s.FE.receivedBytes += op.n
	}
	op.step()
}

// RelayedBytes reports the volume relayed through the front-end (zero in
// the direct architecture).
func (fe *FrontEnd) RelayedBytes() int64 { return fe.relayedBytes }

// ReceivedBytes reports the result volume delivered to the front-end.
func (fe *FrontEnd) ReceivedBytes() int64 { return fe.receivedBytes }

// Recv blocks until a chunk sent to the front-end arrives and returns
// it; ok is false once the inbox is closed and drained.
func (fe *FrontEnd) Recv(p *sim.Proc) (Chunk, bool) { return fe.inbox.get(p) }

// CloseInbox signals front-end receivers that no more chunks will
// arrive.
func (fe *FrontEnd) CloseInbox() { fe.inbox.mb.Close() }
