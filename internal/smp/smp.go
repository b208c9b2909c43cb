// Package smp models the scalable shared-memory server the paper
// compares against: an SGI-Origin-2000-class machine with two-processor
// boards (250 MHz), 128 MB per board, a 1 us / 780 MB/s board
// interconnect, a 521 MB/s block-transfer engine, a two-node XIO I/O
// subsystem with 1.4 GB/s total bandwidth, and a single dual-loop Fibre
// Channel interconnect (200 MB/s) shared by every disk in the farm —
// the component the paper identifies as the bottleneck.
//
// The package also provides the software substrate the paper assumes:
// one-way block transfers (shmemput/shmemget), a striping library
// (64 KB chunk per disk, four 256 KB asynchronous requests per
// processor), and shared self-scheduling block queues that keep the
// overall request sequence close to the on-disk layout.
package smp

import (
	"cmp"
	"fmt"
	"slices"

	"howsim/internal/bus"
	"howsim/internal/cpu"
	"howsim/internal/disk"
	"howsim/internal/fault"
	"howsim/internal/osmodel"
	"howsim/internal/sim"
)

// Config parameterizes an SMP configuration.
type Config struct {
	Processors int
	Disks      int
	DiskSpec   *disk.Spec
	CPUHz      float64
	// BoardMemBytes is memory per two-processor board (128 MB); total
	// memory scales with processor count as in the paper.
	BoardMemBytes   int64
	Loops           int     // FC loops to the disk farm (2)
	LoopBytesPerSec float64 // per-loop rate (100 MB/s; 200 for the variant)
	StripeChunk     int64   // bytes per disk per stripe (64 KB)
	RequestBytes    int64   // application I/O request size (256 KB)
	RequestDepth    int     // async requests outstanding per processor (4)
	// SpecFor optionally overrides the drive specification per disk.
	SpecFor func(i int) *disk.Spec
}

// DefaultConfig returns the paper's SMP configuration for n
// processor/disk pairs.
func DefaultConfig(n int) Config {
	return Config{
		Processors:      n,
		Disks:           n,
		DiskSpec:        disk.Cheetah9LP(),
		CPUHz:           250e6,
		BoardMemBytes:   128 << 20,
		Loops:           2,
		LoopBytesPerSec: 100e6,
		StripeChunk:     64 << 10,
		RequestBytes:    256 << 10,
		RequestDepth:    4,
	}
}

// Machine is a built SMP.
type Machine struct {
	K    *sim.Kernel
	Cfg  Config
	CPUs []*cpu.CPU
	// Interconnect carries remote memory traffic between boards.
	Interconnect *bus.Bus
	// XIO carries all disk data between the FC adaptors and memory.
	XIO *bus.Bus
	// FC is the single dual-loop interconnect shared by all disks.
	FC    *bus.Bus
	Disks []*disk.Disk
	OS    osmodel.Costs

	blockXferBytes int64

	replica      bool  // each disk's data has a copy on the next disk
	replicaBytes int64 // bytes re-read from replicas after failures

	// stripeFree holds the chunk requests of finished striped requests,
	// ordered by capacity, and opFree their state machines for reuse, so
	// steady-state striped I/O allocates nothing.
	stripeFree [][]disk.Request
	opFree     []*stripeOp

	models disk.Models // the drive models of Cfg's specs, kept by a rebuild
}

// chunkRequests returns n chunk requests, reusing the smallest freed
// slice that is large enough (a binary search of the capacity-ordered
// free list), so requests of mixed sizes never discard a slice and keep
// the large ones for the requests that need them. The slice is sized
// before any chunk is submitted and never appended to: the disks hold
// pointers into it until every wait on it is over.
func (m *Machine) chunkRequests(n int) []disk.Request {
	i, _ := slices.BinarySearchFunc(m.stripeFree, n, byCap)
	if i == len(m.stripeFree) {
		return make([]disk.Request, n)
	}
	reqs := m.stripeFree[i]
	m.stripeFree = slices.Delete(m.stripeFree, i, i+1)
	return reqs[:n]
}

// freeChunkRequests returns a finished request's chunk requests to the
// free list, keeping it ordered by capacity.
func (m *Machine) freeChunkRequests(reqs []disk.Request) {
	i, _ := slices.BinarySearchFunc(m.stripeFree, cap(reqs), byCap)
	m.stripeFree = slices.Insert(m.stripeFree, i, reqs)
}

// byCap orders chunk-request slices by capacity for the free list's
// binary searches.
func byCap(reqs []disk.Request, n int) int { return cmp.Compare(cap(reqs), n) }

// InstallFaults applies a fault plan to the machine: per-disk injectors
// (by disk index), outage windows matched to the interconnects by name
// ("smp.fc", "smp.xio", "smp.ic"), and the replica declaration used by
// striped reads to recover from a failed member. Call before Run. A nil
// plan is a no-op.
func (m *Machine) InstallFaults(plan *fault.Plan) {
	if plan == nil {
		return
	}
	for i, d := range m.Disks {
		if inj := plan.DiskInjector(i); inj != nil {
			d.SetFaultInjector(inj)
		}
	}
	// Straggler windows map by index onto the shared processors (the
	// SMP has no per-drive CPU to slow down).
	for i, c := range m.CPUs {
		c.SetSlowdowns(plan.StragglersFor(i))
	}
	m.FC.SetOutages(plan.OutagesFor(m.FC.Name()))
	m.XIO.SetOutages(plan.OutagesFor(m.XIO.Name()))
	m.Interconnect.SetOutages(plan.OutagesFor(m.Interconnect.Name()))
	m.replica = plan.Replica
}

// ReplicaBytes reports the bytes striped reads recovered from replica
// members after request failures.
func (m *Machine) ReplicaBytes() int64 { return m.replicaBytes }

// New builds an SMP machine on k.
func New(k *sim.Kernel, cfg Config) *Machine { return new(Machine).init(k, cfg) }

// Rebuild builds the machine again on k from its own configuration, as
// New would: every component is rebuilt in place, keeping only storage,
// so the machine carries nothing over from its last run. k must be new
// or recycled (sim.Kernel.Recycle), with its probe attached.
func (m *Machine) Rebuild(k *sim.Kernel) { m.init(k, m.Cfg) }

// init builds m in place on k and returns it. Every component is
// rebuilt in place; m keeps only storage from an earlier build: its
// pooled chunk requests and striped-request state machines, and the
// drive models.
func (m *Machine) init(k *sim.Kernel, cfg Config) *Machine {
	if m.models == nil {
		m.models = disk.Models{}
	}
	boards := (cfg.Processors + 1) / 2
	*m = Machine{
		K:            k,
		Cfg:          cfg,
		Interconnect: m.Interconnect.Init(k, "smp.ic", bus.SMPInterconnect(boards)),
		XIO:          m.XIO.Init(k, "smp.xio", bus.XIO()),
		FC:           m.FC.Init(k, "smp.fc", bus.FCAL(cfg.Loops, cfg.LoopBytesPerSec)),
		OS:           osmodel.FullFunctionOS().ScaledTo(cfg.CPUHz),
		CPUs:         sim.Resized(m.CPUs, cfg.Processors),
		Disks:        sim.Resized(m.Disks, cfg.Disks),
		stripeFree:   m.stripeFree,
		opFree:       m.opFree,
		models:       m.models,
	}
	for i, c := range m.CPUs {
		m.CPUs[i] = c.Init(k, fmt.Sprintf("smp.cpu%d", i), cfg.CPUHz)
	}
	for i, d := range m.Disks {
		spec := cfg.DiskSpec
		if cfg.SpecFor != nil {
			if s := cfg.SpecFor(i); s != nil {
				spec = s
			}
		}
		m.Disks[i] = d.Init(k, fmt.Sprintf("smp.d%d", i), m.models.Of(spec))
	}
	return m
}

// TotalMemoryBytes returns the machine's aggregate memory (128 MB per
// two-processor board: 4 GB at 64 processors, 8 GB at 128).
func (m *Machine) TotalMemoryBytes() int64 {
	boards := (m.Cfg.Processors + 1) / 2
	return int64(boards) * m.Cfg.BoardMemBytes
}

// blockXferRate is the block-transfer engine's sustained rate.
const blockXferRate = 521e6

// BlockTransfer moves bytes between boards with the block-transfer
// engine: it occupies one interconnect channel for bytes at 521 MB/s
// sustained (the engine, not the 780 MB/s link, is the limit).
func (m *Machine) BlockTransfer(p *sim.Proc, bytes int64) {
	extra := sim.TransferTime(bytes, blockXferRate) - sim.TransferTime(bytes, 780e6)
	m.Interconnect.Transfer(p, bytes)
	if extra > 0 {
		p.Delay(extra)
	}
	m.blockXferBytes += bytes
}

// BlockTransferred reports the total bytes moved by the engine.
func (m *Machine) BlockTransferred() int64 { return m.blockXferBytes }

// Stripe is a file striped over a group of disks with a fixed chunk per
// disk, accessed through the raw-disk striping library.
type Stripe struct {
	m     *Machine
	disks []int // indices into m.Disks
	chunk int64
	// baseOffset places this stripe's data on each member disk, letting
	// several stripes (input, runs, output) coexist on one farm.
	baseOffset int64
}

// NewStripe creates a striped layout over the given disk group starting
// at baseOffset bytes into each member disk.
func (m *Machine) NewStripe(diskIdx []int, baseOffset int64) *Stripe {
	if len(diskIdx) == 0 {
		panic("smp: stripe needs at least one disk")
	}
	return &Stripe{m: m, disks: append([]int(nil), diskIdx...), chunk: m.Cfg.StripeChunk, baseOffset: baseOffset}
}

// member returns the index into the stripe's disks of the member that
// holds the chunk at logical offset.
func (s *Stripe) member(logical int64) int {
	return int(logical / s.chunk % int64(len(s.disks)))
}

// rw performs one striped request of length bytes at logical offset,
// fanning 64 KB chunks to the member disks and charging the shared I/O
// path, the issuing processor's OS costs, and the device-driver queue.
// A chunk that fails (media error, failed member) is re-issued to the
// next stripe member when the machine has replicas declared — the
// replica layout mirrors the primary at identical offsets on the peer —
// and counts toward the returned lost-byte total otherwise.
//
// The steps run as a chain (sim.Proc.Chain), so p parks once per call:
// the read/write call on c, then per chunk a driver-queue charge and
// its submission, the completions in chunk order (with replica
// re-reads), the payload over the shared FC loop and then XIO into
// memory, and the completion interrupt, whose end is p's own wake. The
// result is that of p running the steps with the blocking primitives.
func (s *Stripe) rw(p *sim.Proc, c *cpu.CPU, offset, length int64, write bool) (lost int64) {
	m := s.m
	var op *stripeOp
	if n := len(m.opFree); n > 0 {
		op = m.opFree[n-1]
		m.opFree[n-1] = nil
		m.opFree = m.opFree[:n-1]
	} else {
		op = &stripeOp{}
		op.stepFn = op.step
	}
	op.s, op.c, op.t = s, c, &p.Task
	op.offset, op.length, op.write, op.lost = offset, length, write, 0
	p.Chain(op.start)
	lost = op.lost
	op.s, op.c, op.t = nil, nil, nil
	m.opFree = append(m.opFree, op)
	return lost
}

// stripeOp is one striped request in flight: Stripe.rw's steps as
// kernel callbacks on the issuing process's Task. Ops are pooled per
// Machine and their step continuations bound once, so a striped
// request allocates nothing in steady state.
type stripeOp struct {
	s              *Stripe
	c              *cpu.CPU
	t              *sim.Task
	offset, length int64
	write          bool
	reqs           []disk.Request // the chunk requests, from Machine.chunkRequests
	i              int            // next chunk to queue, then the chunk waited for
	lost           int64

	// next is the step stepFn runs when the pending wait or hold ends;
	// one bound continuation serves every step.
	next   stripeStep
	stepFn func()
}

// stripeStep names the step a stripeOp continues with.
type stripeStep uint8

const (
	stepQueue   stripeStep = iota // the read/write call is charged: queue the chunks
	stepSubmit                    // chunk i's driver-queue charge is over: submit it
	stepWaited                    // chunk i has completed
	stepReplica                   // chunk i's replica re-read has completed
	stepFC                        // the payload crossed the FC loop
	stepXIO                       // the payload crossed XIO
)

// then returns the continuation that runs step s.
func (op *stripeOp) then(s stripeStep) func() {
	op.next = s
	return op.stepFn
}

func (op *stripeOp) step() {
	switch op.next {
	case stepQueue:
		s := op.s
		op.reqs, op.i = s.m.chunkRequests(int((op.length+s.chunk-1)/s.chunk)), 0
		op.queue()
	case stepSubmit:
		op.submit()
	case stepWaited:
		op.waited()
	case stepReplica:
		op.replicaDone()
	case stepFC:
		op.s.m.XIO.TransferFunc(op.t, op.length, op.then(stepXIO))
	case stepXIO:
		// The completion interrupt: the chain's last hold.
		op.c.BusyFunc(op.t, op.s.m.OS.Interrupt, nil)
	}
}

// start charges the read/write system call.
func (op *stripeOp) start() { op.c.BusyFunc(op.t, op.s.m.OS.ReadWriteCall, op.then(stepQueue)) }

// queue charges the driver queue for the next chunk, or starts waiting
// once every chunk is submitted.
func (op *stripeOp) queue() {
	if op.i < len(op.reqs) {
		op.c.BusyFunc(op.t, op.s.m.OS.DriverQueue, op.then(stepSubmit))
		return
	}
	op.i = 0
	op.waitNext()
}

// submit hands chunk i to its member disk.
func (op *stripeOp) submit() {
	s := op.s
	i := int64(op.i)
	logical := op.offset + i*s.chunk
	stripeRow := logical / (s.chunk * int64(len(s.disks)))
	diskOff := s.baseOffset + stripeRow*s.chunk
	n := s.chunk
	if rem := op.length - i*s.chunk; rem < n {
		n = rem
		// Keep requests sector-aligned.
		if n%disk.SectorSize != 0 {
			n += disk.SectorSize - n%disk.SectorSize
		}
	}
	r := &op.reqs[op.i]
	r.Write, r.Offset, r.Length = op.write, diskOff, n
	s.m.Disks[s.disks[s.member(logical)]].Submit(r)
	op.i++
	op.queue()
}

// waitNext checks the completed chunks in order from chunk i, parking
// the Task on the first one still in flight, and moves the payload on
// once all are in.
func (op *stripeOp) waitNext() {
	for ; op.i < len(op.reqs); op.i++ {
		r := &op.reqs[op.i]
		if !r.Done() {
			r.WaitFunc(op.t, op.then(stepWaited))
			return
		}
		if op.failed(r) {
			return
		}
	}
	op.transfer()
}

// waited resumes the scan once chunk i has completed.
func (op *stripeOp) waited() {
	if op.failed(&op.reqs[op.i]) {
		return
	}
	op.i++
	op.waitNext()
}

// failed books a completed chunk's error. With replicas declared it
// re-issues the chunk to the next stripe member and reports true while
// that re-read is in flight (replicaDone resumes the scan); otherwise
// the chunk's bytes are lost.
func (op *stripeOp) failed(r *disk.Request) bool {
	if r.Err() == nil {
		return false
	}
	s := op.s
	if s.m.replica && len(s.disks) > 1 {
		rep := s.m.Disks[s.disks[(s.member(op.offset+int64(op.i)*s.chunk)+1)%len(s.disks)]]
		rep.Submit(r)
		if !r.Done() {
			r.WaitFunc(op.t, op.then(stepReplica))
			return true
		}
		op.replicaBooked(r)
		return false
	}
	op.lost += r.Length
	return false
}

// replicaDone resumes the scan once chunk i's replica re-read is in.
func (op *stripeOp) replicaDone() {
	op.replicaBooked(&op.reqs[op.i])
	op.i++
	op.waitNext()
}

// replicaBooked books a replica re-read: recovered bytes, or lost ones.
func (op *stripeOp) replicaBooked(r *disk.Request) {
	if r.Err() == nil {
		op.s.m.replicaBytes += r.Length
	} else {
		op.lost += r.Length
	}
}

// transfer releases the chunk requests and moves the payload once
// across the shared FC loop, then XIO into memory.
func (op *stripeOp) transfer() {
	m := op.s.m
	m.freeChunkRequests(op.reqs)
	op.reqs = nil
	m.FC.TransferFunc(op.t, op.length, op.then(stepFC))
}

// Read performs a striped read of length bytes at offset on behalf of
// processor c. It returns the bytes that could not be read from either
// the primary member or (when declared) its replica — zero in a healthy
// farm.
func (s *Stripe) Read(p *sim.Proc, c *cpu.CPU, offset, length int64) int64 {
	return s.rw(p, c, offset, length, false)
}

// Write performs a striped write; the lost-byte contract matches Read.
func (s *Stripe) Write(p *sim.Proc, c *cpu.CPU, offset, length int64) int64 {
	return s.rw(p, c, offset, length, true)
}

// BlockQueue is the shared self-scheduling work queue the paper uses
// instead of a-priori partitioning: fixed-size blocks in on-disk layout
// order; an idle processor locks the queue and grabs the next block.
type BlockQueue struct {
	mu        *sim.Mutex
	next      int64
	limit     int64
	blockSize int64
	lockCost  int64 // cycles to acquire/release the spin lock
}

// NewBlockQueue creates a queue over total bytes in blockSize blocks.
func (m *Machine) NewBlockQueue(name string, total, blockSize int64) *BlockQueue {
	return &BlockQueue{
		mu:        sim.NewMutex(m.K, name),
		limit:     total,
		blockSize: blockSize,
		lockCost:  120,
	}
}

// Next returns the next block's (offset, length) in layout order, or
// ok=false when the queue is drained. The caller's processor pays the
// spin-lock cost.
func (q *BlockQueue) Next(p *sim.Proc, c *cpu.CPU) (offset, length int64, ok bool) {
	q.mu.Lock(p)
	c.Compute(p, q.lockCost)
	offset = q.next
	if offset >= q.limit {
		q.mu.Unlock()
		return 0, 0, false
	}
	length = q.blockSize
	if offset+length > q.limit {
		length = q.limit - offset
	}
	q.next += length
	q.mu.Unlock()
	return offset, length, true
}
