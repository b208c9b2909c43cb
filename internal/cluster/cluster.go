// Package cluster models the commodity-PC cluster the paper compares
// against, patterned on the Avalon cluster: each node is a 300 MHz
// Pentium II with 128 MB (104 MB usable under a full-function OS), a
// 133 MB/s PCI bus, a 100BaseT NIC and one locally attached Seagate
// ST39102; nodes connect through 24-port Fast Ethernet switches with two
// Gigabit Ethernet uplinks into a Gigabit root switch, so bisection
// bandwidth scales with cluster size while any single node is capped at
// 100 Mb/s. The front-end host is one more node on the same network.
//
// Since each host can only address its own disk, datasets are
// partitioned across nodes; repartitioning happens through the MPI-like
// message layer with up to 16 posted asynchronous receives, and I/O uses
// large (256 KB) requests with deep (4) queues, as in the paper's
// cluster optimizations.
package cluster

import (
	"fmt"

	"howsim/internal/bus"
	"howsim/internal/cpu"
	"howsim/internal/disk"
	"howsim/internal/fault"
	"howsim/internal/mpi"
	"howsim/internal/netsim"
	"howsim/internal/osmodel"
	"howsim/internal/sim"
)

// Config parameterizes a cluster.
type Config struct {
	Nodes    int // worker nodes (one disk each); the front-end is extra
	DiskSpec *disk.Spec
	CPUHz    float64
	Net      netsim.FatTreeConfig
	// RequestBytes is the application I/O request size (256 KB).
	RequestBytes int64
	// RequestDepth is the number of outstanding async I/O requests (4).
	RequestDepth int
	// PostedRecvs is the number of posted asynchronous receives (16).
	PostedRecvs int
	// SpecFor optionally overrides the drive specification per node.
	SpecFor func(i int) *disk.Spec
}

// DefaultConfig returns the paper's cluster configuration for n worker
// nodes.
func DefaultConfig(n int) Config {
	return Config{
		Nodes:        n,
		DiskSpec:     disk.Cheetah9LP(),
		CPUHz:        300e6,
		Net:          netsim.DefaultFatTreeConfig(),
		RequestBytes: 256 << 10,
		RequestDepth: 4,
		PostedRecvs:  16,
	}
}

// Node is one cluster host.
type Node struct {
	ID   int
	CPU  *cpu.CPU
	Disk *disk.Disk
	SCSI *bus.Bus
	PCI  *bus.Bus
	OS   osmodel.Costs
	m    *Machine
}

// Machine is a built cluster: worker nodes, the front-end node, the
// switched network and the message-passing world.
type Machine struct {
	K      *sim.Kernel
	Cfg    Config
	Net    *netsim.Network
	Tree   *netsim.FatTree
	World  *mpi.World
	Nodes  []*Node // workers; the front-end is FERank
	FE     *Node
	FERank int

	opFree []*nodeOp // recycled node-local request state machines

	// Storage a rebuild keeps: every node's CPU, the front-end's last,
	// for the message-passing world, and the drive models of Cfg's specs.
	cpus   []*cpu.CPU
	models disk.Models
}

// New builds a cluster on k. The network has Cfg.Nodes+1 endpoints; the
// front-end is the last rank.
func New(k *sim.Kernel, cfg Config) *Machine { return new(Machine).init(k, cfg) }

// Rebuild builds the cluster again on k from its own configuration, as
// New would: every component is rebuilt in place, keeping only storage,
// so the machine carries nothing over from its last run. k must be new
// or recycled (sim.Kernel.Recycle), with its probe attached.
func (m *Machine) Rebuild(k *sim.Kernel) { m.init(k, m.Cfg) }

// init builds m in place on k and returns it. Every component is
// rebuilt in place; m keeps only storage from an earlier build.
func (m *Machine) init(k *sim.Kernel, cfg Config) *Machine {
	if cfg.Nodes <= 0 {
		panic("cluster: need at least one node")
	}
	if m.models == nil {
		m.models = disk.Models{}
	}
	*m = Machine{K: k, Cfg: cfg, FERank: cfg.Nodes,
		Net: m.Net.Init(k, 0), Tree: m.Tree, World: m.World,
		Nodes: sim.Resized(m.Nodes, cfg.Nodes), FE: m.FE, opFree: m.opFree,
		cpus: sim.Resized(m.cpus, cfg.Nodes+1), models: m.models}
	m.Tree = m.Tree.Init(m.Net, cfg.Nodes+1, cfg.Net)
	m.Net.SetTopology(m.Tree)

	osCosts := osmodel.FullFunctionOS().ScaledTo(cfg.CPUHz)
	for i, n := range m.Nodes {
		spec := cfg.DiskSpec
		if cfg.SpecFor != nil {
			if sp := cfg.SpecFor(i); sp != nil {
				spec = sp
			}
		}
		m.Nodes[i] = n.init(m, i, fmt.Sprintf("node%d", i), cfg.CPUHz, osCosts, m.models.Of(spec))
	}
	m.FE = m.FE.init(m, cfg.Nodes, "fe", 450e6, osmodel.FrontEndOS(), nil)
	m.World = m.World.Init(m.Net, m.cpus, osCosts)
	return m
}

// init builds n in place as node i of m, named name, with a disk that
// follows dm (none for a nil dm), and returns it; a nil n is allocated
// first.
func (n *Node) init(m *Machine, i int, name string, hz float64, costs osmodel.Costs, dm *disk.Model) *Node {
	if n == nil {
		n = new(Node)
	}
	k, d := m.K, n.Disk
	*n = Node{
		ID:   i,
		CPU:  n.CPU.Init(k, name+".cpu", hz),
		SCSI: n.SCSI.Init(k, name+".scsi", bus.Ultra2SCSI()),
		PCI:  n.PCI.Init(k, name+".pci", bus.PCI()),
		OS:   costs,
		m:    m,
	}
	if dm != nil {
		n.Disk = d.Init(k, name+".disk", dm)
	}
	m.cpus[i] = n.CPU
	return n
}

// InstallFaults applies a fault plan to the cluster: per-node disk
// injectors (disk index = node rank), outage windows matched by name to
// the network links ("node3.up", "leaf0.up", ...) and each node's local
// buses ("node3.scsi", "node3.pci"). Call before Run. Nil plan is a
// no-op.
func (m *Machine) InstallFaults(plan *fault.Plan) {
	if plan == nil {
		return
	}
	for i, n := range m.Nodes {
		n.installFaults(plan, i)
	}
	m.Tree.EachLink(func(l *netsim.Link) {
		l.SetOutages(plan.OutagesFor(l.Name()))
	})
}

// installFaults applies plan's faults for disk index i to the node:
// the disk injector, straggler windows and local bus outages.
func (n *Node) installFaults(plan *fault.Plan, i int) {
	if inj := plan.DiskInjector(i); inj != nil {
		n.Disk.SetFaultInjector(inj)
	}
	// Straggler windows land on the node's host CPU: the cluster's
	// drives are dumb, so a slow drive manifests as a slow node.
	n.CPU.SetSlowdowns(plan.StragglersFor(i))
	n.SCSI.SetOutages(plan.OutagesFor(n.SCSI.Name()))
	n.PCI.SetOutages(plan.OutagesFor(n.PCI.Name()))
}

// UsableMemoryBytes returns the per-node memory available to the
// application (104 MB of the 128 MB under a full-function OS).
func (m *Machine) UsableMemoryBytes() int64 {
	return m.Nodes[0].OS.UsableMemoryBytes
}

// Endpoint returns a node's message-passing endpoint.
func (n *Node) Endpoint() *mpi.Endpoint { return n.m.World.Rank(n.ID) }

// rw charges one local disk request's full path: syscall, driver queue,
// media, SCSI, PCI, completion interrupt. A failed request skips the
// bus transfers (no data moved) but still pays the completion
// interrupt; the disk's error is returned.
//
// The steps run as a chain (sim.Proc.Chain), so p parks once per call:
// each step ends in a kernel callback on p's Task, and the completion
// interrupt's end is p's own wake. The result is that of p running the
// steps with the blocking primitives.
func (n *Node) rw(p *sim.Proc, offset, length int64, write bool) error {
	m := n.m
	var op *nodeOp
	if k := len(m.opFree); k > 0 {
		op = m.opFree[k-1]
		m.opFree[k-1] = nil
		m.opFree = m.opFree[:k-1]
	} else {
		op = &nodeOp{}
		op.stepFn = op.step
	}
	op.n, op.t = n, &p.Task
	op.req.Write, op.req.Offset, op.req.Length = write, offset, length
	p.Chain(op.start)
	err := op.req.Err()
	op.n, op.t = nil, nil
	m.opFree = append(m.opFree, op)
	return err
}

// nodeOp is one node-local request in flight: Node.rw's steps as kernel
// callbacks on the issuing process's Task. Ops are pooled per Machine
// and their step continuations bound once, so a local request
// allocates nothing in steady state.
type nodeOp struct {
	n   *Node
	t   *sim.Task
	req disk.Request

	// next is the step stepFn runs when the pending wait or hold ends;
	// one bound continuation serves every step.
	next   nodeStep
	stepFn func()
}

// nodeStep names the step a nodeOp continues with.
type nodeStep uint8

const (
	stepSubmit nodeStep = iota // the syscall and driver queue are charged
	stepWaited                 // the disk request has completed
	stepSCSI                   // the payload crossed SCSI
	stepPCI                    // the payload crossed PCI
)

// then returns the continuation that runs step s.
func (op *nodeOp) then(s nodeStep) func() {
	op.next = s
	return op.stepFn
}

func (op *nodeOp) step() {
	n := op.n
	switch op.next {
	case stepSubmit:
		n.Disk.Submit(&op.req).WaitFunc(op.t, op.then(stepWaited))
	case stepWaited:
		// A failed request moves no data: straight to the interrupt.
		if op.req.Err() != nil {
			op.interrupt()
			return
		}
		n.SCSI.TransferFunc(op.t, op.req.Length, op.then(stepSCSI))
	case stepSCSI:
		n.PCI.TransferFunc(op.t, op.req.Length, op.then(stepPCI))
	case stepPCI:
		op.interrupt()
	}
}

// start charges the system call and the driver queue.
func (op *nodeOp) start() {
	op.n.CPU.BusyFunc(op.t, op.n.OS.ReadWriteCall+op.n.OS.DriverQueue, op.then(stepSubmit))
}

// interrupt charges the completion interrupt: the chain's last hold.
func (op *nodeOp) interrupt() { op.n.CPU.BusyFunc(op.t, op.n.OS.Interrupt, nil) }

// ReadLocal reads from the node's own disk. The error is nil on
// success; fault-oblivious callers may ignore it.
func (n *Node) ReadLocal(p *sim.Proc, offset, length int64) error {
	return n.rw(p, offset, length, false)
}

// WriteLocal writes to the node's own disk.
func (n *Node) WriteLocal(p *sim.Proc, offset, length int64) error {
	return n.rw(p, offset, length, true)
}

// Compute runs cycles on the node's processor.
func (n *Node) Compute(p *sim.Proc, cycles int64) { n.CPU.Compute(p, cycles) }
