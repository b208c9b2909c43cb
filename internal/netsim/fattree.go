package netsim

import (
	"fmt"

	"howsim/internal/sim"
)

// FatTreeConfig describes the cluster network from the paper: hosts on
// 24-port 100BaseT switches (3Com SuperStack II 3900 class) with two
// Gigabit Ethernet uplinks each, cascaded into a Gigabit root switch
// (SuperStack II 9300 class). The structure keeps bisection bandwidth
// growing with cluster size while capping any single node at 100 Mb/s.
type FatTreeConfig struct {
	NodesPerLeaf      int     // hosts per leaf switch (24 ports minus uplinks)
	NICBytesPerSec    float64 // effective host link rate each direction
	UplinkBytesPerSec float64 // effective rate of each GigE uplink
	Uplinks           int     // uplinks per leaf switch
	LinkLatency       int64   // nanoseconds per frame of switch+wire latency
	QueueFrames       int     // per-port buffering, in frames
}

// DefaultFatTreeConfig returns the paper's cluster network parameters:
// 22 hosts per 24-port switch (2 ports used by uplinks), 100 Mb/s host
// links at ~94% framing efficiency, two ~117 MB/s effective GigE uplinks
// per leaf.
func DefaultFatTreeConfig() FatTreeConfig {
	return FatTreeConfig{
		NodesPerLeaf:      22,
		NICBytesPerSec:    11.7e6,
		UplinkBytesPerSec: 117e6,
		Uplinks:           2,
		LinkLatency:       10_000, // 10 us
		QueueFrames:       8,
	}
}

// FatTree is a two-level switched topology: node links into leaf
// switches, leaf uplinks into a non-blocking root.
type FatTree struct {
	nodes    int
	perLeaf  int
	nodeUp   []*Link // node -> leaf switch
	nodeDown []*Link // leaf switch -> node
	leafUp   []*Link // leaf -> root
	leafDown []*Link // root -> leaf
}

// NewFatTree builds the topology's links on n's kernel and returns it.
func NewFatTree(n *Network, nodes int, cfg FatTreeConfig) *FatTree {
	return new(FatTree).Init(n, nodes, cfg)
}

// Init builds ft in place as NewFatTree would, rebuilding its links in
// place, and returns it; a nil ft is allocated first.
func (ft *FatTree) Init(n *Network, nodes int, cfg FatTreeConfig) *FatTree {
	if cfg.NodesPerLeaf <= 0 {
		panic("netsim: NodesPerLeaf must be positive")
	}
	if ft == nil {
		ft = new(FatTree)
	}
	leaves := (nodes + cfg.NodesPerLeaf - 1) / cfg.NodesPerLeaf
	*ft = FatTree{nodes: nodes, perLeaf: cfg.NodesPerLeaf,
		nodeUp: sim.Resized(ft.nodeUp, nodes), nodeDown: sim.Resized(ft.nodeDown, nodes),
		leafUp: sim.Resized(ft.leafUp, leaves), leafDown: sim.Resized(ft.leafDown, leaves)}
	nic := LinkConfig{Channels: 1, BytesPerSec: cfg.NICBytesPerSec,
		Latency: sim.Time(cfg.LinkLatency), QueueFrames: cfg.QueueFrames}
	trunk := LinkConfig{Channels: cfg.Uplinks, BytesPerSec: cfg.UplinkBytesPerSec,
		Latency: sim.Time(cfg.LinkLatency), QueueFrames: cfg.QueueFrames * 4}
	for i := 0; i < nodes; i++ {
		ft.nodeUp[i] = ft.nodeUp[i].init(n, fmt.Sprintf("node%d.up", i), nic)
		ft.nodeDown[i] = ft.nodeDown[i].init(n, fmt.Sprintf("node%d.down", i), nic)
	}
	for l := 0; l < leaves; l++ {
		ft.leafUp[l] = ft.leafUp[l].init(n, fmt.Sprintf("leaf%d.up", l), trunk)
		ft.leafDown[l] = ft.leafDown[l].init(n, fmt.Sprintf("leaf%d.down", l), trunk)
	}
	return ft
}

// Nodes implements Topology.
func (ft *FatTree) Nodes() int { return ft.nodes }

// Leaves returns the number of leaf switches.
func (ft *FatTree) Leaves() int { return len(ft.leafUp) }

// LeafOf returns the leaf switch a node hangs off.
func (ft *FatTree) LeafOf(node int) int { return node / ft.perLeaf }

// Path implements Topology: two hops within a leaf switch, four hops
// across the root.
func (ft *FatTree) Path(src, dst int) Route {
	ls, ld := ft.LeafOf(src), ft.LeafOf(dst)
	if ls == ld {
		return Route{ft.nodeUp[src], ft.nodeDown[dst]}
	}
	return Route{ft.nodeUp[src], ft.leafUp[ls], ft.leafDown[ld], ft.nodeDown[dst]}
}

// EachLink calls fn for every link in the topology, in a fixed order
// (node links first, then trunks) — used to match fault-plan outage
// windows to links by name.
func (ft *FatTree) EachLink(fn func(*Link)) {
	for _, l := range ft.nodeUp {
		fn(l)
	}
	for _, l := range ft.nodeDown {
		fn(l)
	}
	for _, l := range ft.leafUp {
		fn(l)
	}
	for _, l := range ft.leafDown {
		fn(l)
	}
}

// NodeUpLink exposes a node's egress link (for utilization reporting).
func (ft *FatTree) NodeUpLink(node int) *Link { return ft.nodeUp[node] }

// NodeDownLink exposes a node's ingress link.
func (ft *FatTree) NodeDownLink(node int) *Link { return ft.nodeDown[node] }

// UplinkOf exposes a leaf's egress trunk.
func (ft *FatTree) UplinkOf(leaf int) *Link { return ft.leafUp[leaf] }
