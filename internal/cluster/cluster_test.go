package cluster

import (
	"testing"

	"howsim/internal/mpi"
	"howsim/internal/sim"
)

func TestClusterShape(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, DefaultConfig(16))
	if len(m.Nodes) != 16 {
		t.Fatalf("%d worker nodes, want 16", len(m.Nodes))
	}
	if m.FERank != 16 || m.FE.Disk != nil {
		t.Error("front-end must be rank 16 without a local disk")
	}
	if m.World.Size() != 17 {
		t.Errorf("world size = %d, want 17", m.World.Size())
	}
	if m.UsableMemoryBytes() != 104<<20 {
		t.Errorf("usable memory = %d, want 104 MB", m.UsableMemoryBytes())
	}
	// 16 workers + FE fit a single 22-port leaf switch.
	if m.Tree.Leaves() != 1 {
		t.Errorf("17 endpoints use %d leaves, want 1 (paper: single switch at 16 hosts)", m.Tree.Leaves())
	}
}

func TestLargerClustersSpanSwitches(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, DefaultConfig(128))
	if m.Tree.Leaves() < 2 {
		t.Error("128-node cluster must cascade multiple switches")
	}
}

func TestLocalDiskScalesWithNodes(t *testing.T) {
	// Aggregate local-disk bandwidth grows with node count: 8 nodes each
	// scanning 16 MB locally take the same time as 1 node scanning 16 MB.
	run := func(nodes int) sim.Time {
		k := sim.NewKernel()
		m := New(k, DefaultConfig(nodes))
		var last sim.Time
		for i := 0; i < nodes; i++ {
			n := m.Nodes[i]
			k.Spawn("scan", func(p *sim.Proc) {
				for off := int64(0); off < 16<<20; off += 256 << 10 {
					n.ReadLocal(p, off, 256<<10)
				}
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		k.Run()
		return last
	}
	one := run(1)
	eight := run(8)
	ratio := float64(eight) / float64(one)
	if ratio > 1.1 {
		t.Errorf("8-node scan took %.2fx the 1-node scan; local I/O must scale", ratio)
	}
}

func TestRepartitionIsNICBound(t *testing.T) {
	// An all-to-all shuffle among 4 nodes: each sends 11.7 MB split
	// across 3 peers. Per-node egress is one NIC (11.7 MB/s), so ~1s.
	k := sim.NewKernel()
	m := New(k, DefaultConfig(4))
	const perPeer = 3_900_000
	var last sim.Time
	for i := 0; i < 4; i++ {
		i := i
		ep := m.Nodes[i].Endpoint()
		k.Spawn("recv", func(p *sim.Proc) {
			for j := 0; j < 3; j++ {
				ep.Recv(p, mpi.AnySource, 1)
			}
		})
		k.Spawn("send", func(p *sim.Proc) {
			var hs []*mpi.Handle
			for j := 0; j < 4; j++ {
				if j == i {
					continue
				}
				hs = append(hs, ep.Isend(p, j, 1, perPeer, nil))
			}
			for _, h := range hs {
				h.Wait(p)
			}
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	k.Run()
	if last < sim.Second || last > 2*sim.Second {
		t.Errorf("all-to-all of 11.7 MB/node took %v, want ~1s (NIC-bound)", last)
	}
}

func TestFrontEndEndpointCongestion(t *testing.T) {
	// All workers sending results to the front-end serialize on the
	// FE's single 100 Mb/s link — the paper's group-by bottleneck.
	k := sim.NewKernel()
	m := New(k, DefaultConfig(8))
	const bytes = 2_925_000 // 0.25s of NIC time each; 2s total at FE
	var last sim.Time
	k.Spawn("fe", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			m.FE.Endpoint().Recv(p, mpi.AnySource, 2)
		}
		last = p.Now()
	})
	for i := 0; i < 8; i++ {
		ep := m.Nodes[i].Endpoint()
		k.Spawn("send", func(p *sim.Proc) {
			ep.Send(p, m.FERank, 2, bytes, nil)
		})
	}
	k.Run()
	if last < 2*sim.Second {
		t.Errorf("8x2.9 MB into the front-end took %v, want >= 2s (endpoint congestion)", last)
	}
}
