package netsim

import (
	"testing"
	"unsafe"

	"howsim/internal/sim"
)

// TestMessageSize keeps Message in the 224-byte allocation size class:
// every message in flight is one, with its delivery signal embedded.
func TestMessageSize(t *testing.T) {
	if n := unsafe.Sizeof(Message{}); n > 224 {
		t.Errorf("Message is %d bytes, want <= 224", n)
	}
}

func buildNet(t *testing.T, nodes int, cfg FatTreeConfig) (*sim.Kernel, *Network, *FatTree) {
	t.Helper()
	k := sim.NewKernel()
	n := New(k, DefaultFrameBytes)
	ft := NewFatTree(n, nodes, cfg)
	n.SetTopology(ft)
	return k, n, ft
}

func TestPointToPointThroughput(t *testing.T) {
	k, n, _ := buildNet(t, 4, DefaultFatTreeConfig())
	var m *Message
	k.Spawn("s", func(p *sim.Proc) {
		m = n.Send(p, 0, 1, 0, 11_700_000, nil) // 1s of NIC time
		m.Wait(p)
	})
	k.Run()
	el := m.DeliveredAt - m.SentAt
	// Two hops at NIC rate with pipelined frames: ~1s plus one frame's
	// extra serialization and latency.
	if el < sim.Second || el > sim.Time(1.1*float64(sim.Second)) {
		t.Errorf("11.7 MB point-to-point took %v, want ~1s", el)
	}
}

func TestNICCapsSingleNodeIngress(t *testing.T) {
	// Three senders to one receiver: the receiver NIC (11.7 MB/s) is the
	// bottleneck, so 3 x 11.7 MB takes ~3s.
	k, n, _ := buildNet(t, 4, DefaultFatTreeConfig())
	var last sim.Time
	for s := 1; s <= 3; s++ {
		s := s
		k.Spawn("s", func(p *sim.Proc) {
			m := n.Send(p, s, 0, 0, 11_700_000, nil)
			m.Wait(p)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	k.Run()
	if last < 3*sim.Second || last > sim.Time(3.3*float64(sim.Second)) {
		t.Errorf("3x11.7 MB into one node took %v, want ~3s (endpoint congestion)", last)
	}
}

func TestBisectionScalesAcrossLeaves(t *testing.T) {
	// Pairwise cross-leaf traffic: 22 nodes on leaf 0 send to 22 on leaf
	// 1. Demand 22*11.7 = 257 MB/s vs trunk 2*117 = 234 MB/s: mildly
	// oversubscribed, so time is slightly above NIC-limited.
	cfg := DefaultFatTreeConfig()
	k, n, ft := buildNet(t, 44, cfg)
	if ft.Leaves() != 2 {
		t.Fatalf("expected 2 leaves, got %d", ft.Leaves())
	}
	var last sim.Time
	const bytes = 11_700_000
	for i := 0; i < 22; i++ {
		i := i
		k.Spawn("s", func(p *sim.Proc) {
			m := n.Send(p, i, 22+i, 0, bytes, nil)
			m.Wait(p)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	k.Run()
	nicLimit := sim.Second
	trunkLimit := sim.Time(float64(22*bytes) / (2 * cfg.UplinkBytesPerSec) * float64(sim.Second))
	if last < trunkLimit {
		t.Errorf("cross-leaf sweep took %v, below trunk limit %v", last, trunkLimit)
	}
	if last > sim.Time(1.5*float64(nicLimit)) {
		t.Errorf("cross-leaf sweep took %v, want within 1.5x of NIC limit %v", last, nicLimit)
	}
}

func TestIntraLeafAvoidsTrunk(t *testing.T) {
	k, n, ft := buildNet(t, 44, DefaultFatTreeConfig())
	k.Spawn("s", func(p *sim.Proc) {
		n.Send(p, 0, 1, 0, 1<<20, nil).Wait(p)
	})
	k.Run()
	if ft.UplinkOf(0).BytesMoved() != 0 {
		t.Error("intra-leaf message should not touch the uplink")
	}
	if ft.NodeUpLink(0).BytesMoved() != 1<<20 {
		t.Errorf("node 0 up link moved %d bytes, want %d", ft.NodeUpLink(0).BytesMoved(), 1<<20)
	}
}

func TestCrossLeafUsesTrunk(t *testing.T) {
	k, n, ft := buildNet(t, 44, DefaultFatTreeConfig())
	k.Spawn("s", func(p *sim.Proc) {
		n.Send(p, 0, 23, 0, 1<<20, nil).Wait(p)
	})
	k.Run()
	if ft.UplinkOf(0).BytesMoved() != 1<<20 {
		t.Errorf("uplink moved %d bytes, want %d", ft.UplinkOf(0).BytesMoved(), 1<<20)
	}
}

func TestLoopbackIsCheap(t *testing.T) {
	k, n, _ := buildNet(t, 4, DefaultFatTreeConfig())
	var el sim.Time
	k.Spawn("s", func(p *sim.Proc) {
		m := n.Send(p, 2, 2, 0, 100<<20, nil)
		m.Wait(p)
		el = p.Now()
	})
	k.Run()
	if el > sim.Millisecond {
		t.Errorf("loopback of 100 MB took %v, should not cross the wire", el)
	}
}

func TestMessagesArriveInInbox(t *testing.T) {
	k, n, _ := buildNet(t, 4, DefaultFatTreeConfig())
	var got []*Message
	k.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			v, ok := n.Inbox(1).Get(p)
			if !ok {
				t.Error("inbox closed unexpectedly")
				return
			}
			got = append(got, v.(*Message))
		}
	})
	k.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			n.Send(p, 0, 1, i, 1000, i)
		}
	})
	k.Run()
	if len(got) != 3 {
		t.Fatalf("received %d messages, want 3", len(got))
	}
	// Same src/dst messages preserve order.
	for i, m := range got {
		if m.Tag != i || m.Payload.(int) != i {
			t.Errorf("message %d has tag %d payload %v", i, m.Tag, m.Payload)
		}
	}
}

func TestZeroByteMessageDelivered(t *testing.T) {
	k, n, _ := buildNet(t, 4, DefaultFatTreeConfig())
	var ok bool
	k.Spawn("s", func(p *sim.Proc) {
		m := n.Send(p, 0, 3, 9, 0, "ctl")
		m.Wait(p)
		ok = m.Delivered()
	})
	k.Run()
	if !ok {
		t.Error("zero-byte control message not delivered")
	}
}

func TestDeliveryConservation(t *testing.T) {
	// Total bytes delivered equals total bytes sent across a random-ish
	// deterministic traffic pattern.
	k, n, _ := buildNet(t, 24, DefaultFatTreeConfig())
	var sent int64
	wg := sim.NewWaitGroup(0)
	for i := 0; i < 24; i++ {
		i := i
		wg.Add(1)
		k.Spawn("s", func(p *sim.Proc) {
			for j := 1; j <= 4; j++ {
				dst := (i*7 + j*5) % 24
				if dst == i {
					dst = (dst + 1) % 24
				}
				b := int64(j * 10000)
				sent += b
				n.Send(p, i, dst, 0, b, nil).Wait(p)
			}
			wg.Done()
		})
	}
	k.Run()
	if n.BytesDelivered() != sent {
		t.Errorf("delivered %d bytes, sent %d", n.BytesDelivered(), sent)
	}
	if n.MessagesDelivered() != 24*4 {
		t.Errorf("delivered %d messages, want %d", n.MessagesDelivered(), 24*4)
	}
}

func TestFatTreeLeafAssignment(t *testing.T) {
	cfg := DefaultFatTreeConfig()
	k := sim.NewKernel()
	n := New(k, 0)
	ft := NewFatTree(n, 129, cfg)
	if ft.Leaves() != 6 {
		t.Errorf("129 nodes at 22/leaf => %d leaves, want 6", ft.Leaves())
	}
	if ft.LeafOf(0) != 0 || ft.LeafOf(21) != 0 || ft.LeafOf(22) != 1 || ft.LeafOf(128) != 5 {
		t.Error("LeafOf assignments incorrect")
	}
}
