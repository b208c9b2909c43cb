package diskos

import (
	"testing"

	"howsim/internal/sim"
)

// BenchmarkKernelDiskosStream measures one 128 KB chunk of a direct
// disk-to-disk stream end to end: the destination's buffer credit, the
// loop transfer, delivery into the destination inbox, and the receiving
// disklet's Recv and Release. The sender streams eight chunks per Send,
// so the pump's per-stream setup is in the figure too, spread over its
// chunks. It must report 0 allocs/op.
func BenchmarkKernelDiskosStream(b *testing.B) {
	k := sim.NewKernel()
	defer k.Shutdown()
	s := NewSystem(k, DefaultConfig(2))
	chunk := s.ChunkBytes()
	left := b.N
	k.Spawn("send", func(p *sim.Proc) {
		for left > 0 {
			n := min(left, 8)
			left -= n
			s.Disks[0].Send(p, 1, int64(n)*chunk, nil)
		}
	})
	dst := s.Disks[1]
	k.Spawn("recv", func(p *sim.Proc) {
		for {
			c, ok := dst.Recv(p)
			if !ok {
				return
			}
			dst.Release(c.Bytes)
		}
	})
	// Warm the pump pool, the chunk boxes and the event slab.
	k.RunUntil(20 * sim.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// TestStreamSendsDoNotAllocate checks that a steady-state transfer
// allocates nothing in each of the four directions — disk to disk
// (direct and relayed through the front-end), disk to front-end,
// front-end to disk, and a rebuild chunk — receivers' Recv and Release
// included.
func TestStreamSendsDoNotAllocate(t *testing.T) {
	for _, direct := range []bool{true, false} {
		k := sim.NewKernel()
		cfg := DefaultConfig(2)
		cfg.DirectComm = direct
		s := NewSystem(k, cfg)
		for _, ad := range s.Disks {
			k.Spawn("recv", func(p *sim.Proc) {
				for {
					c, ok := ad.Recv(p)
					if !ok {
						return
					}
					ad.Release(c.Bytes)
				}
			})
		}
		k.Spawn("fe.recv", func(p *sim.Proc) {
			for {
				if _, ok := s.FE.Recv(p); !ok {
					return
				}
			}
		})
		finished := false
		k.Spawn("measure", func(p *sim.Proc) {
			const bytes = 3*chunkBytes + 512
			sends := []struct {
				name string
				fn   func()
			}{
				{"disk to disk", func() { s.Disks[0].Send(p, 1, bytes, nil) }},
				{"disk to front-end", func() { s.Disks[0].SendToFrontEnd(p, bytes, nil) }},
				{"front-end to disk", func() { s.FrontEndSend(p, 1, bytes, nil) }},
				{"rebuild", func() { s.RebuildTransfer(p, 0, 1, 256<<10) }},
			}
			// A first pass warms the pump pool, the CPU holds, the chunk
			// boxes, the mailboxes and the event slab.
			for _, c := range sends {
				c.fn()
			}
			for _, c := range sends {
				if a := testing.AllocsPerRun(100, c.fn); a != 0 {
					t.Errorf("direct=%v %s: %v allocs per transfer, want 0", direct, c.name, a)
				}
			}
			for _, ad := range s.Disks {
				ad.CloseInbox()
			}
			s.FE.CloseInbox()
			finished = true
		})
		k.Run()
		if !finished {
			t.Fatalf("direct=%v: measurement did not complete\n%s", direct, k.DeadlockReport())
		}
	}
}
