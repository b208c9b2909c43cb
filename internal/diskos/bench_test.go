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
