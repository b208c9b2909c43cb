package cluster

import (
	"testing"

	"howsim/internal/sim"
)

// BenchmarkKernelNodeRead measures one 256 KB node-local read end to
// end: the system call and driver queue, the disk request, the SCSI and
// PCI transfers and the completion interrupt, all as one chain on the
// issuing process. Two readers share the node, so each chain runs
// through Run's switching loop and queues for the CPU and the buses. It
// must report 0 allocs/op.
func BenchmarkKernelNodeRead(b *testing.B) {
	k := sim.NewKernel()
	defer k.Shutdown()
	n := newLocalNodes(k, 1).Nodes[0]
	const size = 256 << 10
	left := b.N
	for r := 0; r < 2; r++ {
		k.Spawn("reader", func(p *sim.Proc) {
			off := int64(r) * (32 << 20)
			for ; left > 0; left-- {
				n.ReadLocal(p, off, size)
				off = (off + size) % (64 << 20)
			}
		})
	}
	// Warm the free lists, the disk queue and the event slab.
	k.RunUntil(20 * sim.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}
