package smp

import (
	"testing"

	"howsim/internal/sim"
)

// BenchmarkKernelStripeRead measures one 256 KB striped read over four
// disks end to end: the read/write call, a driver-queue charge and a
// disk request per 64 KB chunk, the FC loop and XIO transfers and the
// completion interrupt, all as one chain on the issuing process. Two
// readers share a processor, so each chain runs through Run's
// switching loop and queues for the CPU. It must report 0 allocs/op.
func BenchmarkKernelStripeRead(b *testing.B) {
	k := sim.NewKernel()
	defer k.Shutdown()
	m := New(k, DefaultConfig(4))
	stripe := m.NewStripe(seq(4), 0)
	const n = 256 << 10
	left := b.N
	for r := 0; r < 2; r++ {
		k.Spawn("reader", func(p *sim.Proc) {
			off := int64(r) * (32 << 20)
			for ; left > 0; left-- {
				stripe.Read(p, m.CPUs[0], off, n)
				off = (off + n) % (64 << 20)
			}
		})
	}
	// Warm the free lists, the disk queues and the event slab.
	k.RunUntil(20 * sim.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}
