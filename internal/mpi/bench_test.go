package mpi

import (
	"testing"

	"howsim/internal/cpu"
	"howsim/internal/netsim"
	"howsim/internal/osmodel"
	"howsim/internal/sim"
)

// BenchmarkKernelMPISendRecv measures one 4 KB Send and its Recv
// between ranks on different leaf switches, end to end: the send's CPU
// charge, its injection and four store-and-forward hops, the
// receiver's inbox dispatch and matching, and the receive charge. It
// must report 0 allocs/op.
func BenchmarkKernelMPISendRecv(b *testing.B) {
	k := sim.NewKernel()
	defer k.Shutdown()
	n := netsim.New(k, 0)
	const nodes = 24 // 22 per leaf switch: rank 23 is on the second
	n.SetTopology(netsim.NewFatTree(n, nodes, netsim.DefaultFatTreeConfig()))
	cpus := make([]*cpu.CPU, nodes)
	for i := range cpus {
		cpus[i] = cpu.New(k, "cpu", 300e6)
	}
	w := NewWorld(n, cpus, osmodel.FullFunctionOS())
	left := b.N
	k.Spawn("send", func(p *sim.Proc) {
		for ; left > 0; left-- {
			w.Rank(0).Send(p, nodes-1, 1, 4<<10, nil)
		}
	})
	k.Spawn("recv", func(p *sim.Proc) {
		for {
			w.Rank(nodes-1).Recv(p, 0, 1)
		}
	})
	// Warm the pools, the queues and the event slab.
	k.RunUntil(20 * sim.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}
