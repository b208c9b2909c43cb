// disklet: program an Active Disk directly with the paper's stream-
// based disklet model — sandboxed application code that cannot initiate
// I/O, gets a fixed scratch reservation, and streams to a fixed sink —
// and watch a 64-disk farm run a select entirely at the drives.
//
// Run with:
//
//	go run ./examples/disklet
package main

import (
	"fmt"

	"howsim/internal/diskos"
	"howsim/internal/sim"
)

func main() {
	const (
		disks       = 64
		perDisk     = 256 << 20 // 256 MB of tuples per drive
		tupleBytes  = 64
		selectivity = 0.01
	)
	k := sim.NewKernel()
	system := diskos.NewSystem(k, diskos.DefaultConfig(disks))

	// The disklet: evaluate the predicate on every tuple, emit matches.
	// It sees only chunk sizes; DiskOS does all I/O and routing.
	selectDisklet := diskos.Disklet{
		Name:         "select-1pct",
		ScratchBytes: 1 << 20,
		Process: func(chunk int64) (emit, cycles int64) {
			tuples := chunk / tupleBytes
			return chunk / 100, tuples * 60
		},
	}

	// Drain the front-end inbox (the query's result stream).
	k.Spawn("frontend", func(p *sim.Proc) {
		for {
			if _, ok := system.FE.Recv(p); !ok {
				return
			}
		}
	})

	stats := make([]diskos.DiskletStats, disks)
	done := sim.NewWaitGroup(disks)
	for i := 0; i < disks; i++ {
		i := i
		ad := system.Disks[i]
		k.Spawn(fmt.Sprintf("disklet%d", i), func(p *sim.Proc) {
			stats[i] = ad.RunDisklet(p, selectDisklet,
				diskos.Region{Offset: 0, Length: perDisk},
				diskos.Sink{ToFrontEnd: true})
			done.Done()
		})
	}
	var elapsed sim.Time
	k.Spawn("coord", func(p *sim.Proc) {
		done.Wait(p)
		elapsed = p.Now()
	})
	k.Run()

	var in, out, cycles int64
	for _, s := range stats {
		in += s.BytesIn
		out += s.BytesOut
		cycles += s.Cycles
	}
	fmt.Printf("select disklet on %d Active Disks\n", disks)
	fmt.Printf("  scanned    %6.2f GB at the drives\n", float64(in)/1e9)
	fmt.Printf("  delivered  %6.2f GB to the front-end (%.1fx reduction)\n",
		float64(out)/1e9, float64(in)/float64(out))
	fmt.Printf("  compute    %6.2f Gcycles across %d embedded cores\n", float64(cycles)/1e9, disks)
	fmt.Printf("  elapsed    %v\n", elapsed)
	fmt.Printf("  loop       %.1f%% utilized — the interconnect barely notices\n",
		system.LoopUtilization()*100)
}
