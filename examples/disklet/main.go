// disklet: program an Active Disk directly with the paper's stream-
// based disklet model — code at the drive that scans its own media,
// filters on the embedded processor, and streams its matches to a fixed
// sink — and watch a 64-disk farm run a select entirely at the drives.
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

const (
	disks      = 64
	perDisk    = 256 << 20 // 256 MB of tuples per drive
	tupleBytes = 64
	ioChunk    = 256 << 10 // the local read size
	sendBatch  = 1 << 20   // matches are batched to the front-end in 1 MB sends
)

// tally is what one disklet scanned, delivered and computed.
type tally struct{ in, out, cycles int64 }

// selectDisklet is the disklet: it reads its drive's partition chunk by
// chunk, evaluates the predicate on every tuple (60 cycles each), and
// streams the 1% that match to the front-end in batches.
func selectDisklet(p *sim.Proc, ad *diskos.ActiveDisk) tally {
	var t tally
	var pend int64
	for off := int64(0); off < perDisk; off += ioChunk {
		ad.ReadLocal(p, off, ioChunk)
		t.in += ioChunk
		cycles := int64(ioChunk / tupleBytes * 60)
		ad.Compute(p, cycles)
		t.cycles += cycles
		if pend += ioChunk / 100; pend >= sendBatch {
			ad.SendToFrontEnd(p, pend, nil)
			t.out += pend
			pend = 0
		}
	}
	if pend > 0 {
		ad.SendToFrontEnd(p, pend, nil)
		t.out += pend
	}
	return t
}

func main() {
	k := sim.NewKernel()
	system := diskos.NewSystem(k, diskos.DefaultConfig(disks))

	// Drain the front-end inbox (the query's result stream).
	k.Spawn("frontend", func(p *sim.Proc) {
		for {
			if _, ok := system.FE.Recv(p); !ok {
				return
			}
		}
	})

	tallies := make([]tally, disks)
	done := sim.NewWaitGroup(disks)
	for i, ad := range system.Disks {
		k.Spawn(fmt.Sprintf("disklet%d", i), func(p *sim.Proc) {
			tallies[i] = selectDisklet(p, ad)
			done.Done()
		})
	}
	var elapsed sim.Time
	k.Spawn("coord", func(p *sim.Proc) {
		done.Wait(p)
		elapsed = p.Now()
	})
	k.Run()

	var sum tally
	for _, t := range tallies {
		sum.in += t.in
		sum.out += t.out
		sum.cycles += t.cycles
	}
	fmt.Printf("select disklet on %d Active Disks\n", disks)
	fmt.Printf("  scanned    %6.2f GB at the drives\n", float64(sum.in)/1e9)
	fmt.Printf("  delivered  %6.2f GB to the front-end (%.1fx reduction)\n",
		float64(sum.out)/1e9, float64(sum.in)/float64(sum.out))
	fmt.Printf("  compute    %6.2f Gcycles across %d embedded cores\n", float64(sum.cycles)/1e9, disks)
	fmt.Printf("  elapsed    %v\n", elapsed)
	fmt.Printf("  loop       %.1f%% utilized — the interconnect barely notices\n",
		system.LoopUtilization()*100)
}
