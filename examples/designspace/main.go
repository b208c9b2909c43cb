// designspace: sweep the three Active Disk design knobs the paper
// evaluates — interconnect bandwidth (Figure 2), per-disk memory
// (Figure 4) and communication architecture (Figure 5) — for a chosen
// task, at a reduced dataset scale so the whole sweep runs in seconds.
//
// Run with:
//
//	go run ./examples/designspace            # sort at 1/8 scale
//	go run ./examples/designspace join
package main

import (
	"context"
	"fmt"
	"os"

	"howsim/internal/arch"
	"howsim/internal/tasks"
	"howsim/internal/workload"
)

const scale = 1.0 / 8

func run(cfg arch.Config, task workload.TaskID) float64 {
	// 1/8 of a Table 2 dataset is far above one byte, and a background
	// context never cancels, so neither call can fail.
	ds, _ := workload.ForTaskScaled(task, scale)
	res, _ := tasks.RunCtx(context.Background(), cfg, task, ds, nil, nil, tasks.ModeEvent)
	return res.Elapsed.Seconds()
}

func main() {
	task := workload.Sort
	if len(os.Args) > 1 {
		t, err := workload.ParseTask(os.Args[1])
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		task = t
	}
	fmt.Printf("Design-space sweep for %s (dataset at 1/8 scale)\n\n", task)

	fmt.Println("1. Interconnect bandwidth (64 disks):")
	base := run(arch.ActiveDisks(64), task)
	fast := run(arch.ActiveDisks(64).WithFastIO(), task)
	fmt.Printf("   200 MB/s: %7.1fs\n   400 MB/s: %7.1fs  (%.2fx)\n\n", base, fast, base/fast)

	fmt.Println("2. Per-disk memory (16 disks):")
	for _, mb := range []int64{32, 64, 128} {
		t := run(arch.ActiveDisks(16).WithDiskMemory(mb<<20), task)
		fmt.Printf("   %3d MB:   %7.1fs\n", mb, t)
	}
	fmt.Println()

	fmt.Println("3. Communication architecture (64 disks):")
	direct := run(arch.ActiveDisks(64), task)
	relay := run(arch.ActiveDisks(64).WithFrontEndOnly(), task)
	fmt.Printf("   disk-to-disk:   %7.1fs\n   front-end only: %7.1fs  (%.2fx slowdown)\n",
		direct, relay, relay/direct)
}
