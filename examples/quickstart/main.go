// Quickstart: simulate the paper's headline scenario — a SQL select
// over a 16 GB relation running as a disklet on an Active Disk farm —
// and watch the execution time fall as drives (and their embedded
// processors) are added.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"

	"howsim/internal/arch"
	"howsim/internal/tasks"
	"howsim/internal/workload"
)

// run simulates a select over the full 16 GB relation on cfg. A
// background context never cancels, so RunCtx never errors.
func run(cfg arch.Config) *tasks.Result {
	res, _ := tasks.RunCtx(context.Background(), cfg, workload.Select,
		workload.ForTask(workload.Select), nil, nil, tasks.ModeEvent)
	return res
}

func main() {
	fmt.Println("Active Disk select: 268M 64-byte tuples, 1% selectivity")
	fmt.Println("(filtering runs on the drives; only matches cross the interconnect)")
	fmt.Println()
	for _, disks := range []int{16, 32, 64, 128} {
		res := run(arch.ActiveDisks(disks))
		fmt.Printf("  %3d disks: %8.1fs   (%.2f GB over the loop, %.1f%% loop utilization)\n",
			disks,
			res.Elapsed.Seconds(),
			res.Details["loop_bytes"]/1e9,
			res.Details["loop_util"]*100)
	}
	fmt.Println()
	fmt.Println("For comparison, the same scan on an SMP disk farm, where every")
	fmt.Println("byte must cross the shared 200 MB/s Fibre Channel interconnect:")
	fmt.Println()
	for _, disks := range []int{16, 128} {
		res := run(arch.SMP(disks))
		fmt.Printf("  %3d disks: %8.1fs   (FC utilization %.1f%%)\n",
			disks, res.Elapsed.Seconds(), res.Details["fc_util"]*100)
	}
}
