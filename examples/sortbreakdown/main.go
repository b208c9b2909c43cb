// sortbreakdown: reproduce the paper's Figure 3 analysis for one
// configuration size — where does the time of the external sort go on
// Active Disks, and does upgrading the disks (Hitachi "Fast Disk") or
// the interconnect (400 MB/s "Fast I/O") help?
//
// Run with:
//
//	go run ./examples/sortbreakdown          # 128 disks, the interesting case
//	go run ./examples/sortbreakdown 16
package main

import (
	"context"
	"fmt"
	"os"
	"strconv"

	"howsim/internal/arch"
	"howsim/internal/tasks"
	"howsim/internal/workload"
)

func main() {
	disks := 128
	if len(os.Args) > 1 {
		n, err := strconv.Atoi(os.Args[1])
		if err != nil || n < 2 {
			fmt.Fprintf(os.Stderr, "bad disk count %q\n", os.Args[1])
			os.Exit(2)
		}
		disks = n
	}
	variants := []struct {
		name string
		cfg  arch.Config
	}{
		{"base (Cheetah 9LP, 200 MB/s)", arch.ActiveDisks(disks)},
		{"Fast Disk (Hitachi DK3E1T-91)", arch.ActiveDisks(disks).WithFastDisk()},
		{"Fast I/O (400 MB/s loop)", arch.ActiveDisks(disks).WithFastIO()},
	}
	buckets := []string{"P1:Partitioner", "P1:Append", "P1:Sort", "P1:Idle", "P2:Merge", "P2:Idle"}

	fmt.Printf("External sort of 16 GB on %d Active Disks\n\n", disks)
	var results []*tasks.Result
	for _, v := range variants {
		// A background context never cancels, so RunCtx never errors.
		r, _ := tasks.RunCtx(context.Background(), v.cfg, workload.Sort,
			workload.ForTask(workload.Sort), nil, nil, tasks.ModeEvent)
		results = append(results, r)
	}
	fmt.Printf("%-30s %10s", "variant", "elapsed")
	for _, b := range buckets {
		fmt.Printf(" %14s", b)
	}
	fmt.Println()
	for i, v := range variants {
		r := results[i]
		fmt.Printf("%-30s %9.1fs", v.name, r.Elapsed.Seconds())
		for _, b := range buckets {
			fmt.Printf(" %13.1f%%", 100*r.Breakdown.Fraction(b))
		}
		fmt.Println()
	}
	fmt.Println()
	base := results[0].Elapsed.Seconds()
	fmt.Printf("Fast Disk speedup: %.2fx   Fast I/O speedup: %.2fx\n",
		base/results[1].Elapsed.Seconds(), base/results[2].Elapsed.Seconds())
	fmt.Println("(at 128 disks the interconnect, not the media, is the bottleneck:")
	fmt.Println(" upgrading the disks barely moves the needle, doubling the loop does)")
}
