// archcompare: the paper's core comparison for one task — run it on
// Active Disks, a commodity cluster and an SMP disk farm at the same
// size, then fold in the Table 1 prices to get price/performance.
//
// Run with:
//
//	go run ./examples/archcompare            # external sort at 64 disks
//	go run ./examples/archcompare groupby 128
package main

import (
	"context"
	"fmt"
	"os"
	"strconv"

	"howsim/internal/arch"
	"howsim/internal/cost"
	"howsim/internal/tasks"
	"howsim/internal/workload"
)

func main() {
	task := workload.Sort
	disks := 64
	if len(os.Args) > 1 {
		t, err := workload.ParseTask(os.Args[1])
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		task = t
	}
	if len(os.Args) > 2 {
		n, err := strconv.Atoi(os.Args[2])
		if err != nil || n < 2 {
			fmt.Fprintf(os.Stderr, "bad disk count %q\n", os.Args[2])
			os.Exit(2)
		}
		disks = n
	}

	type entry struct {
		name  string
		cfg   arch.Config
		price float64
		res   *tasks.Result
	}
	entries := []entry{
		{"Active Disks", arch.ActiveDisks(disks), cost.ActiveDiskTotal(cost.Jul99, disks), nil},
		{"Cluster", arch.Cluster(disks), cost.ClusterTotal(cost.Jul99, disks), nil},
		{"SMP", arch.SMP(disks), cost.SMPTotal(disks), nil},
	}
	fmt.Printf("%s on %d-disk configurations (full 16-32 GB datasets)\n\n", task, disks)
	for i := range entries {
		// A background context never cancels, so RunCtx never errors.
		entries[i].res, _ = tasks.RunCtx(context.Background(), entries[i].cfg, task,
			workload.ForTask(task), nil, nil, tasks.ModeEvent)
	}
	base := entries[0].res.Elapsed.Seconds()
	fmt.Printf("%-14s %10s %10s %12s %14s\n", "architecture", "time", "vs active", "price(7/99)", "price x time")
	for _, e := range entries {
		sec := e.res.Elapsed.Seconds()
		fmt.Printf("%-14s %9.1fs %9.2fx %12s %14.3e\n",
			e.name, sec, sec/base, fmt.Sprintf("$%.0f", e.price),
			cost.PricePerformance(e.price, sec))
	}
}
