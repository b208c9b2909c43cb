// Command howsim runs one decision-support task on one simulated
// architecture and reports the execution time, per-phase breakdown and
// resource statistics.
//
// Usage:
//
//	howsim -task sort -arch active -disks 64 [-fastio] [-mem 64]
//	       [-feonly] [-fastdisk] [-scale 0.01]
//	       [-faults seed=42,media=0.001,corrupt=0.001,fail=3@2s,replica,spare]
//	       [-trace out.json] [-breakdown]
//	       [-cpuprofile cpu.out] [-memprofile mem.out]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"howsim/internal/arch"
	"howsim/internal/probe"
	"howsim/internal/profiling"
	"howsim/internal/runconfig"
	"howsim/internal/tasks"
)

func main() {
	var req runconfig.Request
	flag.StringVar(&req.Task, "task", runconfig.DefaultTask, "task: select|aggregate|groupby|sort|dcube|join|dmine|mview")
	flag.StringVar(&req.Arch, "arch", runconfig.DefaultArch, "architecture: active|cluster|smp")
	flag.IntVar(&req.Disks, "disks", runconfig.DefaultDisks, "number of disks (and processors)")
	flag.BoolVar(&req.FastIO, "fastio", false, "400 MB/s serial interconnect (Active/SMP)")
	flag.Int64Var(&req.MemMB, "mem", runconfig.DefaultMemMB, "Active Disk memory per drive, MB (32/64/128)")
	flag.BoolVar(&req.FrontEndOnly, "feonly", false, "restrict Active Disk communication to the front-end")
	flag.BoolVar(&req.FastDisk, "fastdisk", false, "upgrade drives to the Hitachi DK3E1T-91")
	flag.IntVar(&req.FibreSwitch, "fibreswitch", 0, "split the Active Disk farm across N switched loops (0 = single loop)")
	flag.Float64Var(&req.Scale, "scale", runconfig.DefaultScale, "dataset scale factor (1.0 = full Table 2 size)")
	flag.StringVar(&req.Faults, "faults", "", "fault plan, e.g. seed=42,media=0.001,corrupt=0.001,straggler=2@1s+500ms*4,fail=3@2s,replica,spare")
	flag.StringVar(&req.ProcMode, "procmode", runconfig.DefaultProcMode, "simulator execution mode: event|parallel (parallel shards Active Disk runs across cores)")
	flag.IntVar(&req.RingSpans, "ring-spans", runconfig.DefaultRingSpans, "span-ring capacity multiplier for -trace/-breakdown (x 256Ki spans)")
	var (
		sweep     = flag.Bool("sweep", false, "run the task across 16/32/64/128 disks and print a scaling table")
		tracePath = flag.String("trace", "", "write a Chrome trace_event JSON timeline to this file")
		breakdown = flag.Bool("breakdown", false, "print the utilization/phase breakdown report")
	)
	flag.Parse()
	req.Breakdown = *breakdown

	sp, err := req.Normalize()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	stop := profiling.Start()
	defer stop()

	if *sweep {
		fmt.Printf("%s on %s, %0.2f GB dataset: scaling sweep\n\n",
			sp.TaskID, sp.Req.Arch, float64(sp.Dataset.TotalBytes)/1e9)
		fmt.Printf("%8s %12s %10s\n", "disks", "elapsed", "speedup")
		var base float64
		for _, n := range arch.StudiedSizes() {
			c := sp.Config
			c.Disks = n
			r, err := tasks.RunCtx(context.Background(), c, sp.TaskID, sp.Dataset, nil, nil, sp.Mode)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if base == 0 {
				base = r.Elapsed.Seconds()
			}
			fmt.Printf("%8d %11.1fs %9.2fx\n", n, r.Elapsed.Seconds(), base/r.Elapsed.Seconds())
		}
		return
	}

	var sink *probe.Sink
	if *tracePath != "" || *breakdown {
		sink = probe.NewSinkCap(sp.Req.RingSpans * probe.DefaultRingSpans)
	}
	res, err := tasks.RunCtx(context.Background(), sp.Config, sp.TaskID, sp.Dataset, sp.Plan, sink, sp.Mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *tracePath != "" {
		if err := sink.WriteTraceFile(*tracePath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s (%d spans, %d dropped)\n",
			*tracePath, sink.SpansRecorded(), sink.Dropped())
	}

	ds := sp.Dataset
	fmt.Printf("task       %s\n", sp.TaskID)
	fmt.Printf("config     %s\n", sp.Config.Name())
	fmt.Printf("dataset    %.2f GB (%d tuples of %d bytes)\n",
		float64(ds.TotalBytes)/1e9, ds.Tuples, ds.TupleBytes)
	fmt.Printf("elapsed    %v\n", res.Elapsed)
	if names := res.Breakdown.Names(); len(names) > 0 {
		fmt.Println("breakdown:")
		for _, n := range names {
			fmt.Printf("  %-16s %6.1f%%  %v\n", n, 100*res.Breakdown.Fraction(n), res.Breakdown.Get(n))
		}
	}
	keys := make([]string, 0, len(res.Details))
	for k := range res.Details {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println("details:")
	for _, k := range keys {
		fmt.Printf("  %-24s %g\n", k, res.Details[k])
	}
	if res.Fault != nil {
		fmt.Print(res.Fault.Render())
	}
	if *breakdown {
		fmt.Println()
		fmt.Print(sink.BuildReport(sp.TaskID.String(), sp.Config.Name(), int64(res.Elapsed)).Render())
	}
}
