// Command experiments regenerates the paper's evaluation: Table 1,
// Table 2 and Figures 1-5, printed as text tables and bar charts.
//
// Usage:
//
//	experiments                      # everything at full Table 2 scale
//	experiments -only fig3           # one artifact
//	experiments -scale 0.05          # scaled-down datasets (much faster)
//	experiments -sizes 16,64         # subset of configuration sizes
//	experiments -only fig1 -cpuprofile cpu.out -memprofile mem.out
//	experiments -only fig3 -trace out.json -breakdown
//
// Each distinct (machine, task) simulation runs once per invocation,
// however many artifacts ask for it; stderr reports how many ran.
// -trace and -breakdown probe every simulation: each writes one trace
// file, and each artifact prints the breakdown of every run it uses.
// One run of one task on one architecture, with or without a fault
// plan, is cmd/howsim's job.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"howsim/internal/experiments"
	"howsim/internal/profiling"
	"howsim/internal/tasks"
	"howsim/internal/workload"
)

func main() {
	var (
		only      = flag.String("only", "all", "artifact: table1|table2|fig1|fig2|fig3|fig4|fig5|priceperf|fibreswitch|frontend|embedded|straggler|conclusions|all")
		scale     = flag.Float64("scale", 1.0, "dataset scale factor")
		sizesStr  = flag.String("sizes", "16,32,64,128", "comma-separated configuration sizes")
		parallel  = flag.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")
		procmode  = flag.String("procmode", "event", "simulator execution mode: event|parallel (parallel shards Active Disk runs across cores)")
		tracePath = flag.String("trace", "", "write Chrome trace JSON, one per figure run (suffixed per config and task)")
		breakdown = flag.Bool("breakdown", false, "print the utilization/phase breakdown of every figure run")
		ringSpans = flag.Int("ring-spans", 1, "span-ring capacity multiplier for probed runs (x 256Ki spans)")
	)
	flag.Parse()

	mode, err := tasks.ParseExecMode(*procmode)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var sizes []int
	for _, s := range strings.Split(*sizesStr, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 2 {
			fmt.Fprintf(os.Stderr, "bad size %q\n", s)
			os.Exit(2)
		}
		sizes = append(sizes, n)
	}
	opt := experiments.Options{Scale: *scale, Sizes: sizes, Parallel: *parallel, Mode: mode,
		Trace: *tracePath, Breakdown: *breakdown, RingSpans: *ringSpans}
	if err := opt.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	stop := profiling.Start()
	defer stop()

	// One run table for every artifact: a (machine, task) cell that
	// several figures ask for runs once.
	sw := experiments.NewSweep(opt)

	want := func(name string) bool { return *only == "all" || *only == name }
	start := time.Now()

	if want("table1") {
		fmt.Println(experiments.RenderTable1(64))
	}
	if want("table2") {
		fmt.Println(experiments.RenderTable2())
	}
	var fig1 *experiments.Figure1
	if want("fig1") || want("priceperf") {
		fig1 = experiments.RunFigure1(sw)
	}
	if want("fig1") {
		fmt.Println(fig1.Render())
	}
	if want("priceperf") {
		size := sizes[len(sizes)-1]
		for _, task := range []workload.TaskID{workload.Select, workload.Sort} {
			fmt.Println(experiments.PricePerformance(fig1, size, task))
		}
	}
	if want("fig2") {
		fmt.Println(experiments.RunFigure2(sw).Render())
	}
	if want("fig3") {
		fmt.Println(experiments.RunFigure3(sw).Render())
	}
	if want("fig4") {
		fmt.Println(experiments.RunFigure4(sw).Render())
	}
	if want("fig5") {
		fmt.Println(experiments.RunFigure5(sw).Render())
	}
	if want("conclusions") {
		fmt.Println(experiments.RenderConclusions(experiments.VerifyConclusions(sw)))
	}
	if want("straggler") {
		fmt.Println(experiments.RunExtensionStraggler(sw).Render())
	}
	if want("embedded") {
		fmt.Println(experiments.RunExtensionEmbeddedCPU(sw).Render())
	}
	if want("frontend") {
		fmt.Println(experiments.RunExtensionFrontEnd(sw).Render())
	}
	if want("fibreswitch") {
		fmt.Println(experiments.RunExtensionFibreSwitch(sw).Render())
	}
	fmt.Fprintf(os.Stderr, "ran %d simulations\n", sw.Runs())
	fmt.Fprintf(os.Stderr, "total wall time %v\n", time.Since(start).Round(time.Millisecond))
}
