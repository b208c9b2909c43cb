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
//
// With -faults, the command instead runs one task per architecture under
// the given deterministic fault plan and prints the recovery reports:
//
//	experiments -faults seed=42,media=0.001,fail=3@2s,replica,spare \
//	    -faulttask select -scale 0.05 -sizes 16
//
// Plans compose media errors, latency spikes, silent corruption
// (corrupt=P), straggler drives (straggler=DISK@START+DUR*FACTOR), a
// disk failure with optional replica failover and hot-spare rebuild,
// and interconnect outages; see DESIGN.md "Fault model & recovery".
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"howsim/internal/experiments"
	"howsim/internal/probe"
	"howsim/internal/profiling"
	"howsim/internal/runconfig"
	"howsim/internal/tasks"
	"howsim/internal/workload"
)

func main() {
	var (
		only      = flag.String("only", "all", "artifact: table1|table2|fig1|fig2|fig3|fig4|fig5|priceperf|fibreswitch|frontend|embedded|straggler|conclusions|all")
		scale     = flag.Float64("scale", 1.0, "dataset scale factor")
		sizesStr  = flag.String("sizes", "16,32,64,128", "comma-separated configuration sizes")
		parallel  = flag.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")
		faults    = flag.String("faults", "", "fault plan (media/slow/corrupt/straggler/fail/replica/spare/outage); runs the fault experiment instead of the figures")
		ftask     = flag.String("faulttask", "select", "task for the -faults experiment")
		farch     = flag.String("faultarch", "all", "architecture for -faults: active|cluster|smp|all")
		procmode  = flag.String("procmode", "event", "simulator execution mode: event|parallel (parallel shards Active Disk runs across cores)")
		tracePath = flag.String("trace", "", "write Chrome trace JSON: with -only, one per figure run (suffixed per config and task); otherwise one -faulttask run per architecture")
		breakdown = flag.Bool("breakdown", false, "print the utilization/phase breakdown: with -only, per figure run; otherwise one -faulttask run per architecture")
		ringSpans = flag.Int("ring-spans", 1, "span-ring capacity multiplier for probed runs (x 256Ki spans)")
	)
	flag.Parse()

	mode, err := tasks.ParseExecMode(*procmode)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	tasks.DefaultExecMode = mode

	var sizes []int
	for _, s := range strings.Split(*sizesStr, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 2 {
			fmt.Fprintf(os.Stderr, "bad size %q\n", s)
			os.Exit(2)
		}
		sizes = append(sizes, n)
	}
	opt := experiments.Options{Scale: *scale, Sizes: sizes, Parallel: *parallel, RingSpans: *ringSpans}
	if err := opt.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	stop := profiling.Start()
	defer stop()

	if *tracePath != "" || *breakdown {
		if *only == "all" {
			// Legacy single-task probed run on each architecture.
			if err := runProbedExperiment(*tracePath, *breakdown, *faults, *ftask, *farch, sizes[0], *scale, *ringSpans); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			return
		}
		// With -only, the figure driver itself runs probed: every
		// simulation gets a sink and emits its trace/breakdown.
		opt.Trace = *tracePath
		opt.Breakdown = *breakdown
	}

	if *faults != "" {
		if err := runFaultExperiment(*faults, *ftask, *farch, sizes[0], *scale); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}

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
		fig1 = experiments.RunFigure1(opt)
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
		fmt.Println(experiments.RunFigure2(opt).Render())
	}
	if want("fig3") {
		fmt.Println(experiments.RunFigure3(opt).Render())
	}
	if want("fig4") {
		fmt.Println(experiments.RunFigure4(opt).Render())
	}
	if want("fig5") {
		fmt.Println(experiments.RunFigure5(opt).Render())
	}
	if want("conclusions") {
		fmt.Println(experiments.RenderConclusions(experiments.VerifyConclusions(opt)))
	}
	if want("straggler") {
		fmt.Println(experiments.RunExtensionStraggler(opt).Render())
	}
	if want("embedded") {
		fmt.Println(experiments.RunExtensionEmbeddedCPU(opt).Render())
	}
	if want("frontend") {
		fmt.Println(experiments.RunExtensionFrontEnd(opt).Render())
	}
	if want("fibreswitch") {
		fmt.Println(experiments.RunExtensionFibreSwitch(opt).Render())
	}
	fmt.Fprintf(os.Stderr, "total wall time %v\n", time.Since(start).Round(time.Millisecond))
}

// normalizedSpecs resolves the requested architecture(s) into fully
// validated run specs via the shared runconfig normalizer — the same
// validation howsim and howsimd use, replacing the per-command config
// switch blocks this command used to carry.
func normalizedSpecs(taskName, archName string, size int, scale float64, planStr string) ([]*runconfig.Spec, error) {
	names := runconfig.ArchNames()
	if archName != "all" {
		names = []string{archName}
	}
	specs := make([]*runconfig.Spec, 0, len(names))
	for _, name := range names {
		sp, err := runconfig.Request{
			Task: taskName, Arch: name, Disks: size, Scale: scale, Faults: planStr,
		}.Normalize()
		if err != nil {
			return nil, err
		}
		specs = append(specs, sp)
	}
	return specs, nil
}

// runFaultExperiment runs one task under a deterministic fault plan on
// the requested architecture(s) at the given size and dataset scale, and
// prints each run's recovery report. The report is a pure function of
// (plan, task, configuration, dataset), so repeated invocations print
// byte-identical output.
func runFaultExperiment(planStr, taskName, archName string, size int, scale float64) error {
	specs, err := normalizedSpecs(taskName, archName, size, scale, planStr)
	if err != nil {
		return err
	}
	for _, sp := range specs {
		res := tasks.RunDatasetFaulted(sp.Config, sp.TaskID, sp.Dataset, sp.Plan)
		if res.Fault != nil {
			fmt.Print(res.Fault.Render())
		} else {
			fmt.Printf("fault report: %s on %s\n  plan:          %s\n  status:        completed (no faults injected)\n",
				sp.TaskID, sp.Config.Name(), sp.Req.Faults)
		}
		fmt.Println()
	}
	return nil
}

// runProbedExperiment runs one task on the requested architecture(s)
// with an observability sink attached, writing one Chrome trace per run
// and/or printing the utilization/phase breakdown. An optional fault
// plan is injected into the same probed run, so traces of degraded
// executions come for free. Like the fault experiment, the output is a
// pure function of (plan, task, configuration, dataset): repeated
// invocations produce byte-identical traces and reports.
func runProbedExperiment(tracePath string, breakdown bool, planStr, taskName, archName string, size int, scale float64, ringSpans int) error {
	specs, err := normalizedSpecs(taskName, archName, size, scale, planStr)
	if err != nil {
		return err
	}
	if ringSpans < 1 {
		ringSpans = 1
	}
	for _, sp := range specs {
		sink := probe.NewSinkCap(ringSpans * probe.DefaultRingSpans)
		res := tasks.RunDatasetProbed(sp.Config, sp.TaskID, sp.Dataset, sp.Plan, sink)
		if tracePath != "" {
			path := tracePath
			if len(specs) > 1 {
				path = archSuffixed(tracePath, sp.Req.Arch)
			}
			if err := sink.WriteTraceFile(path); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "trace written to %s (%d spans, %d dropped)\n",
				path, sink.SpansRecorded(), sink.Dropped())
		}
		if breakdown {
			fmt.Print(sink.BuildReport(sp.TaskID.String(), sp.Config.Name(), int64(res.Elapsed)).Render())
			fmt.Println()
		}
		if res.Fault != nil {
			fmt.Print(res.Fault.Render())
			fmt.Println()
		}
	}
	return nil
}

// archSuffixed inserts the architecture name before the path's
// extension: out.json + active -> out.active.json.
func archSuffixed(path, name string) string {
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + name + ext
}
