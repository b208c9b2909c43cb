// Execution-mode equivalence: a run on one kernel and the same run
// sharded across cores (-procmode parallel) must be indistinguishable
// in simulated results — every rendered figure and fault report
// byte-identical — and the single-kernel output must match its
// committed golden digest (golden_test.go). These tests run the same
// experiments in both tasks.ExecModes, compare the rendered output
// directly and check it against testdata/golden.
package repro_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"howsim/internal/arch"
	"howsim/internal/experiments"
	"howsim/internal/fault"
	"howsim/internal/probe"
	"howsim/internal/tasks"
	"howsim/internal/workload"
)

// run executes one task through tasks.RunCtx with a context that
// never cancels.
func run(cfg arch.Config, task workload.TaskID, ds workload.Dataset, plan *fault.Plan,
	sink *probe.Sink, mode tasks.ExecMode) *tasks.Result {
	r, err := tasks.RunCtx(context.Background(), cfg, task, ds, plan, sink, mode)
	if err != nil {
		panic(err)
	}
	return r
}

// modeCompare checks fn's single-kernel output against the golden
// digest for name, then requires the parallel-mode output to match it.
func modeCompare(t *testing.T, name string, fn func(tasks.ExecMode) string) {
	t.Helper()
	event := fn(tasks.ModeEvent)
	checkGolden(t, name, event)
	if got := fn(tasks.ModeParallel); event != got {
		t.Errorf("%s: parallel-mode output differs from event-mode output\n--- event ---\n%s\n--- parallel ---\n%s",
			name, event, got)
	}
}

// TestExecModeFigureEquivalence renders every artifact of
// `experiments -only all` that runs a simulation, at Quick scale, from
// one sweep per mode, so the artifacts share their common runs as
// cmd/experiments does. Figure 1 exercises all three architectures
// (active disks, cluster with netsim links, SMP); Figure 2 the
// 400 MB/s loops; Figure 3 the Fast Disk drive; Figure 4 the 64 MB
// disk memory; Figure 5 the restricted front-end relay path of the
// stream pump; the extension studies the FibreSwitch fabrics, both
// clocks and a derated drive.
func TestExecModeFigureEquivalence(t *testing.T) {
	sweeps := map[tasks.ExecMode]*experiments.Sweep{}
	for _, m := range []tasks.ExecMode{tasks.ModeEvent, tasks.ModeParallel} {
		o := experiments.Quick()
		o.Mode = m
		sweeps[m] = experiments.NewSweep(o)
	}
	for _, c := range []struct {
		name   string
		render func(*experiments.Sweep) string
	}{
		{"figure1", func(s *experiments.Sweep) string { return experiments.RunFigure1(s).Render() }},
		{"figure2", func(s *experiments.Sweep) string { return experiments.RunFigure2(s).Render() }},
		{"figure3", func(s *experiments.Sweep) string { return experiments.RunFigure3(s).Render() }},
		{"figure4", func(s *experiments.Sweep) string { return experiments.RunFigure4(s).Render() }},
		{"figure5", func(s *experiments.Sweep) string { return experiments.RunFigure5(s).Render() }},
		{"priceperf", func(s *experiments.Sweep) string {
			f := experiments.RunFigure1(s)
			size := f.Sizes[len(f.Sizes)-1]
			return experiments.PricePerformance(f, size, workload.Select) +
				experiments.PricePerformance(f, size, workload.Sort)
		}},
		{"fibreswitch", func(s *experiments.Sweep) string { return experiments.RunExtensionFibreSwitch(s).Render() }},
		{"frontend", func(s *experiments.Sweep) string { return experiments.RunExtensionFrontEnd(s).Render() }},
		{"embedded", func(s *experiments.Sweep) string { return experiments.RunExtensionEmbeddedCPU(s).Render() }},
		{"straggler", func(s *experiments.Sweep) string { return experiments.RunExtensionStraggler(s).Render() }},
		{"conclusions", func(s *experiments.Sweep) string {
			return experiments.RenderConclusions(experiments.VerifyConclusions(s))
		}},
	} {
		modeCompare(t, c.name, func(m tasks.ExecMode) string { return c.render(sweeps[m]) })
	}
}

// TestExecModeSortContentionEquivalence pins a case the Quick-scale
// figure runs are too small to catch: an active-disk sort whose merge
// phase keeps many streams contending for loop bandwidth and receive
// buffers at once. A change to same-time grant ordering (e.g. a stream
// pump waking its caller through an extra event instead of resuming it
// inline) shows up here as a drifting elapsed time, and so a golden
// mismatch, long before it is visible in the rendered figures.
func TestExecModeSortContentionEquivalence(t *testing.T) {
	modeCompare(t, "sort on 8 active disks", func(m tasks.ExecMode) string {
		ds := workload.ForTask(workload.Sort)
		ds = ds.Scaled(int64(float64(ds.TotalBytes) * 0.01))
		r := run(arch.ActiveDisks(8), workload.Sort, ds, nil, nil, m)
		return fmt.Sprintf("%v %v", r.Elapsed, r.Details)
	})
}

// TestExecModeSMPSelectEquivalence pins an SMP select's Details. Its
// fc_bytes count every striped output write at its sector-aligned
// size, which neither the elapsed time nor any figure shows.
func TestExecModeSMPSelectEquivalence(t *testing.T) {
	modeCompare(t, "select on smp", func(m tasks.ExecMode) string {
		ds := workload.ForTask(workload.Select)
		ds = ds.Scaled(int64(float64(ds.TotalBytes) * 0.004))
		r := run(arch.SMP(4), workload.Select, ds, nil, nil, m)
		return fmt.Sprintf("%v %v", r.Elapsed, r.Details)
	})
}

// TestExecModeScanFlushEquivalence pins a select large enough that each
// node's matches fill a flush batch mid-scan, which the Quick-scale
// figures never do: an Active Disk streams the batch to the front-end,
// a cluster node writes it to its own disk. In the faulted row node 3
// fails after its first batch, so the peer holding its replica writes
// the rest of its output to a take-over region of its own.
func TestExecModeScanFlushEquivalence(t *testing.T) {
	ds := workload.ForTask(workload.Select).Scaled(1 << 29)
	for _, c := range []struct {
		name string
		cfg  arch.Config
		plan string
	}{
		{"flushing select on active disks", arch.ActiveDisks(4), ""},
		{"flushing select on cluster", arch.Cluster(4), ""},
		{"flushing faulted select on cluster", arch.Cluster(4), "seed=42,fail=3@6200ms,replica"},
	} {
		plan, err := fault.ParsePlan(c.plan)
		if err != nil {
			t.Fatal(err)
		}
		modeCompare(t, c.name, func(m tasks.ExecMode) string {
			r := run(c.cfg, workload.Select, ds, plan, nil, m)
			out := fmt.Sprintf("%v %v", r.Elapsed, r.Details)
			if r.Fault != nil {
				out += "\n" + r.Fault.Render()
			}
			return out
		})
	}
}

// TestExecModeShardedTaskEquivalence pins every Active Disk task — the
// five the parallel mode shards, plus sort, join and mview, which run on
// one kernel in both modes and keep their golden digests here — at a
// scale where flushes from many disks contend for the loop, with a
// probe sink attached: the elapsed time, the detail metrics, the
// rendered breakdown report and the exported trace must all match the
// single-kernel event run byte for byte.
func TestExecModeShardedTaskEquivalence(t *testing.T) {
	for _, task := range []workload.TaskID{
		workload.Select, workload.Aggregate, workload.GroupBy, workload.DataCube,
		workload.Sort, workload.Join, workload.DataMine, workload.MView,
	} {
		task := task
		modeCompare(t, "sharded "+task.String(), func(m tasks.ExecMode) string {
			ds := workload.ForTask(task).Scaled(1 << 24)
			sink := probe.NewSink()
			sink.SetEnabled(true)
			r := run(arch.ActiveDisks(8), task, ds, nil, sink, m)
			var trace strings.Builder
			if err := sink.WriteTrace(&trace); err != nil {
				t.Fatal(err)
			}
			report := sink.BuildReport(task.String(), r.Config.Name(), int64(r.Elapsed)).Render()
			return fmt.Sprintf("%v\n%v\n%s\n%s", r.Elapsed, r.Details, report, trace.String())
		})
	}
}

// TestExecModeFaultEquivalence runs tasks under deterministic fault
// plans and compares the rendered fault reports with the goldens. The
// first plan — media retries, latency spikes, a permanent drive failure
// with replica recovery — covers the disk retry/backoff path and the
// closed-queue retirement of the substrate service loops; on a cluster
// select it also drives the scan's failover to the peer holding the
// replica and its take-over output region. The replica-less failure
// loses the rest of a cluster aggregate's partition while the front-end
// still collects every node's result. The media plan hard-errors at
// least one chunk of each select (the lost-chunk path) and retries the
// reads of a cluster's view maintenance and join. The outage plans
// stall a cluster's netsim link and local buses and each SMP bus in
// windows where each stall moves the elapsed time. The rows marked
// details also render Details: the fault report alone does not show,
// say, a result message the front-end never got.
func TestExecModeFaultEquivalence(t *testing.T) {
	const (
		drives = "seed=42,media=0.002,slow=0.001,fail=3@50ms,replica"
		media  = "seed=8,media=0.5"
	)
	for _, c := range []struct {
		name    string
		cfg     arch.Config
		task    workload.TaskID
		plan    string
		details bool
	}{
		{"faulted select on active disks", arch.ActiveDisks(8), workload.Select, drives, false},
		{"faulted sort on cluster", arch.Cluster(4), workload.Sort, drives, false},
		{"faulted select on cluster", arch.Cluster(4), workload.Select, drives, true},
		{"faulted aggregate on cluster", arch.Cluster(4), workload.Aggregate, "seed=42,fail=3@50ms", true},
		{"hard-errored select on active disks", arch.ActiveDisks(8), workload.Select, media, true},
		{"hard-errored select on cluster", arch.Cluster(4), workload.Select, media, true},
		{"faulted mview on cluster", arch.Cluster(4), workload.MView, media, true},
		{"faulted join on cluster", arch.Cluster(4), workload.Join, media, true},
		{"outaged sort on cluster", arch.Cluster(4), workload.Sort,
			"seed=5,outage=node0.up@40ms+21ms,outage=node2.scsi@240ms+21ms", false},
		{"outaged groupby on cluster", arch.Cluster(4), workload.GroupBy,
			"seed=5,outage=node0.up@72ms+5ms,outage=node2.scsi@32ms+5ms", false},
		{"outaged sort on smp", arch.SMP(4), workload.Sort,
			"seed=5,outage=smp.fc@116ms+30ms,outage=smp.xio@464ms+30ms,outage=smp.ic@58ms+30ms", false},
		{"outaged groupby on smp", arch.SMP(4), workload.GroupBy, "seed=5,outage=smp.fc@60ms+6ms", false},
	} {
		plan, err := fault.ParsePlan(c.plan)
		if err != nil {
			t.Fatal(err)
		}
		modeCompare(t, c.name, func(m tasks.ExecMode) string {
			ds := workload.ForTask(c.task).Scaled(1 << 22)
			r := run(c.cfg, c.task, ds, plan, nil, m)
			out := r.Elapsed.String() + "\n" + r.Fault.Render()
			if c.details {
				out += fmt.Sprintf("%v\n", r.Details)
			}
			return out
		})
	}
}

// TestExecModeRebuildEquivalence pins the spare rebuild of a select on
// 8 Active Disks: once disk 3 fails, disk 4 reads its replica region
// and streams the lost partition to the spare, chunk by chunk, through
// the loop the failed disk sat on, contending with the foreground scan.
// Behind a FibreSwitch, disks 3 and 4 sit on different loops, so each
// chunk crosses both. The row without the switch also caps the rebuild
// rate, low enough that some chunks wait out the cap and others do not.
// Both plans fail a disk, so both modes run on one kernel.
func TestExecModeRebuildEquivalence(t *testing.T) {
	ds := workload.ForTask(workload.Select)
	ds = ds.Scaled(int64(float64(ds.TotalBytes) * 0.01))
	for _, c := range []struct {
		name string
		cfg  arch.Config
		plan string
	}{
		{"spare rebuild on active disks", arch.ActiveDisks(8), "seed=42,fail=3@50ms,replica,spare,rebuild-rate=4"},
		{"spare rebuild behind a fibre switch", arch.ActiveDisks(8).WithFibreSwitch(2), "seed=42,fail=3@50ms,replica,spare"},
	} {
		plan, err := fault.ParsePlan(c.plan)
		if err != nil {
			t.Fatal(err)
		}
		modeCompare(t, c.name, func(m tasks.ExecMode) string {
			r := run(c.cfg, workload.Select, ds, plan, nil, m)
			return fmt.Sprintf("%v %v\n%s", r.Elapsed, r.Details, r.Fault.Render())
		})
	}
}

// TestExecModeShardedFaultEquivalence pins faulted runs of the tasks
// the parallel mode shards: fault plans without a drive failure do not
// fall back to the single-kernel path, so the sharded execution of
// media retries, silent-corruption rereads, straggler windows and bus
// outages must produce byte-identical elapsed times and fault reports.
// Plans that fail a disk (here the replica-less "fail=2@10ms", and
// replica failover and spare rebuild) run on one kernel in both modes;
// this test and TestExecModeFaultEquivalence check that fallback.
func TestExecModeShardedFaultEquivalence(t *testing.T) {
	plans := []string{
		"seed=7,media=0.004,slow=0.002,corrupt=0.003",
		"seed=9,fail=2@10ms",
		"seed=11,straggler=1@5ms+30ms*3,outage=fcal0@8ms+2ms",
	}
	for _, planStr := range plans {
		plan, err := fault.ParsePlan(planStr)
		if err != nil {
			t.Fatal(err)
		}
		for _, task := range []workload.TaskID{
			workload.Select, workload.Aggregate, workload.GroupBy, workload.DataCube,
			workload.Sort, workload.Join, workload.DataMine, workload.MView,
		} {
			task, plan := task, plan
			modeCompare(t, fmt.Sprintf("sharded %s under %s", task, planStr), func(m tasks.ExecMode) string {
				ds := workload.ForTask(task).Scaled(1 << 23)
				r := run(arch.ActiveDisks(8), task, ds, plan, nil, m)
				return r.Elapsed.String() + "\n" + r.Fault.Render()
			})
		}
	}
}
