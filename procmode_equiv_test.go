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

// TestExecModeFigureEquivalence renders figures at Quick scale. Figure 1 exercises all three architectures (active disks,
// cluster with netsim links, SMP); Figure 5 adds the restricted
// front-end relay path of the stream pump.
func TestExecModeFigureEquivalence(t *testing.T) {
	opts := func(m tasks.ExecMode) experiments.Options {
		o := experiments.Quick()
		o.Mode = m
		return o
	}
	modeCompare(t, "figure1", func(m tasks.ExecMode) string { return experiments.RunFigure1(opts(m)).Render() })
	modeCompare(t, "figure5", func(m tasks.ExecMode) string { return experiments.RunFigure5(opts(m)).Render() })
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
// closed-queue retirement of the substrate service loops. The outage
// plans stall a cluster's netsim link and local buses and each SMP bus
// in windows where each stall moves the elapsed time.
func TestExecModeFaultEquivalence(t *testing.T) {
	const drives = "seed=42,media=0.002,slow=0.001,fail=3@50ms,replica"
	for _, c := range []struct {
		name string
		cfg  arch.Config
		task workload.TaskID
		plan string
	}{
		{"faulted select on active disks", arch.ActiveDisks(8), workload.Select, drives},
		{"faulted sort on cluster", arch.Cluster(4), workload.Sort, drives},
		{"outaged sort on cluster", arch.Cluster(4), workload.Sort,
			"seed=5,outage=node0.up@40ms+21ms,outage=node2.scsi@240ms+21ms"},
		{"outaged groupby on cluster", arch.Cluster(4), workload.GroupBy,
			"seed=5,outage=node0.up@72ms+5ms,outage=node2.scsi@32ms+5ms"},
		{"outaged sort on smp", arch.SMP(4), workload.Sort,
			"seed=5,outage=smp.fc@116ms+30ms,outage=smp.xio@464ms+30ms,outage=smp.ic@58ms+30ms"},
		{"outaged groupby on smp", arch.SMP(4), workload.GroupBy, "seed=5,outage=smp.fc@60ms+6ms"},
	} {
		plan, err := fault.ParsePlan(c.plan)
		if err != nil {
			t.Fatal(err)
		}
		modeCompare(t, c.name, func(m tasks.ExecMode) string {
			ds := workload.ForTask(c.task).Scaled(1 << 22)
			r := run(c.cfg, c.task, ds, plan, nil, m)
			return r.Elapsed.String() + "\n" + r.Fault.Render()
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
