// Probe determinism: with an observability sink attached, the trace
// JSON and the breakdown report must be byte-identical across repeated
// runs, match their golden digests and agree across
// `-procmode event|parallel` — with or without an injected fault
// plan — and the task phases must account for (almost) all of each
// run's end-to-end virtual time.
package repro_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"howsim/internal/arch"
	"howsim/internal/fault"
	"howsim/internal/probe"
	"howsim/internal/sim"
	"howsim/internal/tasks"
	"howsim/internal/workload"
)

// probedRun runs one task at a small scale with a fresh sink in the
// given mode and returns the full observable output: trace JSON bytes
// plus the rendered breakdown report. Comparing this string across
// runs and modes is exactly the byte-identity the CLI flags promise.
func probedRun(cfg arch.Config, task workload.TaskID, scale float64, plan *fault.Plan,
	mode tasks.ExecMode) (string, *probe.Sink, sim.Time) {
	ds := workload.ForTask(task)
	ds = ds.Scaled(int64(float64(ds.TotalBytes) * scale))
	sink := probe.NewSink()
	r := run(cfg, task, ds, plan, sink, mode)
	var sb strings.Builder
	if err := sink.WriteTrace(&sb); err != nil {
		panic(err)
	}
	sb.WriteString(sink.BuildReport(task.String(), cfg.Name(), int64(r.Elapsed)).Render())
	return sb.String(), sink, r.Elapsed
}

// TestProbeTraceRepeatable runs the same probed simulation twice in the
// same mode and requires byte-identical trace+report output. The second
// run's trace also goes through WriteTraceFile, as the CLIs write it:
// the file must hold the same trace bytes.
func TestProbeTraceRepeatable(t *testing.T) {
	a, _, _ := probedRun(arch.ActiveDisks(8), workload.Sort, 0.005, nil, tasks.ModeEvent)
	b, sink, _ := probedRun(arch.ActiveDisks(8), workload.Sort, 0.005, nil, tasks.ModeEvent)
	if a != b {
		t.Fatal("two identical probed runs produced different trace/report bytes")
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := sink.WriteTraceFile(path); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(file) == 0 || !strings.HasPrefix(a, string(file)) {
		t.Fatal("the trace file differs from the trace written to a buffer")
	}
}

// TestProbeTraceModeEquivalence requires the trace and report to match
// their golden digests and the parallel-mode output, on all three
// architectures. The cluster join's report shows which peer each node
// sends to: its link occupancy histograms move with the peer rotation,
// while the elapsed time and Details do not (at scale 0.004; at 0.005
// the histograms come out the same for either order).
func TestProbeTraceModeEquivalence(t *testing.T) {
	cases := []struct {
		name  string
		cfg   arch.Config
		task  workload.TaskID
		scale float64
	}{
		{"sort on active disks", arch.ActiveDisks(8), workload.Sort, 0.005},
		{"select on cluster", arch.Cluster(4), workload.Select, 0.005},
		{"aggregate on smp", arch.SMP(4), workload.Aggregate, 0.005},
		{"join on cluster", arch.Cluster(8), workload.Join, 0.004},
	}
	for _, c := range cases {
		modeCompare(t, "probed "+c.name, func(m tasks.ExecMode) string {
			out, _, _ := probedRun(c.cfg, c.task, c.scale, nil, m)
			return out
		})
	}
}

// TestProbeTraceFaultedEquivalence repeats the golden and cross-mode
// comparison under a deterministic fault plan, so degraded-run traces (retries,
// stall spans, recovery rebuilds) are held to the same standard. The
// cluster row pins that a cluster scan's failover records no recovery
// span: only Active Disk traces carry that component.
func TestProbeTraceFaultedEquivalence(t *testing.T) {
	plan, err := fault.ParsePlan("seed=42,media=0.002,slow=0.001,fail=3@50ms,replica")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		cfg  arch.Config
	}{
		{"active disks", arch.ActiveDisks(8)},
		{"cluster", arch.Cluster(4)},
	} {
		modeCompare(t, "probed faulted select on "+c.name, func(m tasks.ExecMode) string {
			out, _, _ := probedRun(c.cfg, workload.Select, 0.002, plan, m)
			return out
		})
	}
}

// TestProbePhaseAccounting checks the breakdown's central claim: the
// task phases partition each run's end-to-end virtual time, so the
// report accounts for at least 99% of it (the residual row carries the
// rest explicitly).
func TestProbePhaseAccounting(t *testing.T) {
	cases := []struct {
		name string
		cfg  arch.Config
		task workload.TaskID
	}{
		{"sort/active", arch.ActiveDisks(8), workload.Sort},
		{"sort/cluster", arch.Cluster(4), workload.Sort},
		{"sort/smp", arch.SMP(4), workload.Sort},
		{"select/active", arch.ActiveDisks(8), workload.Select},
	}
	for _, c := range cases {
		out, sink, elapsed := probedRun(c.cfg, c.task, 0.005, nil, tasks.ModeEvent)
		rep := sink.BuildReport(c.task.String(), c.cfg.Name(), int64(elapsed))
		if acc := rep.Accounted(); acc < 0.99 {
			t.Errorf("%s: phases account for %.2f%% of end-to-end time, want >= 99%%",
				c.name, 100*acc)
		}
		if !strings.Contains(out, "(residual)") {
			t.Errorf("%s: report does not state the residual explicitly", c.name)
		}
		if sink.Dropped() != 0 {
			t.Errorf("%s: ring overflowed (%d dropped) at test scale — grow DefaultRingSpans or shrink the test",
				c.name, sink.Dropped())
		}
	}
}

// TestProbeTraceHasModelSpans spot-checks that the trace carries the
// span taxonomy the issue promises: per-disk seek/transfer activity,
// link occupancy, and compute spans, with no scheduler leakage.
func TestProbeTraceHasModelSpans(t *testing.T) {
	out, sink, _ := probedRun(arch.ActiveDisks(8), workload.Sort, 0.005, nil, tasks.ModeEvent)
	for _, want := range []string{`"cat":"disk","name":"seek"`, `"cat":"disk","name":"transfer"`,
		`"cat":"link","name":"xfer"`, `"cat":"cpu","name":"compute"`} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %s", want)
		}
	}
	if strings.Contains(out, fmt.Sprintf(`"cat":"%s"`, probe.SchedComponent)) {
		t.Error("scheduler spans leaked into the trace")
	}
	if sink.SpansRecorded() == 0 {
		t.Error("no spans recorded")
	}
}
