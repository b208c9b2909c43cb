package tasks

import (
	"reflect"
	"testing"

	"howsim/internal/arch"
	"howsim/internal/fault"
	"howsim/internal/workload"
)

func mustPlan(t *testing.T, s string) *fault.Plan {
	t.Helper()
	p, err := fault.ParsePlan(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFaultReportDeterminism: the same plan against the same workload
// must yield byte-identical rendered reports, run after run.
func TestFaultReportDeterminism(t *testing.T) {
	ds := scaled(workload.Select, 48<<20)
	for _, cfg := range []arch.Config{arch.ActiveDisks(4), arch.Cluster(4), arch.SMP(4)} {
		cfg := cfg
		t.Run(cfg.Name(), func(t *testing.T) {
			const planStr = "seed=42,media=0.002,slow=0.001,fail=3@50ms,replica"
			a := simulate(cfg, workload.Select, ds, mustPlan(t, planStr), ModeEvent)
			b := simulate(cfg, workload.Select, ds, mustPlan(t, planStr), ModeEvent)
			if a.Fault == nil || b.Fault == nil {
				t.Fatal("faulted run produced no FaultReport")
			}
			ra, rb := a.Fault.Render(), b.Fault.Render()
			if ra != rb {
				t.Fatalf("same seed, different reports:\n--- run 1 ---\n%s--- run 2 ---\n%s", ra, rb)
			}
			if a.Elapsed != b.Elapsed {
				t.Errorf("elapsed differs: %v vs %v", a.Elapsed, b.Elapsed)
			}
		})
	}
}

// TestFaultFreeEquivalence: a nil or empty plan must leave the
// simulation untouched — identical elapsed time and details, and no
// FaultReport attached.
func TestFaultFreeEquivalence(t *testing.T) {
	ds := scaled(workload.Aggregate, 48<<20)
	for _, cfg := range []arch.Config{arch.ActiveDisks(4), arch.Cluster(4), arch.SMP(4)} {
		cfg := cfg
		t.Run(cfg.Name(), func(t *testing.T) {
			base := simulate(cfg, workload.Aggregate, ds, nil, ModeEvent)
			empty := simulate(cfg, workload.Aggregate, ds, mustPlan(t, "seed=7"), ModeEvent)
			if base.Fault != nil || empty.Fault != nil {
				t.Errorf("fault-free run attached a FaultReport: nil plan %v, empty plan %v", base.Fault, empty.Fault)
			}
			if empty.Elapsed != base.Elapsed {
				t.Errorf("empty plan elapsed = %v, want %v", empty.Elapsed, base.Elapsed)
			}
			if !reflect.DeepEqual(empty.Details, base.Details) {
				t.Errorf("empty plan details diverge from the nil-plan run:\n%v\n%v",
					empty.Details, base.Details)
			}
		})
	}
}

// TestDiskFailureDegrades: with one disk failed mid-scan and no
// replicas, every architecture must still run to completion, reporting
// the failed disk and a coverage fraction strictly between 0 and 1.
func TestDiskFailureDegrades(t *testing.T) {
	ds := scaled(workload.Select, 48<<20)
	for _, cfg := range []arch.Config{arch.ActiveDisks(4), arch.Cluster(4), arch.SMP(4)} {
		cfg := cfg
		t.Run(cfg.Name(), func(t *testing.T) {
			res := simulate(cfg, workload.Select, ds, mustPlan(t, "seed=1,fail=2@20ms"), ModeEvent)
			fr := res.Fault
			if fr == nil {
				t.Fatal("no FaultReport")
			}
			if !fr.Completed {
				t.Fatalf("run did not complete:\n%s", fr.Render())
			}
			if len(fr.FailedDisks) != 1 {
				t.Errorf("failed disks = %v, want exactly one", fr.FailedDisks)
			}
			if fr.BytesLost <= 0 || fr.BytesLost >= fr.BytesTotal {
				t.Errorf("bytes lost = %d of %d, want partial loss", fr.BytesLost, fr.BytesTotal)
			}
			if c := fr.Coverage(); c <= 0 || c >= 1 {
				t.Errorf("coverage = %v, want in (0, 1)", c)
			}
		})
	}
}

// TestDiskFailureReplicaRecovers: the same failure with replicas
// declared must complete with full coverage, the lost ranges re-read
// from the peer.
func TestDiskFailureReplicaRecovers(t *testing.T) {
	ds := scaled(workload.Select, 48<<20)
	for _, cfg := range []arch.Config{arch.ActiveDisks(4), arch.Cluster(4), arch.SMP(4)} {
		cfg := cfg
		t.Run(cfg.Name(), func(t *testing.T) {
			res := simulate(cfg, workload.Select, ds, mustPlan(t, "seed=1,fail=2@20ms,replica"), ModeEvent)
			fr := res.Fault
			if fr == nil {
				t.Fatal("no FaultReport")
			}
			if !fr.Completed {
				t.Fatalf("run did not complete:\n%s", fr.Render())
			}
			if fr.BytesLost != 0 {
				t.Errorf("bytes lost = %d with replicas declared, want 0", fr.BytesLost)
			}
			if fr.ReplicaBytes <= 0 {
				t.Errorf("replica bytes = %d, want > 0 (recovery must go through the peer)", fr.ReplicaBytes)
			}
			if c := fr.Coverage(); c != 1 {
				t.Errorf("coverage = %v, want 1", c)
			}
		})
	}
}

// TestMediaErrorsRetryAndRecover: transient media errors alone must not
// lose data; the report counts the retries and the time they cost.
func TestMediaErrorsRetryAndRecover(t *testing.T) {
	ds := scaled(workload.Select, 48<<20)
	res := simulate(arch.ActiveDisks(4), workload.Select, ds,
		mustPlan(t, "seed=9,media=0.2,slow=0.1"), ModeEvent)
	fr := res.Fault
	if fr == nil {
		t.Fatal("no FaultReport")
	}
	if !fr.Completed {
		t.Fatalf("run did not complete:\n%s", fr.Render())
	}
	if fr.Retries == 0 {
		t.Error("no retries recorded at media=0.2")
	}
	if fr.SlowRequests == 0 {
		t.Error("no slow requests recorded at slow=0.1")
	}
	if fr.FaultDelaySec <= 0 {
		t.Error("fault delay not accounted")
	}
	// Faults cost time: the run must be slower than the clean one.
	clean := simulate(arch.ActiveDisks(4), workload.Select, ds, nil, ModeEvent)
	if res.Elapsed <= clean.Elapsed {
		t.Errorf("faulted run (%v) not slower than clean run (%v)", res.Elapsed, clean.Elapsed)
	}
}

// TestCorruptionRereads: silent corruption caught by checksum verify
// must surface as corrupt reads and rereads in the report, cost time,
// and stay deterministic.
func TestCorruptionRereads(t *testing.T) {
	ds := scaled(workload.Select, 48<<20)
	const planStr = "seed=5,corrupt=0.1"
	res := simulate(arch.ActiveDisks(4), workload.Select, ds, mustPlan(t, planStr), ModeEvent)
	fr := res.Fault
	if fr == nil {
		t.Fatal("no FaultReport")
	}
	if !fr.Completed {
		t.Fatalf("run did not complete:\n%s", fr.Render())
	}
	if fr.CorruptReads == 0 {
		t.Error("no corrupt reads recorded at corrupt=0.1")
	}
	if fr.Rereads < fr.CorruptReads {
		t.Errorf("rereads = %d < corrupt reads = %d; every corruption costs at least one reread",
			fr.Rereads, fr.CorruptReads)
	}
	clean := simulate(arch.ActiveDisks(4), workload.Select, ds, nil, ModeEvent)
	if res.Elapsed <= clean.Elapsed {
		t.Errorf("corrupted run (%v) not slower than clean run (%v)", res.Elapsed, clean.Elapsed)
	}
	again := simulate(arch.ActiveDisks(4), workload.Select, ds, mustPlan(t, planStr), ModeEvent)
	if again.Fault.Render() != fr.Render() {
		t.Error("corruption report not byte-reproducible")
	}
}

// TestStragglerSlowsRun: a per-drive CPU slowdown window must be
// charged to straggler delay, stretch the run once the slowed processor
// becomes the bottleneck, and stay deterministic across every
// architecture. The factor is large because a media-bound scan absorbs
// a mild slowdown in the drive's readahead — correctly so.
func TestStragglerSlowsRun(t *testing.T) {
	ds := scaled(workload.Select, 48<<20)
	const planStr = "seed=1,straggler=0@0s+1s*100"
	for _, cfg := range []arch.Config{arch.ActiveDisks(4), arch.Cluster(4), arch.SMP(4)} {
		cfg := cfg
		t.Run(cfg.Name(), func(t *testing.T) {
			res := simulate(cfg, workload.Select, ds, mustPlan(t, planStr), ModeEvent)
			fr := res.Fault
			if fr == nil {
				t.Fatal("no FaultReport")
			}
			if !fr.Completed {
				t.Fatalf("run did not complete:\n%s", fr.Render())
			}
			if fr.StragglerDelaySec <= 0 {
				t.Error("no straggler delay accounted")
			}
			if fr.BytesLost != 0 {
				t.Errorf("straggler lost %d bytes; slowdowns must not lose data", fr.BytesLost)
			}
			clean := simulate(cfg, workload.Select, ds, nil, ModeEvent)
			if res.Elapsed <= clean.Elapsed {
				t.Errorf("straggler run (%v) not slower than clean run (%v)", res.Elapsed, clean.Elapsed)
			}
			again := simulate(cfg, workload.Select, ds, mustPlan(t, planStr), ModeEvent)
			if again.Fault.Render() != fr.Render() {
				t.Error("straggler report not byte-reproducible")
			}
		})
	}
}

// TestSpareRebuild: a permanent failure with a replica and a declared
// spare must trigger the background rebuild — the surviving replica
// streams the lost partition onto the spare, the report carries
// RebuildStats, and the whole thing is byte-reproducible.
func TestSpareRebuild(t *testing.T) {
	ds := scaled(workload.Select, 48<<20)
	const planStr = "seed=42,fail=3@40ms,replica,spare"
	res := simulate(arch.ActiveDisks(4), workload.Select, ds, mustPlan(t, planStr), ModeEvent)
	fr := res.Fault
	if fr == nil {
		t.Fatal("no FaultReport")
	}
	if !fr.Completed {
		t.Fatalf("run did not complete:\n%s", fr.Render())
	}
	if fr.Rebuild == nil {
		t.Fatalf("no RebuildStats in report:\n%s", fr.Render())
	}
	rb := fr.Rebuild
	if rb.Spare != "spare" {
		t.Errorf("rebuild target = %q, want \"spare\"", rb.Spare)
	}
	per := perNodeBytes(ds.TotalBytes, 4)
	if rb.Bytes != per {
		t.Errorf("rebuilt %d bytes, want the failed disk's %d-byte partition", rb.Bytes, per)
	}
	if rb.StartSec < mustPlan(t, planStr).FailAt.Seconds() {
		t.Errorf("rebuild started at %vs, before the failure", rb.StartSec)
	}
	if rb.EndSec <= rb.StartSec {
		t.Errorf("rebuild end %vs not after start %vs", rb.EndSec, rb.StartSec)
	}
	// The rebuild contends with the foreground scan: the run must take
	// longer than the same failure recovered by replica reads alone.
	replicaOnly := simulate(arch.ActiveDisks(4), workload.Select, ds,
		mustPlan(t, "seed=42,fail=3@40ms,replica"), ModeEvent)
	if res.Elapsed <= replicaOnly.Elapsed {
		t.Errorf("rebuild run (%v) not slower than replica-only run (%v)",
			res.Elapsed, replicaOnly.Elapsed)
	}
	again := simulate(arch.ActiveDisks(4), workload.Select, ds, mustPlan(t, planStr), ModeEvent)
	if again.Fault.Render() != fr.Render() {
		t.Errorf("rebuild report not byte-reproducible:\n--- run 1 ---\n%s--- run 2 ---\n%s",
			fr.Render(), again.Fault.Render())
	}
	if again.Elapsed != res.Elapsed {
		t.Errorf("elapsed differs across identical rebuild runs: %v vs %v", res.Elapsed, again.Elapsed)
	}
}

// TestRebuildRateThrottle: a rebuild-rate cap must stretch the rebuild
// window without losing any rebuilt bytes, and the paced run must stay
// byte-reproducible — the pacing delays are pure functions of the plan,
// not of host timing.
func TestRebuildRateThrottle(t *testing.T) {
	ds := scaled(workload.Select, 48<<20)
	const free = "seed=42,fail=3@40ms,replica,spare"
	const paced = "seed=42,fail=3@40ms,replica,spare,rebuild-rate=5"
	unthrottled := simulate(arch.ActiveDisks(4), workload.Select, ds, mustPlan(t, free), ModeEvent)
	throttled := simulate(arch.ActiveDisks(4), workload.Select, ds, mustPlan(t, paced), ModeEvent)
	if throttled.Fault == nil || throttled.Fault.Rebuild == nil {
		t.Fatal("paced run carried no RebuildStats")
	}
	rb, free0 := throttled.Fault.Rebuild, unthrottled.Fault.Rebuild
	if rb.Bytes != free0.Bytes {
		t.Errorf("pacing changed rebuilt bytes: %d vs %d", rb.Bytes, free0.Bytes)
	}
	// 5 MB/s over the 12 MB partition floors the rebuild window at 2.4s,
	// far beyond the unthrottled rebuild; the cap must dominate.
	floor := float64(rb.Bytes) / 5e6
	if got := rb.EndSec - rb.StartSec; got < floor {
		t.Errorf("paced rebuild window %.3fs under the %.3fs rate floor", got, floor)
	}
	if freeWin := free0.EndSec - free0.StartSec; rb.EndSec-rb.StartSec <= freeWin {
		t.Errorf("paced rebuild window %.3fs not longer than unthrottled %.3fs",
			rb.EndSec-rb.StartSec, freeWin)
	}
	again := simulate(arch.ActiveDisks(4), workload.Select, ds, mustPlan(t, paced), ModeEvent)
	if again.Fault.Render() != throttled.Fault.Render() {
		t.Errorf("paced rebuild report not byte-reproducible:\n--- run 1 ---\n%s--- run 2 ---\n%s",
			throttled.Fault.Render(), again.Fault.Render())
	}
	if again.Elapsed != throttled.Elapsed {
		t.Errorf("elapsed differs across identical paced runs: %v vs %v",
			again.Elapsed, throttled.Elapsed)
	}
}
