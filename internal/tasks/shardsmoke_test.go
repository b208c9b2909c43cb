package tasks

import (
	"fmt"
	"testing"

	"howsim/internal/arch"
	"howsim/internal/probe"
	"howsim/internal/workload"
)

// setMode switches the package-level execution mode for one test. The
// tasks tests never call t.Parallel, so the global is safe to flip.
func setMode(t *testing.T, mode ExecMode) {
	t.Helper()
	prev := DefaultExecMode
	DefaultExecMode = mode
	t.Cleanup(func() { DefaultExecMode = prev })
}

// TestShardedTasksMatchEvent is the in-package sharded smoke: every
// Active Disk task runs under ModeParallel and must reproduce the
// single-kernel event run's elapsed time and details exactly. The CI
// race job runs ./internal/... with -race, so this also exercises the
// cross-shard rendezvous under the race detector (the root-package
// equivalence tests, which additionally diff probe output, are not in
// that job's package set).
func TestShardedTasksMatchEvent(t *testing.T) {
	for _, task := range workload.AllTasks() {
		task := task
		t.Run(task.String(), func(t *testing.T) {
			ds := scaled(task, 48<<20)
			cfg := arch.ActiveDisks(8)
			setMode(t, ModeEvent)
			want := RunDataset(cfg, task, ds)
			setMode(t, ModeParallel)
			got := RunDataset(cfg, task, ds)
			if got.Elapsed != want.Elapsed {
				t.Errorf("elapsed = %v, want %v", got.Elapsed, want.Elapsed)
			}
			if fmt.Sprint(got.Details) != fmt.Sprint(want.Details) {
				t.Errorf("details diverged:\n parallel %v\n event    %v", got.Details, want.Details)
			}
		})
	}
}

// TestShardedProbeMerge checks that a probed sharded run merges every
// leaf sink into the caller's sink: the per-disk diskos instances must
// be present and carry spans.
func TestShardedProbeMerge(t *testing.T) {
	setMode(t, ModeParallel)
	sink := probe.NewSink()
	sink.SetEnabled(true)
	res := RunDatasetProbed(arch.ActiveDisks(4), workload.Select, scaled(workload.Select, 48<<20), nil, sink)
	if res.Elapsed <= 0 {
		t.Fatalf("elapsed = %v", res.Elapsed)
	}
	disks := map[string]bool{}
	for i := 0; i < sink.Instances(); i++ {
		if comp, name := sink.Instance(i); comp == "diskos" {
			disks[name] = true
		}
	}
	for i := 0; i < 4; i++ {
		if !disks[fmt.Sprintf("ad%d", i)] {
			t.Errorf("merged sink is missing the diskos ad%d instance (have %v)", i, disks)
		}
	}
	if sink.SpansRecorded() == 0 {
		t.Error("merged sink recorded no spans")
	}
}

// TestShardedFallbacks pins the fallback rule: a replica-failover plan
// on Active Disks (the scan reads a peer shard's disk) and the other
// architectures complete under ModeParallel via the single-kernel path.
func TestShardedFallbacks(t *testing.T) {
	setMode(t, ModeParallel)
	plan := mustPlan(t, "seed=42,fail=1@5ms,replica")
	cfg := arch.ActiveDisks(4)
	if shardable(cfg, plan) {
		t.Fatalf("shardable(%s, %s) = true, want false", cfg.Name(), plan)
	}
	res := RunDatasetFaulted(cfg, workload.Select, scaled(workload.Select, 48<<20), plan)
	if res.Elapsed <= 0 || res.Fault == nil || !res.Fault.Completed || res.Fault.ReplicaBytes == 0 {
		t.Fatalf("replica failover under ModeParallel: elapsed = %v, fault = %+v", res.Elapsed, res.Fault)
	}
	cfg = arch.Cluster(4)
	if shardable(cfg, nil) {
		t.Fatalf("shardable(%s, nil) = true, want false", cfg.Name())
	}
	res = RunDataset(cfg, workload.Select, scaled(workload.Select, 48<<20))
	if res.Elapsed <= 0 {
		t.Fatalf("cluster select under ModeParallel: elapsed = %v", res.Elapsed)
	}
}
