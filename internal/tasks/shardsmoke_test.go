package tasks

import (
	"context"
	"fmt"
	"testing"

	"howsim/internal/arch"
	"howsim/internal/probe"
	"howsim/internal/workload"
)

// TestShardedTasksMatchEvent is the in-package sharded smoke: every
// Active Disk task runs under ModeParallel and must reproduce the
// single-kernel event run's elapsed time and details exactly (sort,
// join and mview take the single-kernel path in both modes). The CI
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
			want := simulate(cfg, task, ds, nil, ModeEvent)
			got := simulate(cfg, task, ds, nil, ModeParallel)
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
	sink := probe.NewSink()
	sink.SetEnabled(true)
	res, err := RunCtx(context.Background(), arch.ActiveDisks(4), workload.Select, scaled(workload.Select, 48<<20),
		nil, sink, ModeParallel)
	if err != nil {
		t.Fatal(err)
	}
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

// TestShardedFallbacks pins the fallback rule: the tasks that run two
// hub-crossing disklets per disk (sort, join and mview), a plan that
// fails a disk on Active Disks (with or without replica failover) and
// the other architectures are not shardable, and complete under
// ModeParallel via the single-kernel path.
func TestShardedFallbacks(t *testing.T) {
	cfg := arch.ActiveDisks(4)
	for _, task := range workload.AllTasks() {
		want := task != workload.Sort && task != workload.Join && task != workload.MView
		if got := shardable(task, cfg, nil); got != want {
			t.Errorf("shardable(%s, %s, nil) = %v, want %v", task, cfg.Name(), got, want)
		}
	}
	res := simulate(cfg, workload.Sort, scaled(workload.Sort, 48<<20), nil, ModeParallel)
	if res.Elapsed <= 0 {
		t.Fatalf("active sort under ModeParallel: elapsed = %v", res.Elapsed)
	}
	for _, ps := range []string{"seed=42,fail=1@5ms", "seed=42,fail=1@5ms,replica"} {
		if p := mustPlan(t, ps); shardable(workload.Select, cfg, p) {
			t.Errorf("shardable(select, %s, %s) = true, want false", cfg.Name(), p)
		}
	}
	if p := mustPlan(t, "seed=42,media=0.002,replica"); !shardable(workload.Select, cfg, p) {
		t.Errorf("shardable(select, %s, %s) = false, want true", cfg.Name(), p)
	}
	plan := mustPlan(t, "seed=42,fail=1@5ms,replica")
	res = simulate(cfg, workload.Select, scaled(workload.Select, 48<<20), plan, ModeParallel)
	if res.Elapsed <= 0 || res.Fault == nil || !res.Fault.Completed || res.Fault.ReplicaBytes == 0 {
		t.Fatalf("replica failover under ModeParallel: elapsed = %v, fault = %+v", res.Elapsed, res.Fault)
	}
	cfg = arch.Cluster(4)
	if shardable(workload.Select, cfg, nil) {
		t.Fatalf("shardable(select, %s, nil) = true, want false", cfg.Name())
	}
	res = simulate(cfg, workload.Select, scaled(workload.Select, 48<<20), nil, ModeParallel)
	if res.Elapsed <= 0 {
		t.Fatalf("cluster select under ModeParallel: elapsed = %v", res.Elapsed)
	}
}

// TestShardedDriveFailureMatchesEvent fails disk 2 of an 8-disk dmine
// at 171 ms, while its disklet waits in a hub call for pass 1's
// candidate broadcast. The failure is an event on that disk's own
// kernel, which a sharded hub never drives while the disklet is
// parked, so a sharded run would stall there; plans that fail a disk
// therefore run on one kernel, and ModeParallel must reproduce the
// event run's completed report.
func TestShardedDriveFailureMatchesEvent(t *testing.T) {
	ds, err := workload.ForTaskScaled(workload.DataMine, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	cfg := arch.ActiveDisks(8)
	plan := mustPlan(t, "seed=3,fail=2@171ms")
	run := func(mode ExecMode) string {
		r := simulate(cfg, workload.DataMine, ds, plan, mode)
		if r.Fault == nil {
			t.Fatalf("%s: no fault report", mode)
		}
		if !r.Fault.Completed {
			t.Fatalf("%s: run did not complete:\n%s", mode, r.Fault.Render())
		}
		return fmt.Sprintf("%v\n%v\n%s", r.Elapsed, r.Details, r.Fault.Render())
	}
	want := run(ModeEvent)
	if got := run(ModeParallel); got != want {
		t.Errorf("parallel run diverged from event run\n--- event ---\n%s\n--- parallel ---\n%s", want, got)
	}
}
