//go:build !race

package repro_test

import (
	"context"
	"runtime"
	"testing"

	"howsim/internal/experiments"
	"howsim/internal/runconfig"
	"howsim/internal/tasks"
)

// figure1AllocKB is what one Figure 1 pass allocated when the budget
// was last set (three runs on a 2-core amd64 host, Go 1.24.0, read
// 6,606 to 6,617 kB; GOMAXPROCS 1 and 8 read 6,599 and 6,651). The
// budget adds a 2% margin for that spread.
const (
	figure1AllocKB       = 6_617
	figure1AllocBudgetKB = figure1AllocKB * 102 / 100
)

// TestFigure1AllocBudget holds one Figure 1 pass (every task on every
// architecture at scale 0.05, on 16 and 64 disks, one simulation at a
// time) to an allocation budget, read from runtime.MemStats.TotalAlloc
// around the pass: a record the model keeps per wait or per request
// that grows back fails go test, not only the end-to-end benchmark.
// The race detector's instrumentation allocates on its own, so the
// test builds only without it.
func TestFigure1AllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping the Figure 1 pass")
	}
	o := experiments.Options{Scale: 0.05, Sizes: []int{16, 64}, Parallel: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	experiments.RunFigure1(experiments.NewSweep(o))
	runtime.ReadMemStats(&after)
	kb := (after.TotalAlloc - before.TotalAlloc) / 1024
	t.Logf("one Figure 1 pass allocated %d kB (budget %d kB)", kb, figure1AllocBudgetKB)
	if kb > figure1AllocBudgetKB {
		t.Errorf("one Figure 1 pass allocated %d kB, over its %d kB budget", kb, figure1AllocBudgetKB)
	}
}

// shardScanAllocKB is what one pass of the shard_scan configs allocated
// when the budget was last set (three runs each under -cpu 1, 2 and 8 on
// a 2-core amd64 host, Go 1.24.0, read 1,506 to 1,520 kB). The budget
// adds a 2% margin for that spread.
const (
	shardScanAllocKB       = 1_520
	shardScanAllocBudgetKB = shardScanAllocKB * 102 / 100
)

// TestShardScanAllocBudget holds one pass of perfbench's shard_scan
// configs (select, aggregate, groupby and dcube, sharded under
// -procmode parallel on 64 and 128 Active Disks at scales 0.25 and 1,
// with no sink) to an allocation budget, read from
// runtime.MemStats.TotalAlloc around the pass. A warm pass first fills
// the pools, so the measured pass reuses a shard group and its sharded
// system per shape: a per-run rebuild of either that grows back fails
// go test, not only the end-to-end benchmark. The passes run at
// GOMAXPROCS 2 whatever the host: a run starts a goroutine per leaf,
// and with more Ps the goroutines that exit spread over more Ps' free
// lists, so the runtime allocates more new ones (at GOMAXPROCS 16 a
// pass read up to 1,629 kB).
func TestShardScanAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping the shard_scan pass")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var specs []*runconfig.Spec
	for _, task := range []string{"select", "aggregate", "groupby", "dcube"} {
		for _, disks := range []int{64, 128} {
			for _, scale := range []float64{0.25, 1} {
				sp, err := runconfig.Request{Task: task, Arch: "active", Disks: disks, Scale: scale, ProcMode: "parallel"}.Normalize()
				if err != nil {
					t.Fatal(err)
				}
				specs = append(specs, sp)
			}
		}
	}
	pass := func() {
		for _, sp := range specs {
			if _, err := tasks.RunCtx(context.Background(), sp.Config, sp.TaskID, sp.Dataset, sp.Plan, nil, sp.Mode); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	kb := (after.TotalAlloc - before.TotalAlloc) / 1024
	t.Logf("one shard_scan pass allocated %d kB (budget %d kB)", kb, shardScanAllocBudgetKB)
	if kb > shardScanAllocBudgetKB {
		t.Errorf("one shard_scan pass allocated %d kB, over its %d kB budget", kb, shardScanAllocBudgetKB)
	}
}
