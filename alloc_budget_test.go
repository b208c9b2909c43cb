//go:build !race

package repro_test

import (
	"runtime"
	"testing"

	"howsim/internal/experiments"
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
