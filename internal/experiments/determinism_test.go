package experiments

import (
	"runtime"
	"testing"
)

// TestDeterministicAcrossParallelism guards the claim in Sweep.run's
// doc comment: every simulation owns its kernel, so every cell's
// elapsed time and the rendered artifacts must be identical whether a
// sweep runs one simulation at a time or many at once. A divergence
// here means shared mutable state leaked into the simulation path
// (e.g. a global RNG or a kernel reused across goroutines).
func TestDeterministicAcrossParallelism(t *testing.T) {
	serial := Quick()
	serial.Parallel = 1
	wide := Quick()
	wide.Parallel = max(8, runtime.GOMAXPROCS(0))
	a, b := NewSweep(serial), NewSweep(wide)

	renders := []struct {
		name         string
		serial, wide string
	}{
		{"fig1", RunFigure1(a).Render(), RunFigure1(b).Render()},
		{"fig3", RunFigure3(a).Render(), RunFigure3(b).Render()},
		{"fig5", RunFigure5(a).Render(), RunFigure5(b).Render()},
	}
	for _, r := range renders {
		if r.serial != r.wide {
			t.Errorf("%s: rendered figure differs between Parallel=1 and Parallel=%d\n--- serial ---\n%s\n--- parallel ---\n%s",
				r.name, wide.Parallel, r.serial, r.wide)
		}
	}
	for c, r := range a.runs {
		if x, y := r.res.Elapsed, b.runs[c].res.Elapsed; x != y {
			t.Errorf("%v on %s: serial %v vs parallel %v", c.task, c.cfg.Name(), x, y)
		}
	}
}
