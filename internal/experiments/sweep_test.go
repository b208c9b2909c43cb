package experiments

import (
	"testing"

	"howsim/internal/runconfig"
)

// TestSweepSharesCells runs, on one sweep, figures that share cells
// (Figures 4 and 5 reuse Figure 1's Active Disk runs) and renders each
// only after all have run. Each render must equal a fresh sweep's
// render of that figure alone: what a driver reads must not depend on
// which driver ran the cell, nor change after the run returned it.
func TestSweepSharesCells(t *testing.T) {
	shared := NewSweep(Quick())
	f1, f4, f5 := RunFigure1(shared), RunFigure4(shared), RunFigure5(shared)
	alone := 0
	for _, c := range []struct {
		name  string
		got   string
		fresh func(*Sweep) string
	}{
		{"fig1", f1.Render(), func(s *Sweep) string { return RunFigure1(s).Render() }},
		{"fig4", f4.Render(), func(s *Sweep) string { return RunFigure4(s).Render() }},
		{"fig5", f5.Render(), func(s *Sweep) string { return RunFigure5(s).Render() }},
	} {
		s := NewSweep(Quick())
		if want := c.fresh(s); c.got != want {
			t.Errorf("%s from a shared sweep differs from a fresh one\n--- shared ---\n%s\n--- fresh ---\n%s", c.name, c.got, want)
		}
		alone += s.Runs()
	}
	if shared.Runs() >= alone {
		t.Errorf("the shared sweep ran %d simulations, the fresh ones %d: no cell was shared", shared.Runs(), alone)
	}
}

// TestSweepRunsEachCellOnce runs every artifact of `experiments -only
// all` on one sweep at Quick scale. The drivers ask for 336 cells, 144
// of them distinct, and each distinct cell must run once under a name
// of its own: a probed sweep writes one trace file per name.
func TestSweepRunsEachCellOnce(t *testing.T) {
	s := NewSweep(Quick())
	RunFigure1(s)
	RunFigure2(s)
	RunFigure3(s)
	RunFigure4(s)
	RunFigure5(s)
	VerifyConclusions(s)
	RunExtensionStraggler(s)
	RunExtensionEmbeddedCPU(s)
	RunExtensionFrontEnd(s)
	RunExtensionFibreSwitch(s)
	if got := s.Runs(); got != 144 {
		t.Errorf("ran %d simulations, want 144", got)
	}
	names := map[string]cell{}
	for c := range s.runs {
		name := c.cfg.Name() + "." + c.task.String()
		if prev, ok := names[name]; ok {
			t.Errorf("%+v and %+v share the trace name %s", prev, c, name)
		}
		names[name] = c
	}
}

// TestValidateRingSpans: 0 keeps the default ring, and a multiplier
// outside [0, runconfig.MaxRingSpans] is refused before any sink is
// allocated.
func TestValidateRingSpans(t *testing.T) {
	for _, c := range []struct {
		spans int
		ok    bool
	}{
		{-1, false},
		{0, true},
		{1, true},
		{runconfig.MaxRingSpans, true},
		{runconfig.MaxRingSpans + 1, false},
		{1 << 40, false},
	} {
		o := Quick()
		o.RingSpans = c.spans
		if err := o.Validate(); (err == nil) != c.ok {
			t.Errorf("RingSpans %d: Validate() = %v, want ok=%v", c.spans, err, c.ok)
		}
	}
}
