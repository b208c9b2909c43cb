package main

import "testing"

// TestChecksWithinTolerance runs every component-model check that the
// command prints and fails on each one outside its tolerance.
func TestChecksWithinTolerance(t *testing.T) {
	cs := checks()
	if len(cs) != 9 {
		t.Errorf("%d checks, want 9", len(cs))
	}
	for _, c := range cs {
		if !c.ok() {
			t.Errorf("%s: measured %.4g %s, expected %.4g %s, tolerance %g%%",
				c.name, c.measured, c.unit, c.expected, c.unit, c.tolerance*100)
		}
	}
}
