package cpu

import (
	"testing"

	"howsim/internal/sim"
)

func TestComputeScalesWithClock(t *testing.T) {
	k := sim.NewKernel()
	slow := New(k, "cyrix200", 200e6)
	fast := New(k, "pii300", 300e6)
	var slowT, fastT sim.Time
	k.Spawn("a", func(p *sim.Proc) {
		t0 := p.Now()
		slow.Compute(p, 200e6) // one second of work at 200 MHz
		slowT = p.Now() - t0
	})
	k.Spawn("b", func(p *sim.Proc) {
		t0 := p.Now()
		fast.Compute(p, 200e6)
		fastT = p.Now() - t0
	})
	k.Run()
	if slowT != sim.Second {
		t.Errorf("200M cycles at 200MHz = %v, want 1s", slowT)
	}
	ratio := float64(slowT) / float64(fastT)
	if ratio < 1.49 || ratio > 1.51 {
		t.Errorf("200/300 MHz time ratio = %.3f, want 1.5", ratio)
	}
}

func TestCPUSerializesSharers(t *testing.T) {
	k := sim.NewKernel()
	c := New(k, "cpu", 100e6)
	var finishes []sim.Time
	for i := 0; i < 3; i++ {
		k.Spawn("w", func(p *sim.Proc) {
			c.Compute(p, 100e6) // 1s each
			finishes = append(finishes, p.Now())
		})
	}
	k.Run()
	want := []sim.Time{sim.Second, 2 * sim.Second, 3 * sim.Second}
	for i := range want {
		if finishes[i] != want[i] {
			t.Errorf("finishes = %v, want %v", finishes, want)
			break
		}
	}
	if c.BusyTime() != 3*sim.Second {
		t.Errorf("BusyTime = %v, want 3s", c.BusyTime())
	}
	if c.Cycles() != 300e6 {
		t.Errorf("Cycles = %d, want 300e6", c.Cycles())
	}
}

func TestZeroWorkIsFree(t *testing.T) {
	k := sim.NewKernel()
	c := New(k, "cpu", 100e6)
	k.Spawn("w", func(p *sim.Proc) {
		c.Compute(p, 0)
		c.Busy(p, 0)
		if p.Now() != 0 {
			t.Errorf("zero work advanced time to %v", p.Now())
		}
	})
	k.Run()
}

func TestCycleTimeRoundsUp(t *testing.T) {
	k := sim.NewKernel()
	c := New(k, "cpu", 3e9) // sub-ns cycles
	if c.CycleTime(1) == 0 {
		t.Error("one cycle must take nonzero time")
	}
}

func TestSlowdownStretch(t *testing.T) {
	k := sim.NewKernel()
	c := New(k, "cpu", 100e6)
	// 2x slowdown for [1s, 2s): work inside the window takes twice the
	// wall time.
	c.SetSlowdowns([]Slowdown{{Window: sim.Window{Start: sim.Second, End: 2 * sim.Second}, Factor: 2}})
	var el sim.Time
	k.Spawn("w", func(p *sim.Proc) {
		t0 := p.Now()
		// 1.5s of work starting at 0: 1s at full rate, then the remaining
		// 0.5s retires at half rate inside the window → 1s wall, ending
		// exactly at the window end. Total 2s.
		c.Compute(p, 150e6)
		el = p.Now() - t0
	})
	k.Run()
	if el != 2*sim.Second {
		t.Errorf("stretched compute = %v, want 2s", el)
	}
	if got := c.SlowdownTime(); got != 500*sim.Millisecond {
		t.Errorf("SlowdownTime = %v, want 500ms", got)
	}
}

func TestSlowdownSpansWindow(t *testing.T) {
	k := sim.NewKernel()
	c := New(k, "cpu", 100e6)
	c.SetSlowdowns([]Slowdown{{Window: sim.Window{Start: sim.Second, End: 2 * sim.Second}, Factor: 4}})
	var el sim.Time
	k.Spawn("w", func(p *sim.Proc) {
		// 2s of work from 0: 1s full rate, the 1s window retires 250ms,
		// then 750ms full rate after the window: 2.75s total.
		t0 := p.Now()
		c.Compute(p, 200e6)
		el = p.Now() - t0
	})
	k.Run()
	if el != 2750*sim.Millisecond {
		t.Errorf("compute across window = %v, want 2.75s", el)
	}
}

func TestSlowdownOutsideWindowIsIdentity(t *testing.T) {
	k := sim.NewKernel()
	c := New(k, "cpu", 100e6)
	c.SetSlowdowns([]Slowdown{{Window: sim.Window{Start: 10 * sim.Second, End: 11 * sim.Second}, Factor: 3}})
	var el sim.Time
	k.Spawn("w", func(p *sim.Proc) {
		t0 := p.Now()
		c.Compute(p, 100e6)
		el = p.Now() - t0
	})
	k.Run()
	if el != sim.Second {
		t.Errorf("compute before window = %v, want 1s", el)
	}
	if c.SlowdownTime() != 0 {
		t.Errorf("SlowdownTime = %v, want 0", c.SlowdownTime())
	}
}

func TestSlowdownMultipleWindows(t *testing.T) {
	k := sim.NewKernel()
	c := New(k, "cpu", 100e6)
	// Deliberately unsorted; SetSlowdowns must order them.
	c.SetSlowdowns([]Slowdown{
		{Window: sim.Window{Start: 3 * sim.Second, End: 4 * sim.Second}, Factor: 2},
		{Window: sim.Window{Start: sim.Second, End: 2 * sim.Second}, Factor: 2},
	})
	var el sim.Time
	k.Spawn("w", func(p *sim.Proc) {
		// 4s of work from 0: two 1s windows each retire 500ms, so wall
		// time is 1+1 (full) + 1+1 (windows) + 1 (tail at full rate) = 5s.
		t0 := p.Now()
		c.Compute(p, 400e6)
		el = p.Now() - t0
	})
	k.Run()
	if el != 5*sim.Second {
		t.Errorf("compute across two windows = %v, want 5s", el)
	}
	if got := c.SlowdownTime(); got != sim.Second {
		t.Errorf("SlowdownTime = %v, want 1s", got)
	}
}
