package tasks

import (
	"testing"

	"howsim/internal/arch"
	"howsim/internal/workload"
)

// Variant coverage: every design knob composed with a representative
// task must run to completion and move in the expected direction.

func TestFibreSwitchHelpsShuffleTask(t *testing.T) {
	ds := scaled(workload.Sort, 96<<20)
	base := simulate(arch.ActiveDisks(8), workload.Sort, ds, nil, ModeEvent)
	fsw := simulate(arch.ActiveDisks(8).WithFibreSwitch(4), workload.Sort, ds, nil, ModeEvent)
	if fsw.Details["loops"] != 4 {
		t.Fatalf("loops = %v, want 4", fsw.Details["loops"])
	}
	// At this small scale the loop is not saturated, so the switch only
	// has its double-crossing cost to show; it must stay within a few
	// percent (the win appears when the loop binds — see EXPERIMENTS.md).
	if fsw.Elapsed > base.Elapsed+base.Elapsed/20 {
		t.Errorf("FibreSwitch sort (%v) should be within 5%% of single loop (%v)", fsw.Elapsed, base.Elapsed)
	}
	// Cross-loop traffic is double-counted on the loops, so loop bytes
	// exceed the single-loop case.
	if fsw.Details["loop_bytes"] <= base.Details["loop_bytes"] {
		t.Error("switched fabric should record src+dst loop crossings")
	}
}

func TestFastDiskVariantOnAllArchitectures(t *testing.T) {
	ds := scaled(workload.Select, 48<<20)
	for _, cfg := range []arch.Config{arch.ActiveDisks(4), arch.Cluster(4), arch.SMP(4)} {
		base := simulate(cfg, workload.Select, ds, nil, ModeEvent)
		fast := simulate(cfg.WithFastDisk(), workload.Select, ds, nil, ModeEvent)
		if cfg.Kind == arch.KindSMP {
			// SMP select is loop-bound; faster media cannot help much,
			// but must not hurt.
			if fast.Elapsed > base.Elapsed+base.Elapsed/20 {
				t.Errorf("%s: Fast Disk slowed select (%v -> %v)", cfg.Name(), base.Elapsed, fast.Elapsed)
			}
			continue
		}
		if fast.Elapsed >= base.Elapsed {
			t.Errorf("%s: Fast Disk select (%v) should beat baseline (%v)", cfg.Name(), fast.Elapsed, base.Elapsed)
		}
	}
}

func TestDegradedDiskSlowsStaticPartitioning(t *testing.T) {
	ds := scaled(workload.Select, 48<<20)
	base := simulate(arch.ActiveDisks(4), workload.Select, ds, nil, ModeEvent)
	hurt := simulate(arch.ActiveDisks(4).WithDegradedDisks(1, 0.5), workload.Select, ds, nil, ModeEvent)
	ratio := hurt.Elapsed.Seconds() / base.Elapsed.Seconds()
	if ratio < 1.3 {
		t.Errorf("one half-speed disk in four slowed select only %.2fx; the straggler should bind", ratio)
	}
}

func TestDegradedDiskHurtsSMPLessThanActive(t *testing.T) {
	// At small farms every stripe touches the slow disk, so the SMP is
	// not immune — but dynamic self-scheduling still absorbs more of
	// the straggler than static partitioning does. (At 128 disks the
	// full-scale study shows the SMP absorbing it completely; see
	// EXPERIMENTS.md.)
	ds := scaled(workload.Select, 96<<20)
	ratio := func(cfg arch.Config) float64 {
		base := simulate(cfg, workload.Select, ds, nil, ModeEvent)
		hurt := simulate(cfg.WithDegradedDisks(1, 0.5), workload.Select, ds, nil, ModeEvent)
		return hurt.Elapsed.Seconds() / base.Elapsed.Seconds()
	}
	smp := ratio(arch.SMP(8))
	active := ratio(arch.ActiveDisks(8))
	if smp >= active {
		t.Errorf("straggler hurt SMP %.2fx vs Active %.2fx; self-scheduling should absorb more", smp, active)
	}
}

func TestEmbeddedCPUHelpsComputeBoundTask(t *testing.T) {
	ds := scaled(workload.DataCube, 96<<20)
	base := simulate(arch.ActiveDisks(4), workload.DataCube, ds, nil, ModeEvent)
	fast := simulate(arch.ActiveDisks(4).WithEmbeddedCPU(600e6), workload.DataCube, ds, nil, ModeEvent)
	if fast.Elapsed >= base.Elapsed {
		t.Errorf("600 MHz embedded dcube (%v) should beat 200 MHz (%v)", fast.Elapsed, base.Elapsed)
	}
}

func TestJoinPhaseDetailsRecorded(t *testing.T) {
	ds := scaled(workload.Join, 96<<20)
	res := simulate(arch.ActiveDisks(4), workload.Join, ds, nil, ModeEvent)
	p1 := res.Details["p1_seconds"]
	p2 := res.Details["p2_seconds"]
	if p1 <= 0 || p2 <= 0 {
		t.Fatalf("phase details missing: p1=%v p2=%v", p1, p2)
	}
	if p1+p2 >= res.Elapsed.Seconds() {
		t.Errorf("p1+p2 = %.1fs exceeds elapsed %.1fs (no room for the local join)", p1+p2, res.Elapsed.Seconds())
	}
}

func TestMinePassDetailsMonotone(t *testing.T) {
	ds := scaled(workload.DataMine, 48<<20)
	res := simulate(arch.ActiveDisks(4), workload.DataMine, ds, nil, ModeEvent)
	var prev float64
	for pass := 1; pass <= MinePasses; pass++ {
		v := res.Details[passKey(pass)]
		if v <= prev {
			t.Fatalf("pass %d end %.2fs not after pass %d end %.2fs", pass, v, pass-1, prev)
		}
		prev = v
	}
}

func TestSMPSortBreakdownRecorded(t *testing.T) {
	ds := scaled(workload.Sort, 96<<20)
	res := simulate(arch.SMP(4), workload.Sort, ds, nil, ModeEvent)
	for _, b := range []string{"P1:Partitioner", "P1:Sort", "P2:Merge"} {
		if res.Breakdown.Get(b) <= 0 {
			t.Errorf("SMP sort breakdown missing %q", b)
		}
	}
	if res.Details["p1_seconds"] <= 0 || res.Details["p2_seconds"] <= 0 {
		t.Error("SMP sort phase details missing")
	}
	total := res.Breakdown.Total()
	if total < res.Elapsed*7/10 || total > res.Elapsed*11/10 {
		t.Errorf("breakdown total %v vs elapsed %v", total, res.Elapsed)
	}
}
