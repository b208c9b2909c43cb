package tasks

import (
	"context"
	"testing"

	"howsim/internal/arch"
	"howsim/internal/fault"
	"howsim/internal/workload"
)

// scaled returns a small instance of a task's dataset for fast tests.
func scaled(task workload.TaskID, bytes int64) workload.Dataset {
	return workload.ForTask(task).Scaled(bytes)
}

// simulate runs one task through RunCtx with no sink and a context
// that never cancels; a nil plan is a fault-free run.
func simulate(cfg arch.Config, task workload.TaskID, ds workload.Dataset, plan *fault.Plan, mode ExecMode) *Result {
	res, err := RunCtx(context.Background(), cfg, task, ds, plan, nil, mode)
	if err != nil {
		panic(err)
	}
	return res
}

func TestAllTasksAllArchitecturesComplete(t *testing.T) {
	// Smoke test: every task runs to completion (no deadlock, positive
	// elapsed time) on every architecture at a small scale.
	for _, task := range workload.AllTasks() {
		for _, cfg := range []arch.Config{arch.ActiveDisks(4), arch.Cluster(4), arch.SMP(4)} {
			task, cfg := task, cfg
			t.Run(task.String()+"/"+cfg.Name(), func(t *testing.T) {
				res := simulate(cfg, task, scaled(task, 48<<20), nil, ModeEvent)
				if res.Elapsed <= 0 {
					t.Fatalf("elapsed = %v", res.Elapsed)
				}
				if res.Details["media_read_bytes"] == 0 && res.Details["fc_bytes"] == 0 {
					t.Error("no I/O recorded")
				}
			})
		}
	}
}

// TestOddDiskCountsComplete runs every task on every architecture on
// disk counts that leave partitions uneven, at scale 0.004. On these
// counts a Grace join used to split its staged partitions off a sector
// boundary and panic, on Active Disks and on the cluster alike.
func TestOddDiskCountsComplete(t *testing.T) {
	for _, c := range []struct {
		disks []int
		tasks []workload.TaskID
	}{
		{[]int{3, 15}, workload.AllTasks()},
		{[]int{5, 7, 43}, []workload.TaskID{workload.Join}},
	} {
		for _, task := range c.tasks {
			ds, err := workload.ForTaskScaled(task, 0.004)
			if err != nil {
				t.Fatal(err)
			}
			for _, disks := range c.disks {
				for _, cfg := range []arch.Config{arch.ActiveDisks(disks), arch.Cluster(disks), arch.SMP(disks)} {
					t.Run(task.String()+"/"+cfg.Name(), func(t *testing.T) {
						if res := simulate(cfg, task, ds, nil, ModeEvent); res.Elapsed <= 0 {
							t.Fatalf("elapsed = %v", res.Elapsed)
						}
					})
				}
			}
		}
	}
}

func TestActiveSortShuffleVolume(t *testing.T) {
	ds := scaled(workload.Sort, 64<<20)
	res := simulate(arch.ActiveDisks(4), workload.Sort, ds, nil, ModeEvent)
	loop := int64(res.Details["loop_bytes"])
	want := ds.TotalBytes * 3 / 4 // (D-1)/D of the data crosses the loop
	if loop < want*9/10 || loop > want*11/10 {
		t.Errorf("loop moved %d bytes, want ~%d (3/4 of dataset)", loop, want)
	}
	if res.Details["runs"] < 1 {
		t.Error("no runs recorded")
	}
}

func TestActiveSelectLoopTrafficIsTiny(t *testing.T) {
	ds := scaled(workload.Select, 64<<20)
	res := simulate(arch.ActiveDisks(4), workload.Select, ds, nil, ModeEvent)
	loop := int64(res.Details["loop_bytes"])
	// Only ~1% of the data (the selected tuples) crosses the loop.
	if loop > ds.TotalBytes/20 {
		t.Errorf("select moved %d of %d bytes over the loop; filtering should happen at the disks", loop, ds.TotalBytes)
	}
	read := int64(res.Details["media_read_bytes"])
	if read < ds.TotalBytes {
		t.Errorf("media read %d bytes, want at least the dataset %d", read, ds.TotalBytes)
	}
}

func TestSMPAllDataCrossesSharedLoop(t *testing.T) {
	ds := scaled(workload.Select, 64<<20)
	res := simulate(arch.SMP(4), workload.Select, ds, nil, ModeEvent)
	fc := int64(res.Details["fc_bytes"])
	if fc < ds.TotalBytes {
		t.Errorf("SMP moved %d bytes over FC, want >= dataset %d (no filtering at the disks)", fc, ds.TotalBytes)
	}
}

func TestActiveVsSMPSelectGapGrowsWithDisks(t *testing.T) {
	// The architectural headline: Active Disk select scales with disks
	// while SMP select is pinned by the shared interconnect/host path.
	ds := scaled(workload.Select, 96<<20)
	ratio := func(n int) float64 {
		a := simulate(arch.ActiveDisks(n), workload.Select, ds, nil, ModeEvent)
		s := simulate(arch.SMP(n), workload.Select, ds, nil, ModeEvent)
		return s.Elapsed.Seconds() / a.Elapsed.Seconds()
	}
	small := ratio(2)
	large := ratio(8)
	if large <= small {
		t.Errorf("SMP/Active select ratio: %0.2f at 2 disks, %0.2f at 8 disks; gap should grow", small, large)
	}
}

func TestRestrictedCommSlowsShuffleTasks(t *testing.T) {
	ds := scaled(workload.Sort, 64<<20)
	direct := simulate(arch.ActiveDisks(4), workload.Sort, ds, nil, ModeEvent)
	relay := simulate(arch.ActiveDisks(4).WithFrontEndOnly(), workload.Sort, ds, nil, ModeEvent)
	if relay.Elapsed <= direct.Elapsed {
		t.Errorf("front-end-only sort (%v) should be slower than direct (%v)", relay.Elapsed, direct.Elapsed)
	}
	if relay.Details["fe_relay_bytes"] == 0 {
		t.Error("restricted mode should relay bytes through the front-end")
	}
	if direct.Details["fe_relay_bytes"] != 0 {
		t.Error("direct mode must not relay")
	}
}

// TestDesignKnobsCompose: the paper's three Active Disk knobs apply
// together, and the front-end-only one still relays.
func TestDesignKnobsCompose(t *testing.T) {
	cfg := arch.ActiveDisks(8).WithFastIO().WithDiskMemory(64 << 20).WithFrontEndOnly()
	ds, err := workload.ForTaskScaled(workload.Sort, 1.0/256)
	if err != nil {
		t.Fatal(err)
	}
	res := simulate(cfg, workload.Sort, ds, nil, ModeEvent)
	if res.Elapsed <= 0 {
		t.Fatal("composed configuration failed to run")
	}
	if res.Details["fe_relay_bytes"] == 0 {
		t.Error("front-end-only knob not applied")
	}
}

func TestRestrictedCommDoesNotAffectScanTasks(t *testing.T) {
	ds := scaled(workload.Select, 64<<20)
	direct := simulate(arch.ActiveDisks(4), workload.Select, ds, nil, ModeEvent)
	relay := simulate(arch.ActiveDisks(4).WithFrontEndOnly(), workload.Select, ds, nil, ModeEvent)
	diff := relay.Elapsed.Seconds()/direct.Elapsed.Seconds() - 1
	if diff > 0.05 {
		t.Errorf("front-end-only select is %.1f%% slower; scans never use disk-to-disk communication", diff*100)
	}
}

func TestMoreDiskMemoryMeansFewerRuns(t *testing.T) {
	ds := scaled(workload.Sort, 128<<20)
	base := simulate(arch.ActiveDisks(2), workload.Sort, ds, nil, ModeEvent)
	big := simulate(arch.ActiveDisks(2).WithDiskMemory(64<<20), workload.Sort, ds, nil, ModeEvent)
	if big.Details["runs"] >= base.Details["runs"] {
		t.Errorf("64 MB disks made %v runs, 32 MB made %v; more memory must mean fewer runs",
			big.Details["runs"], base.Details["runs"])
	}
	if big.Elapsed > base.Elapsed+base.Elapsed/10 {
		t.Errorf("more memory should not slow sort down (%v vs %v)", big.Elapsed, base.Elapsed)
	}
}

func TestFastIOHelpsSMP(t *testing.T) {
	ds := scaled(workload.Aggregate, 96<<20)
	base := simulate(arch.SMP(8), workload.Aggregate, ds, nil, ModeEvent)
	fast := simulate(arch.SMP(8).WithFastIO(), workload.Aggregate, ds, nil, ModeEvent)
	if fast.Elapsed >= base.Elapsed {
		t.Errorf("400 MB/s SMP aggregate (%v) should beat 200 MB/s (%v): the loop is the bottleneck",
			fast.Elapsed, base.Elapsed)
	}
}

func TestSortBreakdownBucketsPresent(t *testing.T) {
	ds := scaled(workload.Sort, 64<<20)
	res := simulate(arch.ActiveDisks(4), workload.Sort, ds, nil, ModeEvent)
	for _, b := range []string{"P1:Partitioner", "P1:Append", "P1:Sort", "P2:Merge"} {
		if res.Breakdown.Get(b) <= 0 {
			t.Errorf("breakdown bucket %q missing", b)
		}
	}
	// The breakdown's phases should roughly cover the elapsed time.
	total := res.Breakdown.Total()
	if total < res.Elapsed*8/10 || total > res.Elapsed*11/10 {
		t.Errorf("breakdown total %v vs elapsed %v", total, res.Elapsed)
	}
}

func TestCubePassesMatchPlanAcrossMemory(t *testing.T) {
	ds := scaled(workload.DataCube, 64<<20)
	p32 := simulate(arch.ActiveDisks(4), workload.DataCube, ds, nil, ModeEvent)
	p128 := simulate(arch.ActiveDisks(4).WithDiskMemory(128<<20), workload.DataCube, ds, nil, ModeEvent)
	if p128.Details["passes"] > p32.Details["passes"] {
		t.Errorf("more memory increased passes: %v -> %v", p32.Details["passes"], p128.Details["passes"])
	}
	if p128.Details["spill_bytes"] > p32.Details["spill_bytes"] {
		t.Error("more memory increased spill")
	}
}

func TestClusterGroupByHitsFrontEndWall(t *testing.T) {
	// The cluster's group-by result funnels through the front-end's
	// 100 Mb/s link; the Active Disk loop delivers it two orders of
	// magnitude faster.
	ds := scaled(workload.GroupBy, 96<<20)
	cl := simulate(arch.Cluster(8), workload.GroupBy, ds, nil, ModeEvent)
	ad := simulate(arch.ActiveDisks(8), workload.GroupBy, ds, nil, ModeEvent)
	if cl.Elapsed <= ad.Elapsed {
		t.Errorf("cluster group-by (%v) should trail Active Disks (%v)", cl.Elapsed, ad.Elapsed)
	}
}

func TestResultStringIncludesNames(t *testing.T) {
	ds := scaled(workload.Aggregate, 16<<20)
	res := simulate(arch.ActiveDisks(2), workload.Aggregate, ds, nil, ModeEvent)
	s := res.String()
	if s == "" || res.Config.Name() != "active-2" {
		t.Errorf("result string %q / config %q", s, res.Config.Name())
	}
}

func TestDeterministicRepeatability(t *testing.T) {
	ds := scaled(workload.Join, 48<<20)
	a := simulate(arch.ActiveDisks(4), workload.Join, ds, nil, ModeEvent)
	b := simulate(arch.ActiveDisks(4), workload.Join, ds, nil, ModeEvent)
	if a.Elapsed != b.Elapsed {
		t.Errorf("two identical runs differ: %v vs %v", a.Elapsed, b.Elapsed)
	}
}
