package tasks

import (
	"testing"

	"howsim/internal/arch"
	"howsim/internal/workload"
)

// Conservation tests: every task's simulated I/O and communication
// volumes must match what its algorithm actually moves. These pin the
// models to first principles rather than to calibrated outcomes.

const consScale = 48 << 20 // dataset size for conservation checks

// within asserts got is within frac of want.
func within(t *testing.T, name string, got, want, frac float64) {
	t.Helper()
	if want == 0 {
		if got != 0 {
			t.Errorf("%s = %g, want 0", name, got)
		}
		return
	}
	if got < want*(1-frac) || got > want*(1+frac) {
		t.Errorf("%s = %g, want %g (+-%.0f%%)", name, got, want, frac*100)
	}
}

func TestConservationActiveScan(t *testing.T) {
	ds := workload.ForTask(workload.Select).Scaled(consScale)
	res := simulate(arch.ActiveDisks(4), workload.Select, ds, nil, ModeEvent)
	total := float64(ds.TotalBytes)
	// The whole relation is read from media exactly once.
	within(t, "media_read", res.Details["media_read_bytes"], total, 0.05)
	// Nothing is written: select's output goes to the front-end.
	within(t, "media_write", res.Details["media_write_bytes"], 0, 0)
	// Loop carries only the selected 1%.
	within(t, "loop_bytes", res.Details["loop_bytes"], total*ds.Selectivity, 0.25)
}

func TestConservationActiveSort(t *testing.T) {
	ds := workload.ForTask(workload.Sort).Scaled(consScale)
	res := simulate(arch.ActiveDisks(4), workload.Sort, ds, nil, ModeEvent)
	total := float64(ds.TotalBytes)
	// Two-phase sort: read input + read runs; write runs + write output.
	within(t, "media_read", res.Details["media_read_bytes"], 2*total, 0.08)
	within(t, "media_write", res.Details["media_write_bytes"], 2*total, 0.08)
	// (D-1)/D of every tuple crosses the loop exactly once.
	within(t, "loop_bytes", res.Details["loop_bytes"], total*3/4, 0.08)
}

func TestConservationActiveJoin(t *testing.T) {
	ds := workload.ForTask(workload.Join).Scaled(2 * consScale)
	res := simulate(arch.ActiveDisks(4), workload.Join, ds, nil, ModeEvent)
	total := float64(ds.TotalBytes)
	proj := total * float64(ds.ProjectedTupleBytes) / float64(ds.TupleBytes)
	// Read both relations once, then re-read the staged projected
	// partitions.
	within(t, "media_read", res.Details["media_read_bytes"], total+proj, 0.1)
	// Write the staged partitions plus the join output (a fraction of
	// the projected probe side).
	out := proj / 2 * JoinOutputFraction
	within(t, "media_write", res.Details["media_write_bytes"], proj+out, 0.15)
	// The projected tuples shuffle once: (D-1)/D of them remote.
	within(t, "loop_bytes", res.Details["loop_bytes"], proj*3/4, 0.1)
}

func TestConservationActiveMine(t *testing.T) {
	ds := workload.ForTask(workload.DataMine).Scaled(consScale)
	res := simulate(arch.ActiveDisks(4), workload.DataMine, ds, nil, ModeEvent)
	total := float64(ds.TotalBytes)
	// One full scan per Apriori pass, nothing written.
	within(t, "media_read", res.Details["media_read_bytes"], MinePasses*total, 0.05)
	within(t, "media_write", res.Details["media_write_bytes"], 0, 0)
	// Counters: each pass every disk sends its counter set to the FE,
	// and all passes but the last broadcast candidates back.
	counters := res.Details["counter_bytes"]
	wantLoop := counters * 4 * (MinePasses + MinePasses - 1)
	within(t, "loop_bytes", res.Details["loop_bytes"], wantLoop, 0.1)
}

func TestConservationActiveCube(t *testing.T) {
	ds := workload.ForTask(workload.DataCube).Scaled(consScale)
	res := simulate(arch.ActiveDisks(4), workload.DataCube, ds, nil, ModeEvent)
	total := float64(ds.TotalBytes)
	passes := res.Details["passes"]
	inter := total * CubeIntermediateFraction
	within(t, "media_read", res.Details["media_read_bytes"], total+(passes-1)*inter, 0.1)
	// Intermediate written once, plus the finished group-by tables
	// (scaled plan shape: (695+2300) MB scaled by dataset fraction).
	f := float64(ds.TotalBytes) / float64(workload.ForTask(workload.DataCube).TotalBytes)
	tables := f * float64((695+2300)<<20)
	within(t, "media_write", res.Details["media_write_bytes"], inter+tables, 0.15)
}

func TestConservationActiveMView(t *testing.T) {
	ds := workload.ForTask(workload.MView).Scaled(consScale)
	res := simulate(arch.ActiveDisks(4), workload.MView, ds, nil, ModeEvent)
	base := float64(baseBytes(ds))
	// Per-disk partitions are rounded up to whole I/O chunks; compute
	// the expectation from the same rounding.
	deltas := float64(perNodeBytes(ds.DeltaBytes, 4) * 4)
	derived := float64(ds.DerivedBytes)
	// Read deltas + base scan + derived; write updated derived.
	within(t, "media_read", res.Details["media_read_bytes"], deltas+base+derived, 0.15)
	within(t, "media_write", res.Details["media_write_bytes"], derived, 0.15)
	// Shuffle: deltas once plus the fanned-out derived updates.
	wantLoop := (deltas + deltas*ViewFanout) * 3 / 4
	within(t, "loop_bytes", res.Details["loop_bytes"], wantLoop, 0.2)
}

func TestConservationSMPReadsEverythingOverFC(t *testing.T) {
	for _, task := range []workload.TaskID{workload.Select, workload.GroupBy, workload.DataMine} {
		ds := workload.ForTask(task).Scaled(consScale)
		res := simulate(arch.SMP(4), task, ds, nil, ModeEvent)
		total := float64(ds.TotalBytes)
		passes := 1.0
		if task == workload.DataMine {
			passes = MinePasses
		}
		if fc := res.Details["fc_bytes"]; fc < passes*total*0.95 {
			t.Errorf("%v: FC moved %g bytes, want >= %g (every byte crosses the shared loop)",
				task, fc, passes*total)
		}
	}
}

func TestConservationSMPSortFourCrossings(t *testing.T) {
	ds := workload.ForTask(workload.Sort).Scaled(consScale)
	res := simulate(arch.SMP(4), workload.Sort, ds, nil, ModeEvent)
	total := float64(ds.TotalBytes)
	// "the entire dataset for sort passes over the I/O interconnect four
	// times for SMP configurations" (read, write runs, read runs, write
	// output).
	within(t, "fc_bytes", res.Details["fc_bytes"], 4*total, 0.08)
}

func TestConservationClusterShuffle(t *testing.T) {
	ds := workload.ForTask(workload.Sort).Scaled(consScale)
	res := simulate(arch.Cluster(4), workload.Sort, ds, nil, ModeEvent)
	total := float64(ds.TotalBytes)
	// (D-1)/D of the dataset crosses the network once (plus small done
	// messages and collective chatter).
	within(t, "net_bytes", res.Details["net_bytes"], total*3/4, 0.1)
	within(t, "media_read", res.Details["media_read_bytes"], 2*total, 0.1)
	within(t, "media_write", res.Details["media_write_bytes"], 2*total, 0.1)
}

func TestConservationClusterSelectStaysLocal(t *testing.T) {
	ds := workload.ForTask(workload.Select).Scaled(consScale)
	res := simulate(arch.Cluster(4), workload.Select, ds, nil, ModeEvent)
	// The tuned cluster select writes matches locally; almost nothing
	// crosses the network.
	if res.Details["net_bytes"] > float64(ds.TotalBytes)/100 {
		t.Errorf("cluster select moved %g bytes over the network", res.Details["net_bytes"])
	}
	within(t, "media_write", res.Details["media_write_bytes"],
		float64(ds.TotalBytes)*ds.Selectivity, 0.3)
}

func TestConservationIndependentOfDiskCount(t *testing.T) {
	// Total media traffic is a property of the algorithm, not the farm
	// size.
	ds := workload.ForTask(workload.Sort).Scaled(consScale)
	r4 := simulate(arch.ActiveDisks(4), workload.Sort, ds, nil, ModeEvent)
	r8 := simulate(arch.ActiveDisks(8), workload.Sort, ds, nil, ModeEvent)
	within(t, "media_read(4 vs 8)", r4.Details["media_read_bytes"],
		r8.Details["media_read_bytes"], 0.1)
}
