package workload

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTable2Datasets(t *testing.T) {
	// Verify the salient features of Table 2.
	sel := ForTask(Select)
	if sel.Tuples != 268_435_456 || sel.TupleBytes != 64 || sel.Selectivity != 0.01 {
		t.Errorf("select dataset = %+v, want 268M 64-byte tuples at 1%%", sel)
	}
	if sel.TotalBytes != 16<<30 {
		t.Errorf("select dataset size = %d, want 16 GB", sel.TotalBytes)
	}
	gb := ForTask(GroupBy)
	if gb.DistinctGroups != 13_500_000 {
		t.Errorf("groupby distinct = %d, want 13.5M", gb.DistinctGroups)
	}
	srt := ForTask(Sort)
	if srt.TupleBytes != 100 || srt.KeyBytes != 10 {
		t.Errorf("sort tuples = %d bytes with %d-byte keys, want 100/10", srt.TupleBytes, srt.KeyBytes)
	}
	dc := ForTask(DataCube)
	if dc.TupleBytes != 32 || dc.CubeDims != [4]float64{0.01, 0.001, 0.0001, 0.00001} {
		t.Errorf("dcube = %+v, want 32-byte tuples over 4 dimensions of 1%%, 0.1%%, 0.01%% and 0.001%% distinct values", dc)
	}
	jn := ForTask(Join)
	if jn.TotalBytes != 32<<30 || jn.KeyBytes != 4 || jn.ProjectedTupleBytes != 32 {
		t.Errorf("join = %+v, want 32 GB, 4-byte keys, 32-byte projection", jn)
	}
	dm := ForTask(DataMine)
	if dm.Transactions != 300_000_000 || dm.Items != 1_000_000 || dm.MinSupport != 0.001 {
		t.Errorf("dmine = %+v, want 300M txns, 1M items, 0.1%% minsup", dm)
	}
	mv := ForTask(MView)
	if mv.TotalBytes != 15<<30 || mv.DerivedBytes != 4<<30 || mv.DeltaBytes != 1<<30 {
		t.Errorf("mview = %+v, want 15 GB with 4 GB derived and 1 GB deltas", mv)
	}
}

func TestTaskNamesRoundTrip(t *testing.T) {
	for _, task := range AllTasks() {
		got, err := ParseTask(task.String())
		if err != nil || got != task {
			t.Errorf("ParseTask(%q) = (%v, %v)", task.String(), got, err)
		}
	}
	if _, err := ParseTask("nonsense"); err == nil {
		t.Error("ParseTask of unknown name should error")
	}
}

func TestScaledPreservesShape(t *testing.T) {
	d := ForTask(GroupBy).Scaled(16 << 20) // 16 MB instance
	if d.TotalBytes != 16<<20 {
		t.Errorf("scaled TotalBytes = %d", d.TotalBytes)
	}
	if d.TupleBytes != 64 {
		t.Error("scaling must not change tuple width")
	}
	wantTuples := int64(268_435_456 / 1024)
	if d.Tuples != wantTuples {
		t.Errorf("scaled tuples = %d, want %d", d.Tuples, wantTuples)
	}
	// Distinct groups scale proportionally.
	if d.DistinctGroups < 13_000 || d.DistinctGroups > 13_500 {
		t.Errorf("scaled distinct = %d, want ~13.2k", d.DistinctGroups)
	}
}

func TestScaledNoOpWhenLarger(t *testing.T) {
	d := ForTask(Select)
	if got := d.Scaled(d.TotalBytes * 2); got.Tuples != d.Tuples {
		t.Error("scaling up should be a no-op")
	}
}

func TestScaledMonotoneProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := int64(a)+1, int64(b)+1
		if x > y {
			x, y = y, x
		}
		d := ForTask(Sort)
		dx, dy := d.Scaled(x*mib), d.Scaled(y*mib)
		return dx.Tuples <= dy.Tuples
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestForTaskScaled(t *testing.T) {
	full := ForTask(Sort)
	for _, scale := range []float64{1, 1.5} {
		if ds, err := ForTaskScaled(Sort, scale); err != nil || !reflect.DeepEqual(ds, full) {
			t.Errorf("scale %g: got (%+v, %v), want the full dataset", scale, ds, err)
		}
	}
	ds, err := ForTaskScaled(Sort, 0.25)
	if err != nil || !reflect.DeepEqual(ds, full.Scaled(full.TotalBytes/4)) {
		t.Errorf("scale 0.25: got (%+v, %v), want a quarter of the dataset", ds, err)
	}
	// Each of these rounds the byte count to zero; Scaled would treat
	// that as "unscaled" and run the full dataset.
	for _, scale := range []float64{1e-300, 0, -0.5, math.NaN()} {
		if _, err := ForTaskScaled(Sort, scale); err == nil || !strings.Contains(err.Error(), "below one byte") {
			t.Errorf("scale %g: err = %v, want a below-one-byte error", scale, err)
		}
	}
}
