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
	if dc.TupleBytes != 32 || len(dc.CubeDims) != 4 {
		t.Errorf("dcube = %+v, want 32-byte 4-dim tuples", dc)
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

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRand(43)
	same := true
	a2 := NewRand(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds should give different streams")
	}
}

func TestGenRecordsSelectivity(t *testing.T) {
	recs := GenRecords(100_000, 1000, 1)
	hits := 0
	for _, r := range recs {
		if r.Attr < 0.01 {
			hits++
		}
	}
	// 1% selectivity within sampling noise.
	if hits < 800 || hits > 1200 {
		t.Errorf("predicate selected %d of 100k, want ~1000", hits)
	}
	for _, r := range recs[:100] {
		if r.Key >= 1000 {
			t.Fatalf("key %d outside domain", r.Key)
		}
	}
}

func TestGenRecordsUniqueKeys(t *testing.T) {
	recs := GenRecords(100, 0, 1)
	for i, r := range recs {
		if r.Key != uint64(i) {
			t.Fatalf("unique-key mode gave key %d at %d", r.Key, i)
		}
	}
}

func TestGenCubeCardinalities(t *testing.T) {
	n := int64(100_000)
	tuples := GenCube(n, []float64{0.01, 0.001, 0.0001, 0.00001}, 7)
	for d := 0; d < 4; d++ {
		seen := map[uint32]bool{}
		for _, tp := range tuples {
			seen[tp.Dims[d]] = true
		}
		want := float64(n) * []float64{0.01, 0.001, 0.0001, 0.00001}[d]
		if want < 1 {
			want = 1
		}
		got := float64(len(seen))
		if got > want*1.05 {
			t.Errorf("dim %d has %v distinct values, want <= ~%v", d, got, want)
		}
		if got < want*0.5 {
			t.Errorf("dim %d has %v distinct values, want near %v", d, got, want)
		}
	}
}

func TestGenJoinReferentialIntegrity(t *testing.T) {
	r, s := GenJoin(1000, 5000, 3)
	if len(r) != 1000 || len(s) != 5000 {
		t.Fatalf("sizes = %d/%d", len(r), len(s))
	}
	for _, tup := range s {
		if tup.Key >= 1000 {
			t.Fatalf("S key %d has no match in R", tup.Key)
		}
	}
	for i, tup := range r {
		if tup.Key != uint64(i) {
			t.Fatal("R keys must be unique ascending")
		}
	}
}

func TestGenTxnsShape(t *testing.T) {
	txns := GenTxns(10_000, 1000, 4, 11)
	total := 0
	for _, tx := range txns {
		if len(tx) < 1 || len(tx) > 7 {
			t.Fatalf("transaction size %d outside [1,7]", len(tx))
		}
		total += len(tx)
		for _, it := range tx {
			if int64(it) >= 1000 {
				t.Fatalf("item %d outside domain", it)
			}
		}
	}
	avg := float64(total) / 10_000
	if avg < 3.5 || avg > 4.5 {
		t.Errorf("average items per txn = %.2f, want ~4", avg)
	}
	// Skew: item 0-100 should be far more popular than 900-1000.
	lo, hi := 0, 0
	for _, tx := range txns {
		for _, it := range tx {
			if it < 100 {
				lo++
			} else if it >= 900 {
				hi++
			}
		}
	}
	if lo < 4*hi {
		t.Errorf("popularity skew too weak: head=%d tail=%d", lo, hi)
	}
}

func TestGenDeltasMix(t *testing.T) {
	deltas := GenDeltas(10_000, 500, 13)
	ins := 0
	for _, d := range deltas {
		if d.Key >= 500 {
			t.Fatalf("delta key %d outside domain", d.Key)
		}
		if d.Insert {
			ins++
		}
	}
	if ins < 7_500 || ins > 8_500 {
		t.Errorf("%d inserts of 10k, want ~8000", ins)
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

func TestZipfSkew(t *testing.T) {
	recs := GenRecordsZipf(50_000, 1000, 1.0, 7)
	counts := map[uint64]int{}
	for _, r := range recs {
		if r.Key >= 1000 {
			t.Fatalf("key %d outside domain", r.Key)
		}
		counts[r.Key]++
	}
	// Under Zipf(1), key 0 is by far the most popular; the head of the
	// distribution carries a large share.
	if counts[0] < counts[500]*20 {
		t.Errorf("key 0 count %d vs key 500 count %d: skew too weak", counts[0], counts[500])
	}
	head := 0
	for k := uint64(0); k < 10; k++ {
		head += counts[k]
	}
	if float64(head)/50_000 < 0.3 {
		t.Errorf("top-10 keys carry %.1f%% of records, want >30%% under Zipf(1)", float64(head)/500)
	}
}

func TestZipfZeroExponentIsUniformish(t *testing.T) {
	recs := GenRecordsZipf(50_000, 100, 0, 8)
	counts := map[uint64]int{}
	for _, r := range recs {
		counts[r.Key]++
	}
	min, max := 1<<30, 0
	for k := uint64(0); k < 100; k++ {
		c := counts[k]
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if float64(max)/float64(min) > 1.5 {
		t.Errorf("Zipf(0) max/min = %d/%d, want near-uniform", max, min)
	}
}

func TestZipfDeterministic(t *testing.T) {
	a := GenRecordsZipf(1000, 50, 0.9, 3)
	b := GenRecordsZipf(1000, 50, 0.9, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Zipf generator not deterministic")
		}
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
