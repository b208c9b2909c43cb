// Package workload describes the eight decision-support tasks' datasets
// (the paper's Table 2) and their scaled-down instances. The
// descriptions parameterize the simulation: it models data volumes and
// cardinalities, so no tuples are generated.
package workload

import "fmt"

// TaskID identifies one of the eight decision-support tasks.
type TaskID int

// The workload suite, in the paper's order.
const (
	Select TaskID = iota
	Aggregate
	GroupBy
	Sort
	DataCube
	Join
	DataMine
	MView
	numTasks
)

// AllTasks returns the suite in presentation order (the order of the
// paper's figures: group-by, select, sort, join, cube, mine, view is
// figure-specific; this is declaration order).
func AllTasks() []TaskID {
	return []TaskID{Select, Aggregate, GroupBy, Sort, DataCube, Join, DataMine, MView}
}

// String returns the task's short name as used in the paper's figures.
func (t TaskID) String() string {
	switch t {
	case Select:
		return "select"
	case Aggregate:
		return "aggregate"
	case GroupBy:
		return "groupby"
	case Sort:
		return "sort"
	case DataCube:
		return "dcube"
	case Join:
		return "join"
	case DataMine:
		return "dmine"
	case MView:
		return "mview"
	default:
		return fmt.Sprintf("task(%d)", int(t))
	}
}

// ParseTask maps a short name back to a TaskID.
func ParseTask(name string) (TaskID, error) {
	for _, t := range AllTasks() {
		if t.String() == name {
			return t, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown task %q", name)
}

// Dataset captures Table 2: the salient features of each task's input.
type Dataset struct {
	Task       TaskID
	TotalBytes int64 // primary input size
	TupleBytes int   // input tuple size
	Tuples     int64

	// Selectivity is the fraction of tuples a select emits.
	Selectivity float64
	// DistinctGroups is the number of distinct group-by keys.
	DistinctGroups int64
	// KeyBytes is the sort/join key width.
	KeyBytes int
	// ProjectedTupleBytes is the tuple width after projection (join).
	ProjectedTupleBytes int
	// CubeDims holds, per dimension, the fraction of tuples carrying
	// distinct values (the paper's 1%, 0.1%, 0.01%, 0.001%).
	CubeDims [4]float64
	// Transactions / Items / AvgItemsPerTxn / MinSupport describe the
	// association-mining input.
	Transactions   int64
	Items          int64
	AvgItemsPerTxn int
	MinSupport     float64
	// DerivedBytes and DeltaBytes describe materialized-view maintenance:
	// the stored derived relations and the update batch applied to them.
	DerivedBytes int64
	DeltaBytes   int64
}

const (
	gib = int64(1) << 30
	mib = int64(1) << 20
)

// ForTask returns the paper-scale dataset description for a task.
func ForTask(t TaskID) Dataset {
	switch t {
	case Select:
		return Dataset{Task: t, TotalBytes: 16 * gib, TupleBytes: 64,
			Tuples: 268_435_456, Selectivity: 0.01}
	case Aggregate:
		return Dataset{Task: t, TotalBytes: 16 * gib, TupleBytes: 64,
			Tuples: 268_435_456}
	case GroupBy:
		return Dataset{Task: t, TotalBytes: 16 * gib, TupleBytes: 64,
			Tuples: 268_435_456, DistinctGroups: 13_500_000}
	case Sort:
		return Dataset{Task: t, TotalBytes: 16 * gib, TupleBytes: 100,
			Tuples: 171_798_691, KeyBytes: 10}
	case DataCube:
		return Dataset{Task: t, TotalBytes: 16 * gib, TupleBytes: 32,
			Tuples: 536_870_912, CubeDims: [4]float64{0.01, 0.001, 0.0001, 0.00001}}
	case Join:
		return Dataset{Task: t, TotalBytes: 32 * gib, TupleBytes: 64,
			Tuples: 536_870_912, KeyBytes: 4, ProjectedTupleBytes: 32}
	case DataMine:
		return Dataset{Task: t, TotalBytes: 16 * gib, TupleBytes: 53,
			Tuples: 300_000_000, Transactions: 300_000_000, Items: 1_000_000,
			AvgItemsPerTxn: 4, MinSupport: 0.001}
	case MView:
		return Dataset{Task: t, TotalBytes: 15 * gib, TupleBytes: 32,
			Tuples: (15 * gib) / 32, DerivedBytes: 4 * gib, DeltaBytes: 1 * gib}
	default:
		panic(fmt.Sprintf("workload: no dataset for task %d", int(t)))
	}
}

// ForTaskScaled returns t's Table 2 dataset shrunk to the fraction
// scale of its size; a scale of 1 or more is the full dataset. Every
// entry point that takes a scale factor turns it into a dataset here.
// A scale whose byte count rounds to zero (zero, negative, NaN or just
// tiny) is an error: Scaled treats a non-positive size as "unscaled",
// so passing it on would silently run the full dataset.
func ForTaskScaled(t TaskID, scale float64) (Dataset, error) {
	ds := ForTask(t)
	if scale >= 1 {
		return ds, nil
	}
	n := int64(0)
	if scale > 0 { // false for NaN
		n = int64(float64(ds.TotalBytes) * scale)
	}
	if n < 1 {
		return ds, fmt.Errorf("workload: scale %g shrinks the %s dataset below one byte", scale, t)
	}
	return ds.Scaled(n), nil
}

// Scaled returns a copy of d shrunk to approximately totalBytes, keeping
// tuple widths and relative cardinalities, so a megabyte-scale run in a
// test or a quick -scale pass keeps the full-scale distribution shape.
func (d Dataset) Scaled(totalBytes int64) Dataset {
	if totalBytes <= 0 || totalBytes >= d.TotalBytes {
		return d
	}
	f := float64(totalBytes) / float64(d.TotalBytes)
	scale := func(n int64) int64 {
		s := int64(float64(n) * f)
		if n > 0 && s < 1 {
			s = 1
		}
		return s
	}
	d.TotalBytes = totalBytes
	d.Tuples = scale(d.Tuples)
	d.DistinctGroups = scale(d.DistinctGroups)
	d.Transactions = scale(d.Transactions)
	d.Items = scale(d.Items)
	d.DerivedBytes = scale(d.DerivedBytes)
	d.DeltaBytes = scale(d.DeltaBytes)
	return d
}
