package tasks

import (
	"howsim/internal/relational"
	"howsim/internal/workload"
)

// cubeShape returns relational.PaperCubeShape shrunk in proportion to
// ds (a scaled-down instance shrinks every hash table by its dataset
// fraction) and the total bytes of its tables.
func cubeShape(ds workload.Dataset) (relational.PipeHashShape, int64) {
	shape := relational.PaperCubeShape()
	if full := workload.ForTask(workload.DataCube).TotalBytes; ds.TotalBytes < full {
		f := float64(ds.TotalBytes) / float64(full)
		shape.LargestTableBytes = int64(float64(shape.LargestTableBytes) * f)
		for i := range shape.OtherTablesBytes {
			shape.OtherTablesBytes[i] = int64(float64(shape.OtherTablesBytes[i]) * f)
		}
	}
	total := shape.LargestTableBytes
	for _, t := range shape.OtherTablesBytes {
		total += t
	}
	return shape, total
}

// mineCounters returns the per-node candidate-counter bytes for ds:
// MineCounterBytes shrunk in proportion to a scaled-down dataset, with
// a 4 KB floor.
func mineCounters(ds workload.Dataset) int64 {
	counters := int64(MineCounterBytes)
	if full := workload.ForTask(workload.DataMine).TotalBytes; ds.TotalBytes < full {
		f := float64(ds.TotalBytes) / float64(full)
		counters = int64(float64(counters) * f)
		if counters < 4096 {
			counters = 4096
		}
	}
	return counters
}
