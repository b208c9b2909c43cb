// Package relational holds the planners that give the simulator its
// structural parameters (sort runs, Grace partitions, PipeHash passes),
// which the paper took from traces of the real algorithms. They are
// computed here from each task's data volume and memory.
package relational

// SortPlan is the run structure of an external merge sort. The paper's
// example: a 32 MB Active Disk sorting 1 GB uses 40 runs of 25 MB; at
// 64 MB it uses 20 runs of 50 MB.
type SortPlan struct {
	Runs int // sorted runs of at most memoryBytes each
}

// PlanExternalSort returns the runs formed when sorting dataBytes with
// memoryBytes of run-formation memory.
func PlanExternalSort(dataBytes, memoryBytes int64) SortPlan {
	if memoryBytes <= 0 || dataBytes <= memoryBytes {
		return SortPlan{Runs: 1}
	}
	return SortPlan{Runs: int((dataBytes + memoryBytes - 1) / memoryBytes)}
}

// JoinPlan is the structural shape of a Grace-style hash join.
type JoinPlan struct {
	Partitions int // hash partitions so each build partition fits memory
}

// PlanGraceJoin returns the partition fan-out needed for the build side
// to fit in memory partition-by-partition. One partition means a pure
// in-memory hash join.
func PlanGraceJoin(buildBytes, memoryBytes int64) JoinPlan {
	p := JoinPlan{Partitions: 1}
	if memoryBytes > 0 && buildBytes > memoryBytes {
		p.Partitions = int((buildBytes + memoryBytes - 1) / memoryBytes)
	}
	return p
}

// PipeHashShape carries the structural constants of the paper's dcube
// workload: 15 group-bys over the 4-d, 536M-tuple dataset. The paper
// reports the largest group-by's hash table at 695 MB and that the other
// 14 group-bys merge into a single scan given 2.3 GB at the disks. The
// per-table split of that 2.3 GB is not published; the descending sizes
// below are calibrated to sum to it.
type PipeHashShape struct {
	LargestTableBytes int64
	OtherTablesBytes  []int64 // descending
}

// PaperCubeShape returns the Table 2 dcube plan constants.
func PaperCubeShape() PipeHashShape {
	mb := int64(1) << 20
	others := []int64{600, 400, 300, 250, 200, 150, 120, 90, 70, 50, 30, 20, 12, 8}
	sizes := make([]int64, len(others))
	for i, s := range others {
		sizes[i] = s * mb
	}
	return PipeHashShape{LargestTableBytes: 695 * mb, OtherTablesBytes: sizes}
}

// CubePlan is the pass/spill structure PipeHash produces for a machine
// configuration. Hash tables are partitioned across the disks, so each
// disk holds a 1/disks share of every table in the active pipeline.
type CubePlan struct {
	// Passes is the number of scans: one for the largest group-by plus
	// one per bin of the remaining group-bys.
	Passes int
	// SpillBytes is the volume of partially computed hash tables
	// forwarded to the front-end host because the largest group-by's
	// share exceeds per-disk memory (zero when it fits).
	SpillBytes int64
}

// Plan bin-packs the group-by hash tables into scans given disks drives
// with perDiskBytes of memory each, reserving reserveBytes per disk for
// I/O and communication buffers.
func (s PipeHashShape) Plan(disks int, perDiskBytes, reserveBytes int64) CubePlan {
	capacity := perDiskBytes - reserveBytes
	if capacity < 1 {
		capacity = 1
	}
	var plan CubePlan
	plan.Passes = 1 // the largest group-by's scan
	if s.LargestTableBytes/int64(disks) > capacity {
		plan.SpillBytes = s.LargestTableBytes
	}
	// First-fit decreasing over the remaining tables' per-disk shares.
	var bins []int64
	for _, t := range s.OtherTablesBytes {
		share := t / int64(disks)
		placed := false
		for i := range bins {
			if bins[i]+share <= capacity {
				bins[i] += share
				placed = true
				break
			}
		}
		if !placed {
			bins = append(bins, share)
		}
	}
	plan.Passes += len(bins)
	return plan
}
