// Package tasks implements the paper's eight decision-support tasks as
// simulation programs, one adaptation per architecture: stream-based
// disklet dataflow on Active Disks, MPI message passing with local disks
// on the cluster, and shared self-scheduling queues with striped I/O and
// block transfers on the SMP.
package tasks

import "math"

// Per-tuple processor costs, in cycles. The paper obtained these from
// traces of real implementations on a DEC Alpha 2100 4/275 and replayed
// them with clock scaling; we cannot rerun that hardware, so these are
// calibration constants chosen to reproduce the paper's reported
// compute/I/O balance (e.g. sort being roughly compute/media balanced on
// 16-disk Active Disk farms, select being I/O-bound everywhere). They
// are plausible for late-90s in-order cores: a 100-byte tuple copy is
// ~100-150 cycles, a hash probe ~50-100, a quicksort element
// ~25 comparisons plus swaps.
const (
	// SelectCycles evaluates the predicate and copies matches.
	SelectCycles = 60
	// AggregateCycles evaluates SUM on one field.
	AggregateCycles = 40
	// GroupByCycles hashes the key and updates the group's running
	// aggregate.
	GroupByCycles = 150
	// GroupMergeCycles folds one partial-table entry into the global
	// table (front-end or peer merge).
	GroupMergeCycles = 30
	// GroupEntryBytes is one hash-table entry: key + sum + count.
	GroupEntryBytes = 16
	// GroupResultTupleBytes is one tuple of the group-by result
	// relation delivered to the front-end (grouping key + aggregate).
	GroupResultTupleBytes = 32
	// GroupDedupFactor models the redundancy of partial results
	// streamed from the disks: the same group appears in several disks'
	// partial tables, so the front-end ingests roughly this multiple of
	// the final result volume.
	GroupDedupFactor = 2

	// PartitionCycles hashes a tuple and copies it into a per-
	// destination batch buffer (100-byte sort tuples).
	PartitionCycles = 350
	// AppendCycles copies an arriving tuple into the current run buffer.
	AppendCycles = 250
	// RunSortCycles sorts one tuple within a run (comparisons plus final
	// permutation copy).
	RunSortCycles = 900
	// MergeCyclesBase and MergeCyclesPerLevel cost one tuple of the
	// merge phase: a copy plus heap work growing with log2(fan-in).
	MergeCyclesBase     = 200
	MergeCyclesPerLevel = 30

	// ProjectCycles projects a 64-byte join tuple to 32 bytes and
	// computes its partition.
	ProjectCycles = 120
	// BuildCycles inserts a projected tuple into a join hash table.
	BuildCycles = 180
	// ProbeCycles probes the table with one tuple.
	ProbeCycles = 160

	// CubeCycles aggregates one tuple during one PipeHash scan. A scan
	// pipelines several group-bys, so each tuple updates multiple hash
	// tables (~4 tables at ~150 cycles each).
	CubeCycles = 600

	// MineCycles walks one transaction through the candidate hash tree
	// in one Apriori counting pass.
	MineCycles = 450
	// MineMergeCycles folds one counter during the global reduction.
	MineMergeCycles = 20

	// ViewDeltaCycles applies one delta to a derived relation entry.
	ViewDeltaCycles = 250
	// ViewProbeCycles probes one base tuple against the delta table.
	ViewProbeCycles = 160
	// ViewScanCycles touches one derived tuple during the update scan.
	ViewScanCycles = 80
)

// Structural constants of the workloads (paper-reported or
// calibrated; the planners in internal/relational cover the
// data-dependent ones).
const (
	// MinePasses is the number of full scans Apriori makes over the
	// transactions: a calibrated constant, not derived from a mining run.
	MinePasses = 4
	// MineCounterBytes is the per-node candidate-counter state
	// exchanged after every pass ("the frequency counters needed 5.4 MB
	// per disk").
	MineCounterBytes = 5_662_310 // 5.4 MB
	// MineCounterEntryBytes is one counter (itemset id + count).
	MineCounterEntryBytes = 12

	// CubeIntermediateFraction is the relative size of the data PipeHash
	// re-scans on passes after the first (sorted/partitioned
	// intermediate results rather than the raw relation).
	CubeIntermediateFraction = 0.3

	// JoinOutputFraction is the output volume of the project-join
	// relative to the probe input.
	JoinOutputFraction = 0.25
	// ViewFanout is the derived-update volume produced per byte of
	// repartitioned delta (each delta joins a handful of base rows).
	ViewFanout = 4
)

// expectedDistinct returns the expected number of distinct keys observed
// in n uniform draws from a domain of g keys: g(1 - e^{-n/g}). It sizes
// partial group-by tables on each node.
func expectedDistinct(n, g int64) int64 {
	if g <= 0 || n <= 0 {
		return 0
	}
	d := float64(g) * (1 - math.Exp(-float64(n)/float64(g)))
	if d > float64(n) {
		d = float64(n)
	}
	if d < 1 {
		d = 1
	}
	return int64(d)
}

// log2Ceil returns ceil(log2(n)) with a floor of 1, for merge fan-in
// cost scaling.
func log2Ceil(n int) int64 {
	if n <= 2 {
		return 1
	}
	l := int64(0)
	for v := n - 1; v > 0; v >>= 1 {
		l++
	}
	return l
}
