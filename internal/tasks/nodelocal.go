package tasks

// Node-local phases: the parts of a task body that drive only one
// shared-nothing node's own disk and processor, written once for Active
// Disks and cluster nodes. The architectures differ in how nodes talk
// to each other, not in what a node does with its own data.

import "howsim/internal/sim"

// node is a shared-nothing node's own disk and processor: an Active
// Disk (its media and embedded CPU) or a cluster node (its local disk
// and host CPU).
type node interface {
	ReadLocal(p *sim.Proc, offset, length int64) error
	WriteLocal(p *sim.Proc, offset, length int64) error
	Compute(p *sim.Proc, cycles int64)
}

// regions places a node's scratch data: the runs, partitions or
// intermediate results a third of the way into a drive of capEach
// bytes, and the output two thirds in.
func regions(capEach int64) (scratch, out int64) {
	return alignSector(capEach / 3), alignSector(2 * capEach / 3)
}

// scanLocal reads [base, base+total) of nd's disk in I/O chunks,
// charging cycles per tuple of tupleBytes.
func scanLocal(p *sim.Proc, nd node, base, total int64, tupleBytes int, cycles int64) {
	chunksOf(total, func(off, n int64) {
		nd.ReadLocal(p, base+off, n)
		nd.Compute(p, tuplesIn(n, tupleBytes)*cycles)
	})
}

// sortRuns is one node's run formation in the external sort: bytes
// fill a run buffer of size bytes, and each run is sorted and written
// to the run region in turn.
type sortRuns struct {
	region     int64 // where the runs start on the node's disk
	size       int64 // bytes of a full run, sector-aligned
	tupleBytes int
	fill       int64   // bytes in the run buffer
	written    int64   // bytes of the runs written so far
	starts     []int64 // where each run written starts, in order
	sizes      []int64 // and its size
	cycles     int64   // sort cycles charged
}

// spillFull sorts and writes every full run the buffer holds.
func (r *sortRuns) spillFull(p *sim.Proc, nd node) {
	for r.fill >= r.size {
		r.spill(p, nd, r.size)
	}
}

// spillTail sorts and writes the partial run left in the buffer.
func (r *sortRuns) spillTail(p *sim.Proc, nd node) {
	if r.fill > 0 {
		r.spill(p, nd, r.fill)
	}
}

// spill sorts n bytes of the buffer and writes them as the next run.
func (r *sortRuns) spill(p *sim.Proc, nd node, n int64) {
	c := tuplesIn(n, r.tupleBytes) * RunSortCycles
	nd.Compute(p, c)
	r.cycles += c
	sz := alignSector(n)
	nd.WriteLocal(p, r.region+r.written, sz)
	r.starts = append(r.starts, r.region+r.written)
	r.written += sz
	r.sizes = append(r.sizes, sz)
	r.fill -= n
}

// merge reads the runs round-robin (512 KB per run visit, seeking
// between runs as a real merge does), charges the merge CPU cost,
// writes the sorted output sequentially from outRegion, and returns the
// merge cycles charged.
func (r *sortRuns) merge(p *sim.Proc, nd node, outRegion int64) (cycles int64) {
	starts, sizes := r.starts, r.sizes
	if len(sizes) == 0 {
		return 0
	}
	const visit = 512 << 10
	var total int64
	for _, sz := range sizes {
		total += sz
	}
	consumed := make([]int64, len(sizes))
	lvl := log2Ceil(len(sizes))
	var outPend, outOff, readTotal int64
	i := 0
	for readTotal < total {
		// Find the next run with data, round-robin.
		for consumed[i] >= sizes[i] {
			i = (i + 1) % len(sizes)
		}
		n := int64(visit)
		if rem := sizes[i] - consumed[i]; rem < n {
			n = rem
		}
		nd.ReadLocal(p, starts[i]+consumed[i], n)
		consumed[i] += n
		readTotal += n
		c := tuplesIn(n, r.tupleBytes) * (MergeCyclesBase + MergeCyclesPerLevel*lvl)
		nd.Compute(p, c)
		cycles += c
		outPend += n
		if outPend >= flushBatch {
			nd.WriteLocal(p, outRegion+outOff, outPend)
			outOff += outPend
			outPend = 0
		}
		i = (i + 1) % len(sizes)
	}
	if outPend > 0 {
		nd.WriteLocal(p, outRegion+outOff, alignSector(outPend))
	}
	return cycles
}

// joinStage is one node's side of a Grace join: the projected tuples it
// receives are staged to its partition region in flushBatch batches,
// and the node then joins the staged partitions.
type joinStage struct {
	region  int64 // where the staged partitions start on the node's disk
	pend    int64 // received bytes not yet written
	written int64 // bytes staged so far, sector-aligned
}

// stage buffers n received bytes and writes the buffer out once it
// holds flushBatch, or whatever it holds when last is set.
func (js *joinStage) stage(p *sim.Proc, nd node, n int64, last bool) {
	js.pend += n
	if js.pend >= flushBatch || (last && js.pend > 0) {
		w := alignSector(js.pend)
		nd.WriteLocal(p, js.region+js.written, w)
		js.written += w
		js.pend = 0
	}
}

// join builds a hash table over the staged R share and probes it with
// the S share, splitting the staged bytes in the ratio projR:projS on a
// sector boundary, and writes the join output from outRegion.
func (js *joinStage) join(p *sim.Proc, nd node, outRegion, projR, projS int64, tupleBytes int) {
	if alignSector(js.written) != js.written {
		panic("tasks: Grace join staged an unaligned partition")
	}
	rShare := alignSector(js.written * projR / (projR + projS))
	scanLocal(p, nd, js.region, rShare, tupleBytes, BuildCycles)
	var outOff int64
	chunksOf(js.written-rShare, func(off, n int64) {
		nd.ReadLocal(p, js.region+rShare+off, n)
		nd.Compute(p, tuplesIn(n, tupleBytes)*ProbeCycles)
		if out := alignSector(int64(float64(n) * JoinOutputFraction)); out > 0 {
			nd.WriteLocal(p, outRegion+outOff, out)
			outOff += out
		}
	})
}

// cubeNode is one node's share of a PipeHash data cube: its partition,
// the intermediate result the later passes scan, and the finished
// group-by tables it writes.
type cubeNode struct {
	per         int64 // bytes of the node's partition
	interRegion int64
	interBytes  int64
	tableRegion int64
	tablesPer   int64
	passes      int
	tupleBytes  int
}

// newCubeNode lays out a node's cube share: per bytes of input on a
// drive of capEach bytes, tables bytes of group-by tables across d
// nodes, in passes scans.
func newCubeNode(per, capEach, tables int64, d, passes, tupleBytes int) cubeNode {
	inter, table := regions(capEach)
	return cubeNode{
		per:         per,
		interRegion: inter,
		interBytes:  alignSector(int64(float64(per) * CubeIntermediateFraction)),
		tableRegion: table,
		tablesPer:   alignSector(tables / int64(d)),
		passes:      passes,
		tupleBytes:  tupleBytes,
	}
}

// firstPass scans the partition, calling spill (when non-nil) with each
// chunk's size after its aggregation, and writes the intermediate
// result.
func (c *cubeNode) firstPass(p *sim.Proc, nd node, spill func(n int64)) {
	var interWritten int64
	chunksOf(c.per, func(off, n int64) {
		nd.ReadLocal(p, off, n)
		nd.Compute(p, tuplesIn(n, c.tupleBytes)*CubeCycles)
		if spill != nil {
			spill(n)
		}
		if interWritten < c.interBytes {
			w := n
			if c.interBytes-interWritten < w {
				w = alignSector(c.interBytes - interWritten)
			}
			nd.WriteLocal(p, c.interRegion+interWritten, w)
			interWritten += w
		}
	})
}

// finish runs the remaining passes over the intermediate result and
// writes the finished group-by tables.
func (c *cubeNode) finish(p *sim.Proc, nd node) {
	for pass := 1; pass < c.passes; pass++ {
		scanLocal(p, nd, c.interRegion, c.interBytes, c.tupleBytes, CubeCycles)
	}
	chunksOf(c.tablesPer, func(off, n int64) {
		nd.WriteLocal(p, c.tableRegion+off, n)
	})
}

// applyViews read-modify-writes a node's derived relations: derived
// bytes read from derivedRegion, updates bytes of derived updates
// folded in, and the new version written to stageRegion.
func applyViews(p *sim.Proc, nd node, derived, updates, derivedRegion, stageRegion int64, tupleBytes int) {
	updPerByte := float64(updates) / float64(derived)
	var outOff int64
	chunksOf(derived, func(off, n int64) {
		nd.ReadLocal(p, derivedRegion+off, n)
		t := tuplesIn(n, tupleBytes)
		upd := int64(float64(n) * updPerByte / float64(tupleBytes))
		nd.Compute(p, t*ViewScanCycles+upd*ViewDeltaCycles)
		nd.WriteLocal(p, stageRegion+outOff, n)
		outOff += n
	})
}
