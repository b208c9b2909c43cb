package tasks

import (
	"fmt"
	"sort"

	"howsim/internal/arch"
	"howsim/internal/cpu"
	"howsim/internal/disk"
	"howsim/internal/fault"
	"howsim/internal/sim"
	"howsim/internal/stats"
	"howsim/internal/workload"
)

// ioChunk is the application I/O request size: the paper adapts all
// tasks "to use large (256 KB) I/O requests".
const ioChunk = 256 << 10

// flushBatch is the batching threshold for result/partial-table
// forwarding ("we aggressively batched I/O operations").
const flushBatch = 1 << 20

// Result is one task execution on one configuration.
type Result struct {
	Task    workload.TaskID
	Config  arch.Config
	Elapsed sim.Time
	// Breakdown holds per-phase CPU/idle attribution (Figure 3).
	Breakdown *sim.Breakdown
	// Details carries auxiliary metrics: bytes over interconnects,
	// utilizations, pass counts.
	Details map[string]float64
	// Fault is the fault/recovery report for runs executed under a fault
	// plan; nil for fault-free runs.
	Fault *stats.FaultReport
}

// String summarizes the result.
func (r *Result) String() string {
	return fmt.Sprintf("%s on %s: %v", r.Task, r.Config.Name(), r.Elapsed)
}

// degrade accumulates the byte-level damage a faulted scan absorbed,
// and the background rebuild's record. The kernel is single-threaded,
// so scan processes update it without locking.
type degrade struct {
	total   int64 // bytes the task was asked to process
	lost    int64 // bytes abandoned after retries and replica attempts
	replica int64 // bytes recovered by reading a replica copy
	rebuild rebuildState
}

// faultEpilogue assembles Result.Fault for a run under plan from the
// degradation accumulator and rebuild record, the per-disk fault
// counters and the per-CPU straggler accounting. deadlock carries the
// kernel's (or shard group's) parked-process report when the run did
// not complete.
func faultEpilogue(res *Result, plan *fault.Plan, deg *degrade, completed bool,
	deadlock string, disks []*disk.Disk, cpus []*cpu.CPU) {
	fr := &stats.FaultReport{
		Plan:         plan.String(),
		Task:         res.Task.String(),
		Config:       res.Config.Name(),
		Completed:    completed,
		ElapsedSec:   res.Elapsed.Seconds(),
		BytesTotal:   deg.total,
		BytesLost:    deg.lost,
		ReplicaBytes: deg.replica,
	}
	if !completed {
		fr.Deadlock = deadlock
	}
	for _, d := range disks {
		st := d.Stats()
		fr.Retries += st.Retries
		fr.SlowRequests += st.SlowRequests
		fr.CorruptReads += st.CorruptReads
		fr.Rereads += st.Rereads
		fr.HardErrors += st.FailedRequests
		fr.FaultDelaySec += st.FaultDelay.Seconds()
		if d.Failed() {
			fr.FailedDisks = append(fr.FailedDisks, d.Name())
		}
	}
	for _, c := range cpus {
		fr.StragglerDelaySec += c.SlowdownTime().Seconds()
	}
	if rb := &deg.rebuild; rb.ran {
		fr.Rebuild = &stats.RebuildStats{
			Spare:    rb.spare,
			Bytes:    rb.bytes,
			StartSec: rb.start.Seconds(),
			EndSec:   rb.end.Seconds(),
		}
	}
	res.Fault = fr
}

// mediaDetails records the bytes the n disks diskAt returns read from
// and wrote to their media.
func mediaDetails(res *Result, n int, diskAt func(i int) *disk.Disk) {
	var read, written int64
	for i := 0; i < n; i++ {
		st := diskAt(i).Stats()
		read += st.BytesRead
		written += st.BytesWritten
	}
	res.Details["media_read_bytes"] = float64(read)
	res.Details["media_write_bytes"] = float64(written)
}

// probeEpilogue emits the task's phase timeline into the kernel's probe
// sink. The boundary timestamps the tasks record in Details partition
// [0, Elapsed] into named phases: the phase-1/phase-2 split of sort and
// cube, per-pass boundaries of data mining, the shuffle boundary — and
// a run with no recorded boundaries becomes a single "run" phase.
// Because the phases partition the whole timeline, the breakdown report
// accounts for 100% of end-to-end time up to boundary rounding (the
// Details values are in float64 seconds). Phases are emitted after the
// run completes, so they are the newest spans in the ring and survive
// any overflow. Both execution modes record identical Details, so the
// emitted spans are byte-identical across -procmode settings.
func probeEpilogue(res *Result, k *sim.Kernel) {
	s := k.Probe()
	if !s.Enabled() {
		return
	}
	type mark struct {
		name string
		end  sim.Time
	}
	toTime := func(sec float64) sim.Time {
		t := sim.Time(sec * float64(sim.Second))
		if t < 0 {
			t = 0
		}
		if t > res.Elapsed {
			t = res.Elapsed
		}
		return t
	}
	var marks []mark
	tail := "run"
	if v, ok := res.Details["p1_seconds"]; ok {
		marks = append(marks, mark{"phase1", toTime(v)})
		tail = "phase2"
	}
	if v, ok := res.Details["shuffle_seconds"]; ok {
		marks = append(marks, mark{"shuffle", toTime(v)})
		tail = "finish"
	}
	for pass := 1; ; pass++ {
		v, ok := res.Details[passKey(pass)]
		if !ok {
			break
		}
		marks = append(marks, mark{fmt.Sprintf("pass%d", pass), toTime(v)})
		tail = "finish"
	}
	sort.Slice(marks, func(i, j int) bool { return marks[i].end < marks[j].end })
	pr := s.Register("task", res.Task.String())
	if !pr.On() {
		return
	}
	start := sim.Time(0)
	for _, m := range marks {
		if m.end > start {
			pr.Span(pr.KindNamed(m.name), int64(start), int64(m.end))
			start = m.end
		}
	}
	if res.Elapsed > start {
		pr.Span(pr.KindNamed(tail), int64(start), int64(res.Elapsed))
	}
}

// coord spawns the task's coordinator on k: it waits for wg, runs then
// (when non-nil) and fires the returned signal, the task's completion.
func coord(k *sim.Kernel, wg *sim.WaitGroup, then func(p *sim.Proc)) *sim.Signal {
	done := sim.NewSignal()
	k.Spawn("coord", func(p *sim.Proc) {
		wg.Wait(p)
		if then != nil {
			then(p)
		}
		done.Fire()
	})
	return done
}

// sortBreakdown attributes a two-phase sort's time to Figure 3's
// buckets: the cycles of each CPU bucket, averaged over units processors
// of hz, and each phase's idle remainder. Phase 1 ended at p1End and
// the sort at total.
func sortBreakdown(res *Result, hz float64, units int, cPart, cAppend, cSort, cMerge int64, p1End, total sim.Time) {
	toTime := func(cycles int64) sim.Time {
		return sim.Time(float64(cycles) / hz / float64(units) * float64(sim.Second))
	}
	bd := res.Breakdown
	bd.Add("P1:Partitioner", toTime(cPart))
	bd.Add("P1:Append", toTime(cAppend))
	bd.Add("P1:Sort", toTime(cSort))
	if p1CPU := toTime(cPart + cAppend + cSort); p1End > p1CPU {
		bd.Add("P1:Idle", p1End-p1CPU)
	}
	bd.Add("P2:Merge", toTime(cMerge))
	if p2 := total - p1End; p2 > toTime(cMerge) {
		bd.Add("P2:Idle", p2-toTime(cMerge))
	}
	res.Details["p1_seconds"] = p1End.Seconds()
	res.Details["p2_seconds"] = (total - p1End).Seconds()
}

// perNodeBytes splits total across n nodes, rounded up to whole I/O
// chunks so every node's partition is request-aligned.
func perNodeBytes(total int64, n int) int64 {
	per := (total + int64(n) - 1) / int64(n)
	if rem := per % ioChunk; rem != 0 {
		per += ioChunk - rem
	}
	return per
}

// tuplesIn converts a byte count to tuples of the dataset's width.
func tuplesIn(bytes int64, tupleBytes int) int64 {
	if tupleBytes <= 0 {
		return 0
	}
	n := bytes / int64(tupleBytes)
	if n < 1 && bytes > 0 {
		n = 1
	}
	return n
}

// alignSector rounds bytes up to a 512-byte disk sector.
func alignSector(b int64) int64 {
	const s = 512
	if rem := b % s; rem != 0 {
		b += s - rem
	}
	return b
}

// chunksOf iterates [0, total) in ioChunk pieces, calling fn(offset, n).
func chunksOf(total int64, fn func(off, n int64)) {
	for off := int64(0); off < total; off += ioChunk {
		n := ioChunk
		if total-off < int64(n) {
			fn(off, alignSector(total-off))
			return
		}
		fn(off, int64(n))
	}
}

// baseBytes returns the mview base-relation size: the 15 GB dataset
// minus the stored derived relations and the delta batch.
func baseBytes(ds workload.Dataset) int64 {
	b := ds.TotalBytes - ds.DerivedBytes - ds.DeltaBytes
	if b < 0 {
		b = ds.TotalBytes
	}
	return b
}

// passKey names the per-pass timestamp detail for mining passes.
func passKey(pass int) string {
	return fmt.Sprintf("pass%d_end_seconds", pass)
}
