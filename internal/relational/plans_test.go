package relational

import (
	"testing"
	"testing/quick"
)

func TestPlanExternalSortPaperExample(t *testing.T) {
	// "Switching from 40 runs of 25 MB each (used for 32 MB Active
	// Disks) to 20 runs of 50 MB each (used for 64 MB Active Disks)":
	// 1 GB of data per disk.
	gb := int64(1) << 30
	mb := int64(1) << 20
	if p := PlanExternalSort(gb, 25*mb); p.Runs != 41 { // 1 GiB / 25 MiB = 40.96 -> 41 runs
		t.Errorf("32 MB plan: %d runs, want 41 (~40 in the paper's round numbers)", p.Runs)
	}
	if p := PlanExternalSort(gb, 50*mb); p.Runs != 21 {
		t.Errorf("64 MB plan: %d runs, want 21 (~20)", p.Runs)
	}
}

func TestPlanExternalSortFitsInMemory(t *testing.T) {
	if p := PlanExternalSort(100, 1000); p.Runs != 1 {
		t.Errorf("in-memory plan = %+v, want 1 run", p)
	}
}

func TestPlanRunsShrinkWithMemoryProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		m1, m2 := int64(a)+1, int64(b)+1
		if m1 > m2 {
			m1, m2 = m2, m1
		}
		p1 := PlanExternalSort(1<<20, m1*100)
		p2 := PlanExternalSort(1<<20, m2*100)
		return p1.Runs >= p2.Runs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPlanGraceJoin(t *testing.T) {
	if p := PlanGraceJoin(100, 1000); p.Partitions != 1 {
		t.Errorf("fitting build side => %d partitions, want 1", p.Partitions)
	}
	if p := PlanGraceJoin(1000, 100); p.Partitions != 10 {
		t.Errorf("10x oversized build => %d partitions, want 10", p.Partitions)
	}
	if p := PlanGraceJoin(1001, 100); p.Partitions != 11 {
		t.Errorf("ceil division => %d partitions, want 11", p.Partitions)
	}
}

func TestPaperCubeShapeConstants(t *testing.T) {
	s := PaperCubeShape()
	mb := int64(1) << 20
	if s.LargestTableBytes != 695*mb {
		t.Errorf("largest table = %d, want 695 MB", s.LargestTableBytes)
	}
	if len(s.OtherTablesBytes) != 14 {
		t.Fatalf("%d other tables, want 14", len(s.OtherTablesBytes))
	}
	var sum int64
	for i, b := range s.OtherTablesBytes {
		sum += b
		if i > 0 && b > s.OtherTablesBytes[i-1] {
			t.Error("other tables must be descending")
		}
	}
	if sum != 2300*mb {
		t.Errorf("other tables total %d MB, want 2300 MB (paper: 2.3 GB for 14 group-bys)", sum/mb)
	}
}

func TestCubePlanPaperThresholds(t *testing.T) {
	s := PaperCubeShape()
	mb := int64(1) << 20
	const reserve = 6 // MB reserved for I/O+comm buffers

	// 16 disks at 32 MB: largest group-by (695/16 = 43 MB/disk) cannot be
	// held; partial tables spill to the front-end.
	p := s.Plan(16, 32*mb, reserve*mb)
	if p.SpillBytes == 0 {
		t.Error("16 disks x 32 MB must spill the largest group-by")
	}
	// 16 disks at 64 MB: no spill.
	p = s.Plan(16, 64*mb, reserve*mb)
	if p.SpillBytes != 0 {
		t.Error("16 disks x 64 MB should hold the largest group-by")
	}

	// 64 disks: 32 MB -> 3 passes, 64 MB -> 2 passes (the paper's
	// "reduce the number of passes from three to two").
	p32 := s.Plan(64, 32*mb, reserve*mb)
	p64 := s.Plan(64, 64*mb, reserve*mb)
	if p32.Passes != 3 {
		t.Errorf("64 disks x 32 MB: %d passes, want 3", p32.Passes)
	}
	if p64.Passes != 2 {
		t.Errorf("64 disks x 64 MB: %d passes, want 2", p64.Passes)
	}
	if p32.SpillBytes != 0 || p64.SpillBytes != 0 {
		t.Error("64-disk configurations should not spill")
	}

	// 128 disks: already 2 passes at 32 MB, no gain from more memory.
	p = s.Plan(128, 32*mb, reserve*mb)
	if p.Passes != 2 || p.SpillBytes != 0 {
		t.Errorf("128 disks x 32 MB: %+v, want 2 passes, no spill", p)
	}
}

func TestCubePlanMonotoneInMemory(t *testing.T) {
	s := PaperCubeShape()
	mb := int64(1) << 20
	for _, disks := range []int{16, 32, 64, 128} {
		prevPasses := 1 << 30
		prevSpill := int64(1) << 62
		for _, mem := range []int64{32, 64, 128, 256} {
			p := s.Plan(disks, mem*mb, 6*mb)
			if p.Passes > prevPasses {
				t.Errorf("disks=%d: passes increased with memory", disks)
			}
			if p.SpillBytes > prevSpill {
				t.Errorf("disks=%d: spill increased with memory", disks)
			}
			prevPasses, prevSpill = p.Passes, p.SpillBytes
		}
	}
}
