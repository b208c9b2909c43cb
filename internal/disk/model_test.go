package disk

import (
	"testing"
	"unsafe"

	"howsim/internal/sim"
)

// TestModelsSharePerSpec checks that drives built through one Models
// share the model of their spec, that a Derated copy of the spec gets a
// model of its own, and that a drive following a shared model services
// requests exactly as a drive built alone from the spec does, even with
// its model-mates busy on the same kernel.
func TestModelsSharePerSpec(t *testing.T) {
	spec := Cheetah9LP()
	slow := Derated(spec, 0.6)
	ms := Models{}
	if ms.Of(spec) != ms.Of(spec) {
		t.Fatal("one spec got two models")
	}
	if ms.Of(slow) == ms.Of(spec) {
		t.Fatal("a derated spec shares its original's model")
	}

	k := sim.NewKernel()
	defer k.Close()
	shared := []*Disk{ms.Of(spec).New(k, "a"), ms.Of(spec).New(k, "b"), ms.Of(slow).New(k, "c")}
	if shared[0].Model() != shared[1].Model() || shared[2].Model() == shared[0].Model() {
		t.Fatal("drives built through one Models do not share their spec's model")
	}
	got := make([][]sim.Time, len(shared))
	for i, d := range shared {
		k.Spawn("io", func(p *sim.Proc) { got[i] = script(p, d, i) })
	}
	k.Run()

	for i, sp := range []*Spec{spec, spec, slow} {
		alone := sim.NewKernel()
		d := New(alone, "alone", sp)
		var want []sim.Time
		alone.Spawn("io", func(p *sim.Proc) { want = script(p, d, i) })
		alone.Run()
		alone.Close()
		if len(got[i]) != len(want) {
			t.Fatalf("drive %d completed %d requests, alone %d", i, len(got[i]), len(want))
		}
		for j := range want {
			if got[i][j] != want[j] {
				t.Errorf("drive %d request %d done at %v, built alone at %v", i, j, got[i][j], want[j])
			}
		}
		if shared[i].Stats() != d.Stats() {
			t.Errorf("drive %d stats %+v, built alone %+v", i, shared[i].Stats(), d.Stats())
		}
	}
}

// script issues a fixed mix of sequential and scattered reads and
// writes, varied by seed, and returns each request's completion time.
func script(p *sim.Proc, d *Disk, seed int) []sim.Time {
	var done []sim.Time
	off := int64(seed) << 24
	for j := 0; j < 24; j++ {
		n := int64(8+j%5*24) << 10
		if j%6 == 5 {
			off = (off*7 + 1<<30 + int64(j)<<20) % (d.Capacity() - 1<<20)
			off -= off % SectorSize
		}
		if j%4 == 3 {
			d.Write(p, off, n)
		} else {
			d.Read(p, off, n)
		}
		done = append(done, p.Now())
		off += n
	}
	return done
}

// TestDiskSizeClass keeps Disk in the 512-byte allocation size class:
// a farm builds one per drive, and what derives from the spec alone
// lives in the shared Model.
func TestDiskSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Disk{}); n > 512 {
		t.Fatalf("Disk is %d bytes, want <= 512", n)
	}
}

// TestRequestSizeClass keeps Request at 88 bytes: an SMP striped
// request holds one per 64 KB chunk in flight, so every field the
// struct grows by is paid once per chunk.
func TestRequestSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Request{}); n > 88 {
		t.Fatalf("Request is %d bytes, want <= 88", n)
	}
}
