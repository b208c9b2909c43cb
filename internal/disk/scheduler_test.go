package disk

import (
	"math/rand"
	"testing"

	"howsim/internal/sim"
)

func TestFCFSPreservesArrivalOrder(t *testing.T) {
	k := sim.NewKernel()
	d, sink := probedDisk(k, "d")
	var reqs []*Request
	offs := []int64{5 << 30, 0, 2 << 30, 7 << 30, 1 << 30}
	finished := make([]sim.Time, len(offs))
	k.Spawn("issuer", func(p *sim.Proc) {
		for i, off := range offs {
			reqs = append(reqs, d.Submit(&Request{Offset: off, Length: 64 << 10}))
			watchCompletion(k, reqs[i], &finished[i])
		}
		for _, r := range reqs {
			r.Wait(p)
		}
	})
	k.Run()
	started := serviceStarts(t, sink, finished)
	for i := 1; i < len(reqs); i++ {
		if started[i] < started[i-1] {
			t.Fatal("FCFS must serve in arrival order")
		}
	}
}

// TestSchedulerOrderMatchesSliceModel drives the scheduler's pending
// queue against a reference slice model: seeded random arrivals
// interleaved with picks. Each pick must take the oldest request, and
// the requests left behind keep their arrival order. The queue's depth
// wanders, so its ring wraps and grows.
func TestSchedulerOrderMatchesSliceModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := New(sim.NewKernel(), "d", Cheetah9LP())
		var ref []*Request
		for step := 0; step < 400; step++ {
			if len(ref) == 0 || rng.Intn(5) < 3 {
				r := &Request{Offset: int64(rng.Intn(24)) << 28, Length: 64 << 10}
				d.pending.Push(r)
				ref = append(ref, r)
				continue
			}
			if got := d.nextRequest(); got != ref[0] {
				t.Fatalf("seed %d step %d: picked offset %d, want %d", seed, step, got.Offset, ref[0].Offset)
			}
			ref = ref[1:]
			if d.QueueLen() != len(ref) {
				t.Fatalf("seed %d step %d: QueueLen %d, want %d", seed, step, d.QueueLen(), len(ref))
			}
			for i, r := range ref {
				if *d.pending.At(i) != r {
					t.Fatalf("seed %d step %d: queue position %d out of arrival order", seed, step, i)
				}
			}
		}
	}
}
