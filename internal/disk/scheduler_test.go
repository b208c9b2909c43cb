package disk

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"howsim/internal/sim"
)

// scatteredBatch submits n single-chunk reads at offsets that zig-zag
// across the whole disk and returns the completion time of the batch.
func scatteredBatch(t *testing.T, policy SchedulingPolicy, n int) (sim.Time, Stats) {
	t.Helper()
	k := sim.NewKernel()
	d := New(k, "d", Cheetah9LP())
	d.SetScheduler(policy)
	capacity := d.Capacity()
	var reqs []*Request
	k.Spawn("issuer", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			// Alternate between low and high offsets: worst case for
			// FCFS, easy pickings for the elevator.
			var off int64
			if i%2 == 0 {
				off = int64(i) * (1 << 20)
			} else {
				off = capacity - int64(i+1)*(1<<20)
			}
			off = off / SectorSize * SectorSize
			reqs = append(reqs, d.Submit(&Request{Offset: off, Length: 64 << 10}))
		}
		for _, r := range reqs {
			r.Wait(p)
		}
	})
	end := k.Run()
	return end, d.Stats()
}

func TestElevatorBeatsFCFSOnScatteredQueue(t *testing.T) {
	const n = 32
	fcfsT, fcfsS := scatteredBatch(t, FCFS, n)
	elevT, elevS := scatteredBatch(t, Elevator, n)
	if elevT >= fcfsT {
		t.Errorf("elevator (%v) should beat FCFS (%v) on a zig-zag queue", elevT, fcfsT)
	}
	if elevS.SeekTime >= fcfsS.SeekTime {
		t.Errorf("elevator seek time (%v) should be below FCFS (%v)", elevS.SeekTime, fcfsS.SeekTime)
	}
	if elevS.Requests != n || fcfsS.Requests != n {
		t.Errorf("request counts: elevator %d, FCFS %d, want %d", elevS.Requests, fcfsS.Requests, n)
	}
}

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

func TestElevatorServesEverything(t *testing.T) {
	k := sim.NewKernel()
	d := New(k, "d", Cheetah9LP())
	d.SetScheduler(Elevator)
	var reqs []*Request
	k.Spawn("issuer", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			off := int64((i*7)%20) << 28
			reqs = append(reqs, d.Submit(&Request{Offset: off, Length: 64 << 10}))
		}
		for _, r := range reqs {
			r.Wait(p)
		}
	})
	k.Run()
	for i, r := range reqs {
		if !r.Done() {
			t.Fatalf("request %d never served", i)
		}
	}
	if d.QueueLen() != 0 {
		t.Errorf("queue not drained: %d", d.QueueLen())
	}
}

func TestElevatorSweepsMonotonically(t *testing.T) {
	// With all requests queued up front, the elevator's service order
	// should change direction at most twice (one full sweep up, one
	// down).
	k := sim.NewKernel()
	d, sink := probedDisk(k, "d")
	d.SetScheduler(Elevator)
	var reqs []*Request
	finished := make([]sim.Time, 16)
	k.Spawn("issuer", func(p *sim.Proc) {
		// Queue everything before the server can start picking.
		for i := 0; i < 16; i++ {
			off := int64((i*5)%16) << 28
			reqs = append(reqs, d.Submit(&Request{Offset: off, Length: 64 << 10}))
			watchCompletion(k, reqs[i], &finished[i])
		}
		for _, r := range reqs {
			r.Wait(p)
		}
	})
	k.Run()
	// Collect offsets in service order.
	order := append([]*Request(nil), reqs...)
	started := serviceStarts(t, sink, finished)
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if started[j] < started[i] {
				order[i], order[j] = order[j], order[i]
				started[i], started[j] = started[j], started[i]
			}
		}
	}
	changes := 0
	dir := 0
	for i := 1; i < len(order); i++ {
		nd := 0
		if order[i].Offset > order[i-1].Offset {
			nd = 1
		} else if order[i].Offset < order[i-1].Offset {
			nd = -1
		}
		if nd != 0 && dir != 0 && nd != dir {
			changes++
		}
		if nd != 0 {
			dir = nd
		}
	}
	if changes > 2 {
		t.Errorf("service order reversed direction %d times; elevator should sweep", changes)
	}
}

// TestSchedulerOrderMatchesSliceModel drives the scheduler's pending
// queue against a reference slice model: seeded random arrivals
// interleaved with picks, with the arm moved to a random cylinder
// before each pick. FCFS must take the oldest request; Elevator the
// nearest one in the sweep direction (the oldest on a tie), reversing
// when the sweep is exhausted. Either way the requests left behind keep
// their arrival order. Offsets come from 24 positions, so picks tie
// often, and the queue's depth wanders, so its ring wraps and grows.
func TestSchedulerOrderMatchesSliceModel(t *testing.T) {
	for _, policy := range []SchedulingPolicy{FCFS, Elevator} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			d := New(sim.NewKernel(), "d", Cheetah9LP())
			d.SetScheduler(policy)
			cylinders := d.Spec().TotalCylinders()
			var ref []*Request
			refUp := false
			refPick := func(up bool) int {
				best, bestDist := -1, math.MaxInt
				for i, r := range ref {
					dist := d.m.geom.locate(r.Offset/SectorSize).cylinder - d.curCyl
					if !up {
						dist = -dist
					}
					if dist >= 0 && dist < bestDist {
						best, bestDist = i, dist
					}
				}
				return best
			}
			for step := 0; step < 400; step++ {
				if len(ref) == 0 || rng.Intn(5) < 3 {
					r := &Request{Offset: int64(rng.Intn(24)) << 28, Length: 64 << 10}
					d.pending.Push(r)
					ref = append(ref, r)
					continue
				}
				d.curCyl = rng.Intn(cylinders)
				want := 0
				if policy == Elevator && len(ref) > 1 {
					if want = refPick(refUp); want < 0 {
						refUp = !refUp
						want = max(refPick(refUp), 0)
					}
				}
				if got := d.nextRequest(); got != ref[want] {
					t.Fatalf("policy %d seed %d step %d: picked offset %d, want %d (queue index %d)",
						policy, seed, step, got.Offset, ref[want].Offset, want)
				}
				ref = slices.Delete(ref, want, want+1)
				if d.sweepUp != refUp {
					t.Fatalf("policy %d seed %d step %d: sweepUp %v, want %v", policy, seed, step, d.sweepUp, refUp)
				}
				if d.QueueLen() != len(ref) {
					t.Fatalf("policy %d seed %d step %d: QueueLen %d, want %d", policy, seed, step, d.QueueLen(), len(ref))
				}
				for i, r := range ref {
					if *d.pending.At(i) != r {
						t.Fatalf("policy %d seed %d step %d: queue position %d out of arrival order", policy, seed, step, i)
					}
				}
			}
		}
	}
}
