package disk

import (
	"testing"

	"howsim/internal/sim"
)

// TestSyncIOAllocatesNothing checks a steady-state synchronous Read or
// Write allocates nothing: the request comes from the disk's free list
// and its completion signal keeps its waiter storage across uses.
func TestSyncIOAllocatesNothing(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	d := New(k, "d", Cheetah9LP())
	const n = 64 << 10
	var reads, writes float64
	k.Spawn("io", func(p *sim.Proc) {
		off := int64(0)
		next := func() int64 {
			off = (off + n) % (256 << 20)
			return off
		}
		// Warm the free list, the disk queue and the event slab.
		for i := 0; i < 4; i++ {
			d.Read(p, next(), n)
			d.Write(p, next(), n)
		}
		reads = testing.AllocsPerRun(100, func() { d.Read(p, next(), n) })
		writes = testing.AllocsPerRun(100, func() { d.Write(p, next(), n) })
	})
	k.Run()
	if reads != 0 || writes != 0 {
		t.Errorf("Read allocates %v and Write %v per call in steady state, want 0", reads, writes)
	}
}

// scriptedFaults demands a fixed number of media retries from each
// serviced request in turn; requests past the script are clean.
type scriptedFaults []int

func (s scriptedFaults) RequestFault(seq int64) (sim.Time, int) {
	if seq <= int64(len(s)) {
		return 0, s[seq-1]
	}
	return 0, 0
}

func (scriptedFaults) CorruptionFault(int64) int     { return 0 }
func (scriptedFaults) FailureTime() (sim.Time, bool) { return 0, false }

// TestRecycledRequestCarriesNoFaultState runs a read that fails past
// its retry budget, one that recovers after retries, and a clean read,
// all through the same recycled request. Each completion must reflect
// only its own service: a failed or retried use never leaks Err or
// Retries into the next.
func TestRecycledRequestCarriesNoFaultState(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	d := New(k, "d", Cheetah9LP())
	d.SetFaultInjector(scriptedFaults{maxRetries + 3, 2})

	type use struct {
		err     error
		retries int
		req     *Request
	}
	var uses []use
	k.Spawn("io", func(p *sim.Proc) {
		for i := int64(0); i < 3; i++ {
			err := d.Read(p, i*(64<<10), 64<<10)
			if len(d.free) != 1 {
				t.Errorf("read %d: free list holds %d requests, want 1", i, len(d.free))
				return
			}
			req := d.free[0]
			uses = append(uses, use{err, int(req.Retries), req})
		}
	})
	k.Run()
	if len(uses) != 3 {
		t.Fatalf("completed %d reads, want 3", len(uses))
	}
	want := []use{
		{ErrMediaError, maxRetries, uses[0].req},
		{nil, 2, uses[0].req},
		{nil, 0, uses[0].req},
	}
	for i, w := range want {
		if uses[i] != w {
			t.Errorf("read %d: err=%v retries=%d req=%p, want err=%v retries=%d on the recycled request %p",
				i, uses[i].err, uses[i].retries, uses[i].req, w.err, w.retries, w.req)
		}
	}
	if s := d.Stats(); s.FailedRequests != 1 || s.Retries != int64(maxRetries+2) {
		t.Errorf("stats: failed=%d retries=%d, want 1 and %d", s.FailedRequests, s.Retries, maxRetries+2)
	}
}
