package tasks

import (
	"testing"

	"howsim/internal/arch"
	"howsim/internal/sim"
)

// TestPlacementInlineStreamTouchesDoNotAllocate pins the single-kernel
// path of the typed stream helpers: a send to the front-end, the same
// send as a scan's output batch through the exchange seam, and a recv
// followed by its release must allocate nothing beyond what the direct
// diskos calls do (a recv from a stocked inbox allocates nothing at
// all), so the seams add no per-chunk allocation. Routing them through
// cross instead allocates the escaping closure, and for recv its
// captured results, on every call.
func TestPlacementInlineStreamTouchesDoNotAllocate(t *testing.T) {
	const runs = 400
	const n = 64 << 10 // front-end send size
	const m = 512      // recv chunk size: every recv chunk fits disk 0's credit at once
	mp, _ := takePair(arch.ActiveDisks(2), false, nil)
	defer mp.release()
	k, s := mp.k, mp.m.(activeMachine)
	pl := &placement{k: k}
	ad0, ad1 := s.Disks[0], s.Disks[1]
	x := activeExchanges(pl, s.System, nil)
	// Stock disk 0's inbox with every chunk the recv measurements take,
	// so no recv blocks and lets other processes run inside a
	// measurement; drain the front-end's inbox.
	stocked := sim.NewSignal()
	k.Spawn("ad1.stock", func(p *sim.Proc) {
		for i := 0; i < 2*(runs+2); i++ {
			ad1.Send(p, 0, m, nil)
		}
		stocked.Fire()
	})
	k.Spawn("fe.drain", func(p *sim.Proc) {
		for {
			if _, ok := s.FE.Recv(p); !ok {
				return
			}
		}
	})
	finished := false
	k.Spawn("measure", func(p *sim.Proc) {
		stocked.Wait(p)
		pairs := []struct {
			name           string
			direct, helper func()
		}{
			{"sendFE",
				func() { ad0.SendToFrontEnd(p, n, nil) },
				func() { pl.sendFE(p, ad0, n) }},
			{"exchange emit",
				func() { ad0.SendToFrontEnd(p, n, nil) },
				func() { x.emit(p, 0, ad0, n, n) }},
			{"recv with release",
				func() { c, _ := ad0.Recv(p); ad0.Release(c.Bytes) },
				func() { c, _ := pl.recv(p, ad0); pl.release(p, ad0, c.Bytes) }},
		}
		// A first pass warms the stream pumps, mailboxes and event slab,
		// whose one-time growth would otherwise count against one side.
		for _, c := range pairs {
			c.direct()
			c.helper()
		}
		for _, c := range pairs {
			direct := testing.AllocsPerRun(runs, c.direct)
			helper := testing.AllocsPerRun(runs, c.helper)
			t.Logf("%s: %v allocs per call through the seam, %v direct", c.name, helper, direct)
			if helper > direct {
				t.Errorf("%s: the seam adds %v allocs per call on one kernel", c.name, helper-direct)
			}
			if c.name == "recv with release" && helper != 0 {
				t.Errorf("%s: %v allocs per call from a stocked inbox, want 0", c.name, helper)
			}
		}
		s.FE.CloseInbox()
		finished = true
	})
	k.Run()
	if !finished {
		t.Fatalf("measurement did not complete\n%s", k.DeadlockReport())
	}
}
