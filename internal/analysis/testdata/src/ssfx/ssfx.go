// Fixture for shardsafe rules B and C: leaf disklets reach hub-owned
// state only through Shard.Call, and Call literals never drive
// leaf-owned mechanics.
package ssfx

import (
	"ssfx/diskos"
	"ssfx/sim"
)

func leafBody(sh *sim.Shard, ad *diskos.ActiveDisk, wg *sim.WaitGroup, bar *sim.Barrier, mu *sim.Mutex) {
	sh.Kernel().Spawn("disklet", func(p *sim.Proc) {
		ad.ReadLocal(p, 0, 1) // ok: leaf-owned, leaf context
		ad.Compute(p, 10)     // ok
		mu.Lock(p)            // ok: sim.Mutex is kernel-bound, may be leaf-local
		mu.Unlock()
		ad.Send(p, 1, diskos.Chunk{}) // want `ActiveDisk\.Send touches hub-owned state from a leaf disklet`
		wg.Done()                     // want `WaitGroup\.Done touches hub-owned state from a leaf disklet`
		bar.Wait(p)                   // want `Barrier\.Wait touches hub-owned state from a leaf disklet`
		sh.Call(p, func(hp *sim.Proc) {
			ad.SendToFrontEnd(hp, diskos.Chunk{}) // ok: hub context inside Call
			wg.Done()                             // ok
			bar.Wait(hp)                          // ok
			ad.WriteLocal(hp, 0, 1)               // want `ActiveDisk\.WriteLocal runs a leaf-owned operation from a Shard\.Call literal`
		})
		ad.WriteLocal(p, 0, 1) // ok: back in leaf context
	})
}

// Locally defined closures called from leaf context are followed.
func closureFollow(sh *sim.Shard, ad *diskos.ActiveDisk, wg *sim.WaitGroup) {
	absorb := func(p *sim.Proc) {
		ad.WriteLocal(p, 0, 1) // ok
		wg.Done()              // want `WaitGroup\.Done touches hub-owned state from a leaf disklet`
		sh.Call(p, func(hp *sim.Proc) {
			wg.Done() // ok: rendezvous
		})
	}
	sh.Kernel().Spawn("d", func(p *sim.Proc) {
		absorb(p)
	})
}

// The leaf kernel reached through a local variable is still a leaf.
func lkForm(sh *sim.Shard, ad *diskos.ActiveDisk) {
	lk := sh.Kernel()
	lk.Spawn("d", func(p *sim.Proc) {
		c, ok := ad.Recv(p) // want `ActiveDisk\.Recv touches hub-owned state from a leaf disklet`
		_, _ = c, ok
	})
}

// Hub-side coordinators spawn on the hub kernel: none of this is leaf
// context.
func hubSide(g *sim.ShardGroup, ad *diskos.ActiveDisk, fe *diskos.FrontEnd, wg *sim.WaitGroup, done *sim.Signal) {
	g.Hub().Spawn("coord", func(p *sim.Proc) {
		wg.Wait(p)      // ok: hub context
		ad.CloseInbox() // ok
		fe.Recv(p)      // ok
		fe.CloseInbox() // ok
		done.Fire()     // ok
	})
}

// The front-end inbox is hub-owned too: a leaf disklet reaches it only
// through Call.
func frontEndInbox(sh *sim.Shard, fe *diskos.FrontEnd) {
	sh.Kernel().Spawn("d", func(p *sim.Proc) {
		c, ok := fe.Recv(p) // want `FrontEnd\.Recv touches hub-owned state from a leaf disklet`
		_, _ = c, ok
		fe.CloseInbox() // want `FrontEnd\.CloseInbox touches hub-owned state from a leaf disklet`
		sh.Call(p, func(hp *sim.Proc) {
			fe.Recv(hp)     // ok: hub context inside Call
			fe.CloseInbox() // ok
		})
	})
}

// Reviewed exemption.
func allowedLeaf(sh *sim.Shard, ad *diskos.ActiveDisk) {
	sh.Kernel().Spawn("d", func(p *sim.Proc) {
		ad.Release(1) //howsim:allow shardsafe -- releasing a credit the hub never observes mid-run
	})
}

// placement mirrors the tasks seam: kernel(i) is the kernel disk i's
// disklets run on (a leaf when sharded), cross runs its literal on the
// hub, and sendFE is one of the typed stream helpers.
type placement struct {
	g *sim.ShardGroup
}

func (pl *placement) kernel(i int) *sim.Kernel                     { return pl.g.Shard(i).Kernel() }
func (pl *placement) hub() *sim.Kernel                             { return pl.g.Hub() }
func (pl *placement) cross(p *sim.Proc, i int, fn func(*sim.Proc)) {}
func (pl *placement) sendFE(p *sim.Proc, ad *diskos.ActiveDisk)    {}

// A disklet spawned through the placement seam is leaf context: hub
// touches outside a crossing are findings, cross literals are hub
// context, and the typed helpers are sanctioned rendezvous.
func placementBody(pl *placement, ad *diskos.ActiveDisk, wg *sim.WaitGroup, bar *sim.Barrier) {
	pl.kernel(0).Spawn("disklet", func(p *sim.Proc) {
		ad.ReadLocal(p, 0, 1)                // ok: leaf-owned, leaf context
		pl.sendFE(p, ad)                     // ok: typed stream helper
		ad.SendToFrontEnd(p, diskos.Chunk{}) // want `ActiveDisk\.SendToFrontEnd touches hub-owned state from a leaf disklet`
		wg.Done()                            // want `WaitGroup\.Done touches hub-owned state from a leaf disklet`
		pl.cross(p, 0, func(hp *sim.Proc) {
			bar.Wait(hp)       // ok: hub context inside cross
			wg.Done()          // ok
			ad.Compute(hp, 10) // want `ActiveDisk\.Compute runs a leaf-owned operation from a placement\.cross literal`
		})
	})
	k := pl.kernel(1)
	k.Spawn("disklet", func(p *sim.Proc) {
		c, ok := ad.Recv(p) // want `ActiveDisk\.Recv touches hub-owned state from a leaf disklet`
		_, _ = c, ok
	})
	pl.hub().Spawn("coord", func(p *sim.Proc) {
		wg.Wait(p) // ok: hub context
	})
}
