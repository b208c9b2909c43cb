package bus

import (
	"testing"

	"howsim/internal/sim"
)

func TestFCALAggregateBandwidth(t *testing.T) {
	k := sim.NewKernel()
	fc := New(k, "fc", FCAL(2, 100e6))
	if got := fc.AggregateBandwidth(); got != 200e6 {
		t.Errorf("aggregate bandwidth = %v, want 200e6", got)
	}
	var last sim.Time
	// Four senders pushing 100 MB each: 400 MB over 200 MB/s ~ 2s.
	for i := 0; i < 4; i++ {
		k.Spawn("s", func(p *sim.Proc) {
			fc.Transfer(p, 100e6)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	k.Run()
	if last < 2*sim.Second || last > sim.Time(2.1*float64(sim.Second)) {
		t.Errorf("400 MB over dual loop finished at %v, want ~2s", last)
	}
}

func TestFastIOVariantDoubles(t *testing.T) {
	run := func(perLoop float64) sim.Time {
		k := sim.NewKernel()
		fc := New(k, "fc", FCAL(2, perLoop))
		var done sim.Time
		for i := 0; i < 2; i++ {
			k.Spawn("s", func(p *sim.Proc) {
				fc.Transfer(p, 200e6)
				if p.Now() > done {
					done = p.Now()
				}
			})
		}
		k.Run()
		return done
	}
	base := run(100e6)
	fast := run(200e6)
	ratio := float64(base) / float64(fast)
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("400 MB/s interconnect speedup = %.2fx, want ~2x", ratio)
	}
}

func TestFairSharingViaFrames(t *testing.T) {
	// A small transfer arriving behind a huge one should finish long
	// before the huge one completes (frame-level arbitration).
	k := sim.NewKernel()
	b := New(k, "b", Params{1, 100e6, 0, 64 << 10})
	var smallDone, bigDone sim.Time
	k.Spawn("big", func(p *sim.Proc) {
		b.Transfer(p, 1e9) // 10s
		bigDone = p.Now()
	})
	k.Spawn("small", func(p *sim.Proc) {
		p.Delay(sim.Millisecond)
		b.Transfer(p, 1e6)
		smallDone = p.Now()
	})
	k.Run()
	if smallDone > bigDone/2 {
		t.Errorf("small transfer finished at %v (big at %v); arbitration unfair", smallDone, bigDone)
	}
}

func TestZeroTransferIsFree(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, "pci", PCI())
	k.Spawn("s", func(p *sim.Proc) {
		b.Transfer(p, 0)
		if p.Now() != 0 {
			t.Errorf("zero-byte transfer advanced time to %v", p.Now())
		}
	})
	k.Run()
	if b.BytesMoved() != 0 {
		t.Errorf("BytesMoved = %d, want 0", b.BytesMoved())
	}
}

func TestConstructorsRates(t *testing.T) {
	k := sim.NewKernel()
	cases := []struct {
		b    *Bus
		want float64
	}{
		{New(k, "scsi", Ultra2SCSI()), 80e6},
		{New(k, "xio", XIO()), 1.4e9},
		{New(k, "pci", PCI()), 100e6},
		{New(k, "ic", SMPInterconnect(8)), 8 * 780e6},
	}
	for _, c := range cases {
		if got := c.b.AggregateBandwidth(); got != c.want {
			t.Errorf("%s aggregate = %v, want %v", c.b.Name(), got, c.want)
		}
	}
}

func TestUtilizationAccounting(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, "b", Params{1, 100e6, 0, 1 << 20})
	k.Spawn("s", func(p *sim.Proc) {
		b.Transfer(p, 50e6) // 0.5s busy
		p.Delay(sim.Second / 2)
	})
	k.Run()
	if u := b.Utilization(); u < 0.45 || u > 0.55 {
		t.Errorf("Utilization = %v, want ~0.5", u)
	}
	if b.BytesMoved() != 50e6 {
		t.Errorf("BytesMoved = %d, want 50e6", b.BytesMoved())
	}
}
