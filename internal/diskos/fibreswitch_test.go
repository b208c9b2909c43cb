package diskos

import (
	"testing"

	"howsim/internal/sim"
)

// shuffleAll runs a symmetric all-to-all transfer of perDisk bytes from
// every disk to its diametric peer and returns the completion time.
func shuffleAll(t *testing.T, cfg Config, perDisk int64) sim.Time {
	t.Helper()
	k := sim.NewKernel()
	s := NewSystem(k, cfg)
	d := cfg.Disks
	var last sim.Time
	for i := 0; i < d; i++ {
		i := i
		dst := (i + d/2) % d
		k.Spawn("recv", func(p *sim.Proc) {
			var got int64
			for got < perDisk {
				c, ok := s.Disks[i].Recv(p)
				if !ok {
					return
				}
				got += c.Bytes
				s.Disks[i].Release(c.Bytes)
			}
			if p.Now() > last {
				last = p.Now()
			}
		})
		k.Spawn("send", func(p *sim.Proc) {
			s.Disks[i].Send(p, dst, perDisk, nil)
		})
	}
	k.Run()
	return last
}

func TestFibreSwitchIncreasesBisection(t *testing.T) {
	const perDisk = 8 << 20
	base := DefaultConfig(16)
	switched := DefaultConfig(16)
	switched.SwitchedLoops = 4
	tb := shuffleAll(t, base, perDisk)
	ts := shuffleAll(t, switched, perDisk)
	// Cross-loop transfers cost two loop crossings, so 4 loops give a
	// 2x effective bisection: expect a ~2x speedup on an all-to-all.
	ratio := float64(tb) / float64(ts)
	if ratio < 1.5 {
		t.Errorf("4-loop FibreSwitch speedup = %.2fx, want >= 1.5x", ratio)
	}
}

func TestFibreSwitchSameLoopTrafficCrossesOnce(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.SwitchedLoops = 2 // disks 0-3 on loop 0, disks 4-7 on loop 1
	k := sim.NewKernel()
	s := NewSystem(k, cfg)
	const bytes = 1 << 20
	k.Spawn("recv", func(p *sim.Proc) {
		var got int64
		for got < bytes {
			c, ok := s.Disks[1].Recv(p)
			if !ok {
				return
			}
			got += c.Bytes
			s.Disks[1].Release(c.Bytes)
		}
	})
	k.Spawn("send", func(p *sim.Proc) {
		s.Disks[0].Send(p, 1, bytes, nil) // same loop group
	})
	k.Run()
	if s.LoopBytesMoved() != bytes {
		t.Errorf("intra-loop transfer moved %d loop-bytes, want %d (one crossing)",
			s.LoopBytesMoved(), bytes)
	}
}

func TestFibreSwitchCrossLoopTrafficCrossesTwice(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.SwitchedLoops = 2
	k := sim.NewKernel()
	s := NewSystem(k, cfg)
	const bytes = 1 << 20
	k.Spawn("recv", func(p *sim.Proc) {
		var got int64
		for got < bytes {
			c, ok := s.Disks[5].Recv(p)
			if !ok {
				return
			}
			got += c.Bytes
			s.Disks[5].Release(c.Bytes)
		}
	})
	k.Spawn("send", func(p *sim.Proc) {
		s.Disks[0].Send(p, 5, bytes, nil) // loop 0 -> loop 1
	})
	k.Run()
	if s.LoopBytesMoved() != 2*bytes {
		t.Errorf("cross-loop transfer moved %d loop-bytes, want %d (src + dst loops)",
			s.LoopBytesMoved(), 2*bytes)
	}
	if s.Loops() != 2 {
		t.Errorf("Loops() = %d, want 2", s.Loops())
	}
}

func TestSingleLoopUnaffectedByRefactor(t *testing.T) {
	// The baseline must behave exactly as a one-group system.
	cfg := DefaultConfig(4)
	k := sim.NewKernel()
	s := NewSystem(k, cfg)
	if s.Loops() != 1 {
		t.Fatalf("baseline has %d loops", s.Loops())
	}
	const bytes = 1 << 20
	k.Spawn("recv", func(p *sim.Proc) {
		var got int64
		for got < bytes {
			c, ok := s.Disks[3].Recv(p)
			if !ok {
				return
			}
			got += c.Bytes
			s.Disks[3].Release(c.Bytes)
		}
	})
	k.Spawn("send", func(p *sim.Proc) {
		s.Disks[0].Send(p, 3, bytes, nil)
	})
	k.Run()
	if s.LoopBytesMoved() != bytes || s.Loop.BytesMoved() != bytes {
		t.Error("baseline transfer accounting changed")
	}
}

func TestFrontEndPathsWorkWithSwitch(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.SwitchedLoops = 4
	k := sim.NewKernel()
	s := NewSystem(k, cfg)
	k.Spawn("toFE", func(p *sim.Proc) {
		s.Disks[7].SendToFrontEnd(p, 1<<20, nil)
	})
	k.Spawn("fe", func(p *sim.Proc) {
		s.FE.Recv(p)
		s.FrontEndSend(p, 2, 1<<20, nil)
	})
	k.Spawn("recv", func(p *sim.Proc) {
		var got int64
		for got < 1<<20 {
			c, ok := s.Disks[2].Recv(p)
			if !ok {
				return
			}
			got += c.Bytes
			s.Disks[2].Release(c.Bytes)
		}
	})
	k.Run()
	if s.FE.ReceivedBytes() != 1<<20 {
		t.Errorf("FE received %d bytes", s.FE.ReceivedBytes())
	}
	// Each FE leg crosses exactly one disk loop.
	if s.LoopBytesMoved() != 2<<20 {
		t.Errorf("loops moved %d bytes, want 2 MB", s.LoopBytesMoved())
	}
}
