package diskos

import (
	"testing"

	"howsim/internal/disk"
	"howsim/internal/fault"
	"howsim/internal/sim"
)

func TestDefaultConfigPaperBaseline(t *testing.T) {
	c := DefaultConfig(64)
	if c.DiskMemBytes != 32<<20 || c.EmbeddedHz != 200e6 {
		t.Errorf("baseline = %+v, want 32 MB / 200 MHz", c)
	}
	if c.Loops != 2 || c.LoopBytesPerSec != 100e6 {
		t.Error("baseline interconnect must be a dual 100 MB/s loop")
	}
	if !c.DirectComm {
		t.Error("baseline allows direct disk-to-disk communication")
	}
}

func TestCommBufScalesWithMemory(t *testing.T) {
	c32 := DefaultConfig(4)
	c64 := DefaultConfig(4)
	c64.DiskMemBytes = 64 << 20
	c128 := DefaultConfig(4)
	c128.DiskMemBytes = 128 << 20
	if c64.commBufBytes() != 2*c32.commBufBytes() {
		t.Errorf("64 MB commbuf = %d, want double of %d", c64.commBufBytes(), c32.commBufBytes())
	}
	if c128.commBufBytes() != 4*c32.commBufBytes() {
		t.Errorf("128 MB commbuf = %d, want quadruple of %d", c128.commBufBytes(), c32.commBufBytes())
	}
}

func TestLocalReadDoesNotTouchLoop(t *testing.T) {
	k := sim.NewKernel()
	s := NewSystem(k, DefaultConfig(2))
	k.Spawn("disklet", func(p *sim.Proc) {
		s.Disks[0].ReadLocal(p, 0, 1<<20)
	})
	k.Run()
	if s.Loop.BytesMoved() != 0 {
		t.Errorf("local read moved %d bytes on the loop, want 0", s.Loop.BytesMoved())
	}
	if s.Disks[0].Disk.Stats().BytesRead != 1<<20 {
		t.Error("media read not recorded")
	}
}

func TestDirectSendCrossesLoopOnce(t *testing.T) {
	k := sim.NewKernel()
	s := NewSystem(k, DefaultConfig(2))
	const bytes = 4 << 20
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
		s.Disks[0].Send(p, 1, bytes, "done")
	})
	k.Run()
	if s.Loop.BytesMoved() != bytes {
		t.Errorf("loop moved %d bytes, want exactly %d (one crossing)", s.Loop.BytesMoved(), bytes)
	}
	if s.FE.RelayedBytes() != 0 {
		t.Error("direct send must not touch the front-end")
	}
}

func TestRestrictedSendRelaysThroughFrontEnd(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.DirectComm = false
	k := sim.NewKernel()
	s := NewSystem(k, cfg)
	const bytes = 4 << 20
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
		s.Disks[0].Send(p, 1, bytes, nil)
	})
	k.Run()
	if s.Loop.BytesMoved() != 2*bytes {
		t.Errorf("loop moved %d bytes, want %d (two crossings)", s.Loop.BytesMoved(), 2*bytes)
	}
	if s.FE.RelayedBytes() != bytes {
		t.Errorf("front-end relayed %d bytes, want %d", s.FE.RelayedBytes(), bytes)
	}
}

func TestRestrictedSendSlowerThanDirect(t *testing.T) {
	run := func(direct bool) sim.Time {
		cfg := DefaultConfig(4)
		cfg.DirectComm = direct
		k := sim.NewKernel()
		s := NewSystem(k, cfg)
		const bytes = 32 << 20
		var done sim.Time
		for i := 0; i < 2; i++ {
			i := i
			k.Spawn("recv", func(p *sim.Proc) {
				var got int64
				for got < bytes {
					c, ok := s.Disks[2+i].Recv(p)
					if !ok {
						return
					}
					got += c.Bytes
					s.Disks[2+i].Release(c.Bytes)
				}
				if p.Now() > done {
					done = p.Now()
				}
			})
			k.Spawn("send", func(p *sim.Proc) {
				s.Disks[i].Send(p, 2+i, bytes, nil)
			})
		}
		k.Run()
		return done
	}
	direct := run(true)
	relayed := run(false)
	ratio := float64(relayed) / float64(direct)
	if ratio < 2 {
		t.Errorf("front-end relay slowdown = %.2fx, want >= 2x", ratio)
	}
}

func TestSendToFrontEnd(t *testing.T) {
	k := sim.NewKernel()
	s := NewSystem(k, DefaultConfig(2))
	k.Spawn("send", func(p *sim.Proc) {
		s.Disks[0].SendToFrontEnd(p, 1<<20, "result")
	})
	var got Chunk
	k.Spawn("fe", func(p *sim.Proc) {
		if c, ok := s.FE.Recv(p); ok {
			got = c
		}
	})
	k.Run()
	if got.Bytes != 1<<20 || got.Payload.(string) != "result" || got.Src != 0 {
		t.Errorf("front-end received %+v", got)
	}
	if s.FE.ReceivedBytes() != 1<<20 {
		t.Errorf("ReceivedBytes = %d", s.FE.ReceivedBytes())
	}
}

func TestStreamBackpressure(t *testing.T) {
	// A sender to a receiver that never consumes must stall once the
	// destination's communication buffers fill.
	k := sim.NewKernel()
	cfg := DefaultConfig(2)
	s := NewSystem(k, cfg)
	sent := false
	k.Spawn("send", func(p *sim.Proc) {
		s.Disks[0].Send(p, 1, cfg.commBufBytes()*4, nil)
		sent = true
	})
	k.Run()
	if sent {
		t.Error("send of 4x buffer capacity should stall without a consumer")
	}
	if k.Blocked() == 0 {
		t.Error("sender should be parked on buffer credit")
	}
}

func TestScratchSizing(t *testing.T) {
	cfg := DefaultConfig(2)
	k := sim.NewKernel()
	s := NewSystem(k, cfg)
	want := cfg.DiskMemBytes - cfg.commBufBytes()
	if s.ScratchBytes() != want {
		t.Errorf("scratch = %d, want %d", s.ScratchBytes(), want)
	}
	// 64 MB variant has more scratch despite doubled buffers.
	cfg64 := DefaultConfig(2)
	cfg64.DiskMemBytes = 64 << 20
	s64 := NewSystem(sim.NewKernel(), cfg64)
	if s64.ScratchBytes() <= s.ScratchBytes() {
		t.Error("64 MB disks must have more scratch than 32 MB disks")
	}
}

func TestLoopSharedAcrossDisks(t *testing.T) {
	// Aggregate loop bandwidth is 200 MB/s regardless of disk count: 8
	// concurrent senders moving 25 MB each (200 MB total) take ~1s.
	k := sim.NewKernel()
	s := NewSystem(k, DefaultConfig(16))
	var last sim.Time
	const bytes = 25 << 20
	for i := 0; i < 8; i++ {
		i := i
		dst := 8 + i
		k.Spawn("recv", func(p *sim.Proc) {
			var got int64
			for got < bytes {
				c, ok := s.Disks[dst].Recv(p)
				if !ok {
					return
				}
				got += c.Bytes
				s.Disks[dst].Release(c.Bytes)
			}
			if p.Now() > last {
				last = p.Now()
			}
		})
		k.Spawn("send", func(p *sim.Proc) {
			s.Disks[i].Send(p, dst, bytes, nil)
		})
	}
	k.Run()
	want := sim.Time(float64(8*bytes) / 200e6 * float64(sim.Second))
	if last < want || last > want+want/4 {
		t.Errorf("8x25 MB over the loop took %v, want ~%v", last, want)
	}
}

// TestChunkBoxesRecycled runs many streams through both kinds of inbox,
// so their free lists of chunk boxes are reused many times over: every
// stream's last chunk still carries its payload and every other chunk
// carries nil, and each inbox ends up with far fewer boxes than chunks
// it delivered.
func TestChunkBoxesRecycled(t *testing.T) {
	const streams = 40
	k := sim.NewKernel()
	s := NewSystem(k, DefaultConfig(2))
	chunk := s.ChunkBytes()
	size := func(i int) int64 { return int64(1+i%4)*chunk - int64(i%3)*512 }
	ad := s.Disks[1]
	delivered := 0
	k.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < streams; i++ {
			for left := size(i); left > 0; {
				c, ok := ad.Recv(p)
				if !ok {
					t.Fatal("disk inbox closed early")
				}
				delivered++
				left -= c.Bytes
				ad.Release(c.Bytes)
				var want any
				if left == 0 {
					want = i
				}
				src := 0
				if i%2 == 1 {
					src = FromFrontEnd
				}
				if c.Payload != want || c.Src != src {
					t.Errorf("stream %d: chunk from %d with %d bytes left carries %v, want %v from %d",
						i, c.Src, left, c.Payload, want, src)
				}
			}
		}
	})
	k.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < streams; i++ {
			if i%2 == 0 {
				s.Disks[0].Send(p, 1, size(i), i)
			} else {
				s.FrontEndSend(p, 1, size(i), i)
			}
		}
	})
	var fe []Chunk
	k.Spawn("fe", func(p *sim.Proc) {
		for {
			c, ok := s.FE.Recv(p)
			if !ok {
				return
			}
			fe = append(fe, c)
		}
	})
	k.Spawn("result", func(p *sim.Proc) {
		for i := 0; i < streams; i++ {
			var pl any
			if i%3 == 0 {
				pl = i
			}
			s.Disks[0].SendToFrontEnd(p, size(i), pl)
		}
		s.FE.CloseInbox()
	})
	k.Run()
	if delivered < 2*streams {
		t.Fatalf("disk received %d chunks from %d streams", delivered, streams)
	}
	if n := len(ad.inbox.free); n >= delivered/2 {
		t.Errorf("disk inbox made %d chunk boxes for %d chunks, want reuse", n, delivered)
	}
	if len(fe) != streams {
		t.Fatalf("front-end received %d chunks, want %d", len(fe), streams)
	}
	for i, c := range fe {
		var want any
		if i%3 == 0 {
			want = i
		}
		if c.Src != 0 || c.Bytes != size(i) || c.Payload != want {
			t.Errorf("front-end chunk %d = %+v, want %d bytes from disk 0 carrying %v", i, c, size(i), want)
		}
	}
	if n := len(s.FE.inbox.free); n >= streams/2 {
		t.Errorf("front-end inbox made %d chunk boxes for %d chunks, want reuse", n, streams)
	}
}

// TestDrivesShareModelPerSpec checks that the farm's drives share one
// disk model per distinct spec, that a derated drive gets its own, and
// that the hot spare follows the model of the drive it stands in for.
func TestDrivesShareModelPerSpec(t *testing.T) {
	cfg := DefaultConfig(4)
	slow := disk.Derated(cfg.DiskSpec, 0.5)
	cfg.SpecFor = func(i int) *disk.Spec {
		if i == 2 {
			return slow
		}
		return nil
	}
	k := sim.NewKernel()
	s := NewSystem(k, cfg)
	m := s.Disks[0].Disk.Model()
	if s.Disks[1].Disk.Model() != m || s.Disks[3].Disk.Model() != m {
		t.Error("drives of one spec do not share its model")
	}
	if s.Disks[2].Disk.Model() == m || s.Disks[2].Disk.Spec() != slow {
		t.Error("the derated drive shares the nominal model")
	}
	plan, err := fault.ParsePlan("seed=1,fail=2@1s,replica,spare")
	if err != nil {
		t.Fatal(err)
	}
	s.InstallFaults(plan)
	if s.Spare == nil || s.Spare.Model() != s.Disks[2].Disk.Model() {
		t.Error("the spare does not follow the failed drive's model")
	}
}
