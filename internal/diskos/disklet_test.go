package diskos

import (
	"testing"

	"howsim/internal/sim"
)

// selectDisklet is the canonical example: filter tuples, emit the
// selected fraction.
func selectDisklet(tupleBytes int64, selectivity float64, cyclesPerTuple int64) Disklet {
	return Disklet{
		Name:         "select",
		ScratchBytes: 1 << 20,
		Process: func(n int64) (int64, int64) {
			t := n / tupleBytes
			return int64(float64(n) * selectivity), t * cyclesPerTuple
		},
	}
}

func TestDiskletSelectStreamsToFrontEnd(t *testing.T) {
	k := sim.NewKernel()
	s := NewSystem(k, DefaultConfig(2))
	const input = 16 << 20
	var st DiskletStats
	k.Spawn("disklet", func(p *sim.Proc) {
		st = s.Disks[0].RunDisklet(p, selectDisklet(64, 0.01, 60),
			Region{Offset: 0, Length: input}, Sink{ToFrontEnd: true})
	})
	k.Spawn("fe", func(p *sim.Proc) {
		for {
			if _, ok := s.FE.Recv(p); !ok {
				return
			}
		}
	})
	k.Run()
	if st.BytesIn != input {
		t.Errorf("BytesIn = %d, want %d", st.BytesIn, input)
	}
	want := int64(input) / 100
	if st.BytesOut < want*9/10 || st.BytesOut > want*11/10 {
		t.Errorf("BytesOut = %d, want ~%d (1%% selectivity)", st.BytesOut, want)
	}
	if s.FE.ReceivedBytes() != st.BytesOut {
		t.Errorf("front-end received %d, disklet emitted %d", s.FE.ReceivedBytes(), st.BytesOut)
	}
	if st.Cycles != input/64*60 {
		t.Errorf("Cycles = %d, want %d", st.Cycles, input/64*60)
	}
	if st.Elapsed <= 0 {
		t.Error("no elapsed time recorded")
	}
}

func TestDiskletStreamsToPeer(t *testing.T) {
	k := sim.NewKernel()
	s := NewSystem(k, DefaultConfig(2))
	const input = 8 << 20
	passthrough := Disklet{
		Name:         "forward",
		ScratchBytes: 1 << 20,
		Process:      func(n int64) (int64, int64) { return n, n / 100 * 10 },
	}
	var got int64
	k.Spawn("recv", func(p *sim.Proc) {
		for got < input {
			c, ok := s.Disks[1].Recv(p)
			if !ok {
				return
			}
			got += c.Bytes
			s.Disks[1].Release(c.Bytes)
		}
	})
	k.Spawn("disklet", func(p *sim.Proc) {
		s.Disks[0].RunDisklet(p, passthrough,
			Region{Offset: 0, Length: input}, Sink{PeerID: 1})
	})
	k.Run()
	if got != input {
		t.Errorf("peer received %d bytes, want %d", got, input)
	}
	if s.LoopBytesMoved() != input {
		t.Errorf("loop moved %d bytes, want %d", s.LoopBytesMoved(), input)
	}
}

func TestDiskletFlushEmitsFinalResult(t *testing.T) {
	k := sim.NewKernel()
	s := NewSystem(k, DefaultConfig(1))
	agg := Disklet{
		Name:         "aggregate",
		ScratchBytes: 1 << 20,
		Process:      func(n int64) (int64, int64) { return 0, n / 64 * 40 },
		Flush:        func() (int64, int64) { return 512, 1000 },
	}
	k.Spawn("fe", func(p *sim.Proc) {
		s.FE.Recv(p)
	})
	var st DiskletStats
	k.Spawn("disklet", func(p *sim.Proc) {
		st = s.Disks[0].RunDisklet(p, agg,
			Region{Offset: 0, Length: 4 << 20}, Sink{ToFrontEnd: true})
	})
	k.Run()
	if st.BytesOut != 512 {
		t.Errorf("aggregate emitted %d bytes, want the 512-byte result", st.BytesOut)
	}
}

func TestDiskletScratchSandbox(t *testing.T) {
	// A disklet asking for more memory than the drive has is rejected;
	// two disklets whose combined scratch exceeds the drive serialize.
	k := sim.NewKernel()
	s := NewSystem(k, DefaultConfig(1))
	scratch := s.ScratchBytes()
	k.Spawn("greedy", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("oversized scratch request should panic")
			}
		}()
		s.Disks[0].RunDisklet(p, Disklet{
			Name: "greedy", ScratchBytes: scratch + 1,
			Process: func(int64) (int64, int64) { return 0, 0 },
		}, Region{Offset: 0, Length: 1 << 20}, Sink{ToFrontEnd: true})
	})
	k.Run()

	k2 := sim.NewKernel()
	s2 := NewSystem(k2, DefaultConfig(1))
	half := s2.ScratchBytes()*2/3 + 1 // two of these cannot coexist
	var first, second sim.Time
	mk := func(done *sim.Time) func(*sim.Proc) {
		return func(p *sim.Proc) {
			s2.Disks[0].RunDisklet(p, Disklet{
				Name: "d", ScratchBytes: half,
				Process: func(n int64) (int64, int64) { return 0, n },
			}, Region{Offset: 0, Length: 4 << 20}, Sink{ToFrontEnd: true})
			*done = p.Now()
		}
	}
	k2.Spawn("d1", mk(&first))
	k2.Spawn("d2", mk(&second))
	k2.Run()
	if first == second {
		t.Error("two disklets exceeding memory together should serialize")
	}
}
