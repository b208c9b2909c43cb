package diskos

import (
	"testing"

	"howsim/internal/sim"
)

// scanDisklet is a disklet as the tasks write one: a process body that
// reads length bytes of its drive's media in 256 KB requests, charges
// cyclesPerKB per KB read, and streams keepPct percent of what it
// reads to send in 1 MB batches. It returns the bytes it sent.
func scanDisklet(p *sim.Proc, ad *ActiveDisk, length, cyclesPerKB, keepPct int64,
	send func(p *sim.Proc, n int64)) int64 {
	const ioChunk, batch = 256 << 10, 1 << 20
	var pend, sent int64
	for off := int64(0); off < length; off += ioChunk {
		ad.ReadLocal(p, off, ioChunk)
		ad.Compute(p, ioChunk>>10*cyclesPerKB)
		if pend += ioChunk * keepPct / 100; pend >= batch {
			send(p, pend)
			sent += pend
			pend = 0
		}
	}
	if pend > 0 {
		send(p, pend)
		sent += pend
	}
	return sent
}

func TestDiskletSelectStreamsToFrontEnd(t *testing.T) {
	k := sim.NewKernel()
	s := NewSystem(k, DefaultConfig(2))
	const input = 16 << 20
	ad := s.Disks[0]
	var sent int64
	k.Spawn("disklet", func(p *sim.Proc) {
		sent = scanDisklet(p, ad, input, 1000, 1, func(p *sim.Proc, n int64) { ad.SendToFrontEnd(p, n, nil) })
	})
	var got int64
	k.Spawn("fe", func(p *sim.Proc) {
		for {
			c, ok := s.FE.Recv(p)
			if !ok {
				return
			}
			got += c.Bytes
		}
	})
	k.Run()
	if want := int64(input) / 100; sent < want*9/10 || sent > want*11/10 {
		t.Errorf("sent %d bytes, want ~%d (1%% selectivity)", sent, want)
	}
	if got != sent || s.FE.ReceivedBytes() != sent {
		t.Errorf("front-end got %d (ReceivedBytes %d), disklet sent %d", got, s.FE.ReceivedBytes(), sent)
	}
	// The scan stays at the drive: only the matches cross the loop.
	if s.LoopBytesMoved() != sent {
		t.Errorf("loop moved %d bytes, want the %d sent", s.LoopBytesMoved(), sent)
	}
	if ad.CPU.Cycles() != input>>10*1000 {
		t.Errorf("embedded CPU ran %d cycles, want %d", ad.CPU.Cycles(), input>>10*1000)
	}
}

func TestDiskletStreamsToPeer(t *testing.T) {
	k := sim.NewKernel()
	s := NewSystem(k, DefaultConfig(2))
	const input = 8 << 20
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
		scanDisklet(p, s.Disks[0], input, 100, 100, func(p *sim.Proc, n int64) { s.Disks[0].Send(p, 1, n, nil) })
	})
	k.Run()
	if got != input {
		t.Errorf("peer received %d bytes, want %d", got, input)
	}
	if s.LoopBytesMoved() != input {
		t.Errorf("loop moved %d bytes, want %d", s.LoopBytesMoved(), input)
	}
}
