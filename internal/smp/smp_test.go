package smp

import (
	"testing"

	"howsim/internal/sim"
)

func TestMemoryScalesWithProcessors(t *testing.T) {
	k := sim.NewKernel()
	m64 := New(k, DefaultConfig(64))
	if m64.TotalMemoryBytes() != 4<<30 {
		t.Errorf("64-processor memory = %d, want 4 GB", m64.TotalMemoryBytes())
	}
	m128 := New(sim.NewKernel(), DefaultConfig(128))
	if m128.TotalMemoryBytes() != 8<<30 {
		t.Errorf("128-processor memory = %d, want 8 GB", m128.TotalMemoryBytes())
	}
}

func TestSharedFCIsBottleneck(t *testing.T) {
	// 16 processors each reading 25 MB concurrently: 400 MB total. The
	// disks could deliver ~16x20 MB/s = 320 MB/s but the shared dual
	// loop caps the farm at 200 MB/s, so elapsed >= 2s.
	k := sim.NewKernel()
	m := New(k, DefaultConfig(16))
	stripe := m.NewStripe(seq(16), 0)
	q := m.NewBlockQueue("read", 400<<20, 256<<10)
	var last sim.Time
	for i := 0; i < 16; i++ {
		i := i
		k.Spawn("reader", func(p *sim.Proc) {
			for {
				off, n, ok := q.Next(p, m.CPUs[i])
				if !ok {
					break
				}
				stripe.Read(p, m.CPUs[i], off, n)
			}
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	k.Run()
	floor := sim.Time(float64(400<<20) / 200e6 * float64(sim.Second))
	if last < floor {
		t.Errorf("farm read took %v, below the 200 MB/s loop floor %v", last, floor)
	}
	if last > 2*floor {
		t.Errorf("farm read took %v, want loop-bound near %v", last, floor)
	}
	if u := m.FC.Utilization(); u < 0.5 {
		t.Errorf("FC utilization = %.2f, want loop saturated", u)
	}
}

func TestFastIOVariantRelievesLoop(t *testing.T) {
	run := func(perLoop float64) sim.Time {
		cfg := DefaultConfig(16)
		cfg.LoopBytesPerSec = perLoop
		k := sim.NewKernel()
		m := New(k, cfg)
		stripe := m.NewStripe(seq(16), 0)
		q := m.NewBlockQueue("read", 400<<20, 256<<10)
		var last sim.Time
		for i := 0; i < 16; i++ {
			i := i
			k.Spawn("reader", func(p *sim.Proc) {
				for {
					off, n, ok := q.Next(p, m.CPUs[i])
					if !ok {
						break
					}
					stripe.Read(p, m.CPUs[i], off, n)
				}
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		k.Run()
		return last
	}
	base := run(100e6)
	fast := run(200e6)
	if float64(base)/float64(fast) < 1.4 {
		t.Errorf("400 MB/s loop speedup = %.2fx, want substantial (loop-bound workload)", float64(base)/float64(fast))
	}
}

func TestStripeSpreadsAcrossDisks(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, DefaultConfig(4))
	stripe := m.NewStripe(seq(4), 0)
	k.Spawn("r", func(p *sim.Proc) {
		stripe.Read(p, m.CPUs[0], 0, 256<<10) // exactly one 64 KB chunk per disk
	})
	k.Run()
	for i, d := range m.Disks {
		if got := d.Stats().BytesRead; got != 64<<10 {
			t.Errorf("disk %d read %d bytes, want 64 KB", i, got)
		}
	}
}

func TestStripeDiskGroups(t *testing.T) {
	// Read group on disks 0-1, write group on 2-3 (the NOW-sort-style
	// separation for sort/join).
	k := sim.NewKernel()
	m := New(k, DefaultConfig(4))
	readStripe := m.NewStripe([]int{0, 1}, 0)
	writeStripe := m.NewStripe([]int{2, 3}, 0)
	k.Spawn("w", func(p *sim.Proc) {
		readStripe.Read(p, m.CPUs[0], 0, 1<<20)
		writeStripe.Write(p, m.CPUs[0], 0, 1<<20)
	})
	k.Run()
	if m.Disks[0].Stats().BytesWritten != 0 || m.Disks[1].Stats().BytesWritten != 0 {
		t.Error("read group must not be written")
	}
	if m.Disks[2].Stats().BytesRead != 0 || m.Disks[3].Stats().BytesRead != 0 {
		t.Error("write group must not be read")
	}
	if m.Disks[2].Stats().BytesWritten != 512<<10 {
		t.Errorf("write-group disk wrote %d, want 512 KB", m.Disks[2].Stats().BytesWritten)
	}
}

func TestBlockQueueSelfScheduling(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, DefaultConfig(2))
	q := m.NewBlockQueue("q", 10*(256<<10), 256<<10)
	var grabbed []int64
	total := int64(0)
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn("w", func(p *sim.Proc) {
			for {
				off, n, ok := q.Next(p, m.CPUs[i])
				if !ok {
					return
				}
				grabbed = append(grabbed, off)
				total += n
				p.Delay(sim.Millisecond)
			}
		})
	}
	k.Run()
	if total != 10*(256<<10) {
		t.Errorf("workers consumed %d bytes, want all", total)
	}
	for i := 1; i < len(grabbed); i++ {
		if grabbed[i] <= grabbed[i-1] {
			t.Error("blocks must be handed out in layout order")
		}
	}
}

func TestBlockQueuePartialTail(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, DefaultConfig(1))
	q := m.NewBlockQueue("q", 300<<10, 256<<10)
	var sizes []int64
	k.Spawn("w", func(p *sim.Proc) {
		for {
			_, n, ok := q.Next(p, m.CPUs[0])
			if !ok {
				return
			}
			sizes = append(sizes, n)
		}
	})
	k.Run()
	if len(sizes) != 2 || sizes[0] != 256<<10 || sizes[1] != 44<<10 {
		t.Errorf("block sizes = %v, want [256KB 44KB]", sizes)
	}
}

func TestBlockTransferRate(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, DefaultConfig(4))
	var el sim.Time
	k.Spawn("x", func(p *sim.Proc) {
		t0 := p.Now()
		m.BlockTransfer(p, 521_000_000) // 1s at the engine's sustained rate
		el = p.Now() - t0
	})
	k.Run()
	if el < sim.Second || el > sim.Time(1.1*float64(sim.Second)) {
		t.Errorf("521 MB block transfer took %v, want ~1s (521 MB/s engine)", el)
	}
	if m.BlockTransferred() != 521_000_000 {
		t.Errorf("BlockTransferred = %d", m.BlockTransferred())
	}
}

// TestStripeReadAllocatesNothing checks a steady-state striped read
// allocates nothing: its chunk requests and member scratch come from
// the machine's free list.
func TestStripeReadAllocatesNothing(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	m := New(k, DefaultConfig(4))
	stripe := m.NewStripe(seq(4), 0)
	const n = 256 << 10
	var allocs float64
	k.Spawn("reader", func(p *sim.Proc) {
		off := int64(0)
		read := func() {
			stripe.Read(p, m.CPUs[0], off, n)
			off = (off + n) % (64 << 20)
		}
		// Warm the free lists, the disk queues and the event slab.
		for i := 0; i < 4; i++ {
			read()
		}
		allocs = testing.AllocsPerRun(100, read)
	})
	k.Run()
	if allocs != 0 {
		t.Errorf("Stripe.Read allocates %v per call in steady state, want 0", allocs)
	}
}

// TestMixedStripeSizesAllocateNothing checks that striped requests of
// mixed sizes allocate nothing once each process has issued its first
// request: three processes issue one-, eight- and three-chunk requests
// on one stripe, so the slice freed last is often the wrong size for
// the next request, which must reuse a fitting slice from further down
// the free list.
func TestMixedStripeSizesAllocateNothing(t *testing.T) {
	k := sim.NewKernel()
	defer k.Shutdown()
	m := New(k, DefaultConfig(4))
	stripe := m.NewStripe(seq(4), 0)
	for r, n := range []int64{64 << 10, 512 << 10, 192 << 10} {
		k.Spawn("io", func(p *sim.Proc) {
			off := int64(r) * (16 << 20)
			for i := 0; ; i++ {
				if i%3 == 0 {
					stripe.Write(p, m.CPUs[r], off, n)
				} else {
					stripe.Read(p, m.CPUs[r], off, n)
				}
				off = (off + n) % (64 << 20)
			}
		})
	}
	// Every process is past its first request, and the event slab and
	// the disk queues are warm.
	until := 40 * sim.Millisecond
	k.RunUntil(until)
	allocs := testing.AllocsPerRun(20, func() {
		until += 10 * sim.Millisecond
		k.RunUntil(until)
	})
	if allocs != 0 {
		t.Errorf("mixed-size striped I/O allocates %v per 10 ms in steady state, want 0", allocs)
	}
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
