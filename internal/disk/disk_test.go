package disk

import (
	"math"
	"testing"
	"testing/quick"

	"howsim/internal/probe"
	"howsim/internal/sim"
)

func TestSpecCapacityAndRates(t *testing.T) {
	s := Cheetah9LP()
	capGB := float64(s.CapacityBytes()) / 1e9
	if capGB < 8.5 || capGB > 9.5 {
		t.Errorf("Cheetah capacity = %.2f GB, want ~9.1 GB", capGB)
	}
	if r := s.MaxMediaRate() / 1e6; r < 20.5 || r > 22 {
		t.Errorf("Cheetah outer rate = %.1f MB/s, want ~21.3", r)
	}
	if r := s.MinMediaRate() / 1e6; r < 14 || r > 15.2 {
		t.Errorf("Cheetah inner rate = %.1f MB/s, want ~14.5", r)
	}

	h := HitachiDK3E1T91()
	if r := h.MaxMediaRate() / 1e6; r < 26.3 || r > 28.3 {
		t.Errorf("Hitachi outer rate = %.1f MB/s, want ~27.3", r)
	}
	if r := h.MinMediaRate() / 1e6; r < 17.3 || r > 19.3 {
		t.Errorf("Hitachi inner rate = %.1f MB/s, want ~18.3", r)
	}
}

func TestRotationPeriod(t *testing.T) {
	s := Cheetah9LP()
	want := 60.0 / 10025 * 1000 // ms
	got := s.RotationPeriod().Milliseconds()
	if math.Abs(got-want) > 0.01 {
		t.Errorf("rotation period = %.3f ms, want %.3f", got, want)
	}
}

func TestSeekCurveCalibration(t *testing.T) {
	s := Cheetah9LP()
	c := newSeekCurve(s.TrackToTrackRead, s.AvgSeekRead, s.MaxSeekRead, s.TotalCylinders())
	if got := c.seekTime(1); got != s.TrackToTrackRead {
		t.Errorf("seek(1) = %v, want track-to-track %v", got, s.TrackToTrackRead)
	}
	third := s.TotalCylinders() / 3
	if got := c.seekTime(third); math.Abs(got.Milliseconds()-s.AvgSeekRead.Milliseconds()) > 0.05 {
		t.Errorf("seek(C/3) = %v, want avg %v", got, s.AvgSeekRead)
	}
	if got := c.seekTime(s.TotalCylinders() - 1); math.Abs(got.Milliseconds()-s.MaxSeekRead.Milliseconds()) > 0.05 {
		t.Errorf("seek(C-1) = %v, want max %v", got, s.MaxSeekRead)
	}
	if c.seekTime(0) != 0 {
		t.Error("seek(0) should be 0")
	}
}

func TestSeekCurveMonotonic(t *testing.T) {
	s := Cheetah9LP()
	c := newSeekCurve(s.TrackToTrackRead, s.AvgSeekRead, s.MaxSeekRead, s.TotalCylinders())
	f := func(a, b uint16) bool {
		x, y := int(a)%s.TotalCylinders(), int(b)%s.TotalCylinders()
		if x > y {
			x, y = y, x
		}
		return c.seekTime(x) <= c.seekTime(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeometryRoundTrip(t *testing.T) {
	g := newGeometry(Cheetah9LP())
	// Walk a sample of LBAs; locations must be in range and cylinders
	// non-decreasing with LBA.
	lastCyl := -1
	for lba := int64(0); lba < g.totalSectors; lba += g.totalSectors / 1000 {
		loc := g.locate(lba)
		if loc.cylinder < lastCyl {
			t.Fatalf("cylinder decreased at LBA %d", lba)
		}
		if loc.sectorInTrk >= int64(loc.spt) {
			t.Fatalf("sector-in-track %d >= spt %d", loc.sectorInTrk, loc.spt)
		}
		lastCyl = loc.cylinder
	}
	if got := g.locate(g.totalSectors - 1); got.cylinder >= g.totalCyl {
		t.Errorf("last sector cylinder %d out of range", got.cylinder)
	}
}

func TestGeometryOutOfRangePanics(t *testing.T) {
	g := newGeometry(Cheetah9LP())
	defer func() {
		if recover() == nil {
			t.Error("locate beyond capacity should panic")
		}
	}()
	g.locate(g.totalSectors)
}

// sequentialReadRate measures achieved throughput for a large sequential
// read issued as chunked requests.
func sequentialReadRate(t *testing.T, chunk int64, total int64) float64 {
	t.Helper()
	k := sim.NewKernel()
	d := New(k, "d0", Cheetah9LP())
	var elapsed sim.Time
	k.Spawn("reader", func(p *sim.Proc) {
		start := p.Now()
		for off := int64(0); off < total; off += chunk {
			d.Read(p, off, chunk)
		}
		elapsed = p.Now() - start
	})
	k.Run()
	return float64(total) / elapsed.Seconds()
}

func TestSequentialReadApproachesMediaRate(t *testing.T) {
	rate := sequentialReadRate(t, 256<<10, 64<<20) // 64 MB in 256 KB requests
	outer := Cheetah9LP().MaxMediaRate()
	if rate < 0.85*outer || rate > 1.02*outer {
		t.Errorf("sequential read rate = %.1f MB/s, want near outer media rate %.1f MB/s",
			rate/1e6, outer/1e6)
	}
}

func TestRandomReadsPaySeekAndRotation(t *testing.T) {
	k := sim.NewKernel()
	spec := Cheetah9LP()
	d := New(k, "d0", spec)
	const n = 64
	var elapsed sim.Time
	k.Spawn("reader", func(p *sim.Proc) {
		start := p.Now()
		capacity := d.Capacity()
		// Deterministic scattered offsets across the whole disk.
		for i := 0; i < n; i++ {
			off := (int64(i) * 2654435761 % (capacity / SectorSize / 2)) * SectorSize
			d.Read(p, off, 8<<10)
		}
		elapsed = p.Now() - start
	})
	k.Run()
	perOp := elapsed / n
	// Random 8 KB reads should cost several ms each (seek + ~half
	// rotation + transfer), far from the sequential streaming cost.
	if perOp < 2*sim.Millisecond {
		t.Errorf("random read cost %v/op, implausibly cheap", perOp)
	}
	if perOp > 25*sim.Millisecond {
		t.Errorf("random read cost %v/op, implausibly expensive", perOp)
	}
	st := d.Stats()
	if st.Seeks < n/2 {
		t.Errorf("only %d seeks for %d scattered reads", st.Seeks, n)
	}
}

func TestInnerZoneSlowerThanOuter(t *testing.T) {
	k := sim.NewKernel()
	d := New(k, "d0", Cheetah9LP())
	var outerTime, innerTime sim.Time
	k.Spawn("reader", func(p *sim.Proc) {
		const sz = 16 << 20
		start := p.Now()
		for off := int64(0); off < sz; off += 256 << 10 {
			d.Read(p, off, 256<<10)
		}
		outerTime = p.Now() - start
		base := (d.Capacity() - sz - (1 << 20)) / SectorSize * SectorSize
		start = p.Now()
		for off := int64(0); off < sz; off += 256 << 10 {
			d.Read(p, base+off, 256<<10)
		}
		innerTime = p.Now() - start
	})
	k.Run()
	if innerTime <= outerTime {
		t.Errorf("inner zone read (%v) should be slower than outer (%v)", innerTime, outerTime)
	}
	ratio := float64(innerTime) / float64(outerTime)
	want := Cheetah9LP().MaxMediaRate() / Cheetah9LP().MinMediaRate()
	if math.Abs(ratio-want) > 0.25 {
		t.Errorf("inner/outer time ratio = %.2f, want ~%.2f", ratio, want)
	}
}

func TestWriteSlowerSeekThanRead(t *testing.T) {
	s := Cheetah9LP()
	r := newSeekCurve(s.TrackToTrackRead, s.AvgSeekRead, s.MaxSeekRead, s.TotalCylinders())
	w := newSeekCurve(s.TrackToTrackWrite, s.AvgSeekWrite, s.MaxSeekWrite, s.TotalCylinders())
	for _, d := range []int{1, 100, 2000, 6000} {
		if w.seekTime(d) <= r.seekTime(d) {
			t.Errorf("write seek(%d) = %v not slower than read %v", d, w.seekTime(d), r.seekTime(d))
		}
	}
}

func TestInterleavedReadWriteCostsSeeks(t *testing.T) {
	// Alternating between a read region and a distant write region must
	// cost far more than the pure sequential case — this is the effect
	// that motivates NOW-sort's separate read/write disk groups.
	k := sim.NewKernel()
	d := New(k, "d0", Cheetah9LP())
	var interleaved sim.Time
	k.Spawn("worker", func(p *sim.Proc) {
		writeBase := d.Capacity() / 2 / SectorSize * SectorSize
		start := p.Now()
		for i := int64(0); i < 32; i++ {
			d.Read(p, i*(256<<10), 256<<10)
			d.Write(p, writeBase+i*(256<<10), 256<<10)
		}
		interleaved = p.Now() - start
	})
	k.Run()

	k2 := sim.NewKernel()
	d2 := New(k2, "d0", Cheetah9LP())
	var sequential sim.Time
	k2.Spawn("worker", func(p *sim.Proc) {
		start := p.Now()
		for i := int64(0); i < 64; i++ {
			d2.Read(p, i*(256<<10), 256<<10)
		}
		sequential = p.Now() - start
	})
	k2.Run()

	if float64(interleaved) < 1.2*float64(sequential) {
		t.Errorf("interleaved r/w (%v) should cost well above sequential (%v)", interleaved, sequential)
	}
}

// probedDisk builds a drive on k that records into a probe sink, so a
// test can read each request's service start from the drive's service
// spans.
func probedDisk(k *sim.Kernel, name string) (*Disk, *probe.Sink) {
	sink := probe.NewSinkCap(1 << 10)
	k.SetProbe(sink)
	return New(k, name, Cheetah9LP()), sink
}

// serviceStarts returns when the drive began servicing each of reqs:
// the start of the probe service span that ended at the request's
// finish. A single-arm drive serves one request at a time, so every
// request has its own span and no two spans end at the same instant.
func serviceStarts(t *testing.T, sink *probe.Sink, reqs []*Request) []sim.Time {
	t.Helper()
	startAt := map[int64]int64{}
	sink.EachSpan(func(sp probe.Span) {
		if sp.Kind == probe.KindService {
			startAt[sp.End] = sp.Start
		}
	})
	if len(startAt) != len(reqs) {
		t.Fatalf("%d distinct service spans for %d requests", len(startAt), len(reqs))
	}
	starts := make([]sim.Time, len(reqs))
	for i, r := range reqs {
		s, ok := startAt[int64(r.Finished)]
		if !ok {
			t.Fatalf("request %d (finished %v) has no service span", i, r.Finished)
		}
		starts[i] = sim.Time(s)
	}
	return starts
}

func TestAsyncRequestsOverlapQueueing(t *testing.T) {
	k := sim.NewKernel()
	d, sink := probedDisk(k, "d0")
	var reqs []*Request
	var queued []sim.Time
	k.Spawn("issuer", func(p *sim.Proc) {
		for i := int64(0); i < 4; i++ {
			queued = append(queued, p.Now())
			reqs = append(reqs, d.Submit(&Request{Offset: i * (256 << 10), Length: 256 << 10}))
		}
		for _, r := range reqs {
			r.Wait(p)
		}
	})
	k.Run()
	started := serviceStarts(t, sink, reqs)
	for i, r := range reqs {
		if !r.Done() {
			t.Fatalf("request %d not completed", i)
		}
		if r.Finished < started[i] || started[i] < queued[i] {
			t.Errorf("request %d has inconsistent timestamps %v/%v/%v", i, queued[i], started[i], r.Finished)
		}
	}
	// FCFS: finish order matches submit order.
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Finished < reqs[i-1].Finished {
			t.Error("FCFS order violated")
		}
	}
}

// TestSubmitKeepsQueueDeep pins the lio_listio-style issue pattern:
// requests submitted back to back are all queued at the drive before
// the first completes, so the device never goes idle between them, and
// the single arm still serializes their media service.
func TestSubmitKeepsQueueDeep(t *testing.T) {
	k := sim.NewKernel()
	d, sink := probedDisk(k, "d0")
	var reqs []*Request
	var queued []sim.Time
	k.Spawn("issuer", func(p *sim.Proc) {
		for i := int64(0); i < 4; i++ {
			queued = append(queued, p.Now())
			reqs = append(reqs, d.Submit(&Request{Offset: i * (256 << 10), Length: 256 << 10}))
		}
		for _, r := range reqs {
			r.Wait(p)
		}
	})
	k.Run()
	started := serviceStarts(t, sink, reqs)
	if queued[3] >= reqs[0].Finished {
		t.Error("all requests should be queued before the first completes")
	}
	for i := 1; i < 4; i++ {
		if started[i] < reqs[i-1].Finished {
			t.Error("a single-arm drive must serialize media service")
		}
	}
}

// TestRequestWaitFunc checks the callback form of Wait: a pending
// request runs the continuation at its completion, a completed one at
// once.
func TestRequestWaitFunc(t *testing.T) {
	k := sim.NewKernel()
	d := New(k, "d0", Cheetah9LP())
	tk := k.NewTask("waiter")
	r := d.Submit(&Request{Length: 64 << 10})
	var at []sim.Time
	r.WaitFunc(tk, func() {
		at = append(at, k.Now())
		r.WaitFunc(tk, func() { at = append(at, k.Now()) })
	})
	k.Run()
	if len(at) != 2 || at[0] != r.Finished || at[1] != r.Finished {
		t.Fatalf("continuations ran at %v, want twice at completion %v", at, r.Finished)
	}
	tk.Finish()
}

func TestUnalignedRequestPanics(t *testing.T) {
	k := sim.NewKernel()
	d := New(k, "d0", Cheetah9LP())
	k.Spawn("bad", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("unaligned request should panic")
			}
		}()
		d.Read(p, 100, 512)
	})
	k.Run()
}

func TestStatsAccounting(t *testing.T) {
	k := sim.NewKernel()
	d := New(k, "d0", Cheetah9LP())
	k.Spawn("w", func(p *sim.Proc) {
		d.Read(p, 0, 1<<20)
		d.Write(p, 1<<20, 512<<10)
	})
	k.Run()
	st := d.Stats()
	if st.BytesRead != 1<<20 {
		t.Errorf("BytesRead = %d, want %d", st.BytesRead, 1<<20)
	}
	if st.BytesWritten != 512<<10 {
		t.Errorf("BytesWritten = %d, want %d", st.BytesWritten, 512<<10)
	}
	if st.Requests != 2 {
		t.Errorf("Requests = %d, want 2", st.Requests)
	}
	if st.BusyTime <= 0 || d.Utilization() <= 0 {
		t.Error("busy time should be positive after I/O")
	}
}

func TestIdlePrefetchMakesNextSequentialReadCheap(t *testing.T) {
	k := sim.NewKernel()
	d := New(k, "d0", Cheetah9LP())
	var firstCost, secondCost sim.Time
	k.Spawn("r", func(p *sim.Proc) {
		t0 := p.Now()
		d.Read(p, 0, 64<<10)
		firstCost = p.Now() - t0
		p.Delay(20 * sim.Millisecond) // idle: drive prefetches ahead
		t1 := p.Now()
		d.Read(p, 64<<10, 64<<10)
		secondCost = p.Now() - t1
	})
	k.Run()
	if secondCost >= firstCost {
		t.Errorf("prefetched read (%v) should be cheaper than cold read (%v)", secondCost, firstCost)
	}
	if d.Stats().CacheHitBytes == 0 {
		t.Error("expected cache hit bytes from read-ahead")
	}
}

func TestTransferTimePropertyLinear(t *testing.T) {
	// Property: transfer time within one zone scales linearly with size
	// (modulo cylinder-switch quantization).
	k := sim.NewKernel()
	d := New(k, "d0", Cheetah9LP())
	one := d.transferTime(0, 128)
	four := d.transferTime(0, 512)
	ratio := float64(four) / float64(one)
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("4x sectors took %.2fx time, want ~4x", ratio)
	}
}
