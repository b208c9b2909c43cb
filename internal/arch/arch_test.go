package arch

import (
	"testing"

	"howsim/internal/sim"
)

func TestBaselineConfigs(t *testing.T) {
	a := ActiveDisks(64)
	if a.Kind != KindActiveDisk || a.Disks != 64 || a.LoopBytesPerSec != 100e6 ||
		a.DiskMemBytes != 32<<20 || !a.DirectComm || a.FrontEndHz != 450e6 {
		t.Errorf("ActiveDisks baseline = %+v", a)
	}
	c := Cluster(32)
	if c.Kind != KindCluster || c.Disks != 32 {
		t.Errorf("Cluster baseline = %+v", c)
	}
	s := SMP(128)
	if s.Kind != KindSMP || s.LoopBytesPerSec != 100e6 {
		t.Errorf("SMP baseline = %+v", s)
	}
}

func TestVariantMethods(t *testing.T) {
	c := ActiveDisks(16).WithFastIO()
	if c.LoopBytesPerSec != 200e6 {
		t.Error("WithFastIO did not double the loop rate")
	}
	if c = ActiveDisks(16).WithDiskMemory(128 << 20); c.DiskMemBytes != 128<<20 {
		t.Error("WithDiskMemory not applied")
	}
	if c = ActiveDisks(16).WithFrontEndOnly(); c.DirectComm {
		t.Error("WithFrontEndOnly not applied")
	}
	if c = ActiveDisks(16).WithFastDisk(); !c.FastDisk {
		t.Error("WithFastDisk not applied")
	}
	if c = ActiveDisks(16).WithFrontEnd(1e9); c.FrontEndHz != 1e9 {
		t.Error("WithFrontEnd not applied")
	}
}

func TestNames(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{ActiveDisks(64), "active-64"},
		{ActiveDisks(64).WithFastIO(), "active-64-fastio"},
		{ActiveDisks(64).WithDiskMemory(64 << 20), "active-64-64mb"},
		{ActiveDisks(64).WithFrontEndOnly(), "active-64-feonly"},
		{Cluster(128), "cluster-128"},
		{SMP(16).WithFastDisk(), "smp-16-fastdisk"},
		{ActiveDisks(16).WithFrontEnd(1e9), "active-16-fe1000mhz"},
		{ActiveDisks(16).WithEmbeddedCPU(400e6), "active-16-emb400mhz"},
		{Cluster(8).WithDegradedDisks(1, 0.5), "cluster-8-deg1x0.5"},
	}
	for _, c := range cases {
		if got := c.cfg.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
}

// TestDistinctConfigsHaveDistinctNames: cmd/experiments names each
// run's trace file after its config, so two configs built from the
// knobs the experiments vary must never share a name.
func TestDistinctConfigsHaveDistinctNames(t *testing.T) {
	seen := map[string]Config{}
	for _, n := range []int{4, 8, 16, 32, 64, 128, 256} {
		ad := ActiveDisks(n)
		cfgs := []Config{
			ad, ad.WithFastIO(), ad.WithFastDisk(), ad.WithDiskMemory(64 << 20),
			ad.WithFrontEndOnly(), ad.WithFibreSwitch(4), ad.WithFibreSwitch(8),
			ad.WithFrontEnd(1e9), ad.WithEmbeddedCPU(400e6), ad.WithEmbeddedCPU(600e6),
			Cluster(n), Cluster(n).WithFastDisk(), SMP(n), SMP(n).WithFastIO(), SMP(n).WithFastDisk(),
		}
		for _, c := range cfgs {
			cfgs = append(cfgs, c.WithDegradedDisks(1, 0.5))
		}
		for _, c := range cfgs {
			if prev, ok := seen[c.Name()]; ok && prev != c {
				t.Errorf("%+v and %+v are both named %q", prev, c, c.Name())
			}
			seen[c.Name()] = c
		}
	}
}

func TestStudiedSizes(t *testing.T) {
	want := []int{16, 32, 64, 128}
	got := StudiedSizes()
	if len(got) != len(want) {
		t.Fatalf("StudiedSizes = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("StudiedSizes = %v, want %v", got, want)
		}
	}
}

func TestBuilders(t *testing.T) {
	k := sim.NewKernel()
	ad := ActiveDisks(4).BuildActive(k)
	if len(ad.Disks) != 4 {
		t.Errorf("Active build has %d disks", len(ad.Disks))
	}
	cl := Cluster(4).BuildCluster(sim.NewKernel())
	if len(cl.Nodes) != 4 {
		t.Errorf("cluster build has %d nodes", len(cl.Nodes))
	}
	sm := SMP(4).BuildSMP(sim.NewKernel())
	if len(sm.CPUs) != 4 || len(sm.Disks) != 4 {
		t.Errorf("SMP build has %d cpus, %d disks", len(sm.CPUs), len(sm.Disks))
	}
}

func TestBuildKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("building the wrong kind should panic")
		}
	}()
	Cluster(4).BuildActive(sim.NewKernel())
}

func TestFastDiskSpec(t *testing.T) {
	k := sim.NewKernel()
	base := ActiveDisks(2).BuildActive(k)
	fast := ActiveDisks(2).WithFastDisk().BuildActive(sim.NewKernel())
	if fast.Disks[0].Disk.Spec().RPM <= base.Disks[0].Disk.Spec().RPM {
		t.Error("Fast Disk variant should spin faster")
	}
}

func TestWithFibreSwitch(t *testing.T) {
	c := ActiveDisks(128).WithFibreSwitch(8)
	if c.SwitchedLoops != 8 {
		t.Error("WithFibreSwitch not applied")
	}
	if c.Name() != "active-128-fsw8" {
		t.Errorf("Name() = %q", c.Name())
	}
	s := c.BuildActive(sim.NewKernel())
	if s.Loops() != 8 {
		t.Errorf("built system has %d loops, want 8", s.Loops())
	}
}
