// Package arch assembles the three architectures the paper compares —
// Active Disk farms, commodity PC clusters, and SMP-based disk farms —
// at the studied sizes (16, 32, 64, 128 disks) and exposes every design
// knob the evaluation varies: I/O interconnect bandwidth (200 vs
// 400 MB/s), per-disk memory (32/64/128 MB), communication architecture
// (direct disk-to-disk vs front-end relay), front-end clock, and the
// "Fast Disk" drive upgrade.
package arch

import (
	"fmt"

	"howsim/internal/cluster"
	"howsim/internal/disk"
	"howsim/internal/diskos"
	"howsim/internal/sim"
	"howsim/internal/smp"
)

// Kind selects one of the three architectures.
type Kind int

// The architectures under comparison.
const (
	KindActiveDisk Kind = iota
	KindCluster
	KindSMP
)

// String returns the architecture's display name.
func (k Kind) String() string {
	switch k {
	case KindActiveDisk:
		return "active"
	case KindCluster:
		return "cluster"
	case KindSMP:
		return "smp"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// StudiedSizes returns the configuration sizes of the core experiments.
func StudiedSizes() []int { return []int{16, 32, 64, 128} }

// Config is one machine configuration. Zero-valued knobs are filled with
// the paper's baseline by the constructors; use the With* methods for
// the variants.
type Config struct {
	Kind  Kind
	Disks int
	// FastDisk upgrades the drives to the Hitachi DK3E1T-91.
	FastDisk bool
	// LoopBytesPerSec is the per-loop FC rate for Active Disk and SMP
	// configurations (100e6 baseline; 200e6 is the "Fast I/O" variant).
	LoopBytesPerSec float64
	// DiskMemBytes is the Active Disk per-drive memory (32/64/128 MB).
	DiskMemBytes int64
	// DirectComm permits disk-to-disk transfers on Active Disks.
	DirectComm bool
	// FrontEndHz is the Active Disk front-end clock (450 MHz or 1 GHz).
	FrontEndHz float64
	// SwitchedLoops splits the Active Disk farm across this many dual
	// loops joined by a non-blocking FibreSwitch (the paper's
	// future-work recommendation for configurations beyond 64 disks).
	// 0 or 1 is the baseline single shared loop.
	SwitchedLoops int
	// EmbeddedHz is the Active Disk embedded processor clock (200 MHz
	// baseline; the paper argues this "will evolve as the disk drives
	// evolve").
	EmbeddedHz float64
	// DegradedDisks injects that many straggler drives (disks 0..n-1)
	// derated to DegradeFactor of nominal performance.
	DegradedDisks int
	// DegradeFactor is the straggler drives' performance fraction.
	DegradeFactor float64
}

// ActiveDisks returns the baseline Active Disk configuration with n
// drives.
func ActiveDisks(n int) Config {
	return Config{Kind: KindActiveDisk, Disks: n, LoopBytesPerSec: 100e6,
		DiskMemBytes: 32 << 20, DirectComm: true, FrontEndHz: 450e6,
		EmbeddedHz: 200e6}
}

// Cluster returns the baseline commodity-cluster configuration with n
// nodes (one disk each).
func Cluster(n int) Config {
	return Config{Kind: KindCluster, Disks: n}
}

// SMP returns the baseline SMP configuration with n processors and n
// disks.
func SMP(n int) Config {
	return Config{Kind: KindSMP, Disks: n, LoopBytesPerSec: 100e6}
}

// WithFastIO doubles the serial I/O interconnect to 400 MB/s aggregate.
func (c Config) WithFastIO() Config {
	c.LoopBytesPerSec = 200e6
	return c
}

// WithDiskMemory sets the Active Disk per-drive memory.
func (c Config) WithDiskMemory(bytes int64) Config {
	c.DiskMemBytes = bytes
	return c
}

// WithFrontEndOnly restricts Active Disk communication to pass through
// the front-end host (the Figure 5 experiment).
func (c Config) WithFrontEndOnly() Config {
	c.DirectComm = false
	return c
}

// WithFastDisk upgrades the drives to the Hitachi DK3E1T-91.
func (c Config) WithFastDisk() Config {
	c.FastDisk = true
	return c
}

// WithFrontEnd sets the Active Disk front-end clock.
func (c Config) WithFrontEnd(hz float64) Config {
	c.FrontEndHz = hz
	return c
}

// WithFibreSwitch splits the Active Disk farm across the given number
// of dual loops joined by a non-blocking FibreSwitch.
func (c Config) WithFibreSwitch(loops int) Config {
	c.SwitchedLoops = loops
	return c
}

// WithEmbeddedCPU sets the Active Disk embedded processor clock.
func (c Config) WithEmbeddedCPU(hz float64) Config {
	c.EmbeddedHz = hz
	return c
}

// WithDegradedDisks injects n straggler drives running at factor of
// nominal performance (failure-injection studies).
func (c Config) WithDegradedDisks(n int, factor float64) Config {
	c.DegradedDisks = n
	c.DegradeFactor = factor
	return c
}

// specFor builds the per-disk spec override for degraded farms, or nil
// for uniform ones.
func (c Config) specFor() func(int) *disk.Spec {
	if c.DegradedDisks <= 0 || c.DegradeFactor <= 0 || c.DegradeFactor >= 1 {
		return nil
	}
	slow := disk.Derated(c.spec(), c.DegradeFactor)
	n := c.DegradedDisks
	return func(i int) *disk.Spec {
		if i < n {
			return slow
		}
		return nil
	}
}

// spec returns the drive specification for this configuration.
func (c Config) spec() *disk.Spec {
	if c.FastDisk {
		return disk.HitachiDK3E1T91()
	}
	return disk.Cheetah9LP()
}

// Name returns a compact label, e.g. "active-64" or "smp-128-fastio".
// Each knob that differs from the baseline adds a suffix, so the
// configurations the experiments build have distinct names.
func (c Config) Name() string {
	name := fmt.Sprintf("%s-%d", c.Kind, c.Disks)
	if c.LoopBytesPerSec == 200e6 {
		name += "-fastio"
	}
	if c.FastDisk {
		name += "-fastdisk"
	}
	if c.Kind == KindActiveDisk {
		if c.DiskMemBytes != 32<<20 {
			name += fmt.Sprintf("-%dmb", c.DiskMemBytes>>20)
		}
		if !c.DirectComm {
			name += "-feonly"
		}
		if c.SwitchedLoops > 1 {
			name += fmt.Sprintf("-fsw%d", c.SwitchedLoops)
		}
		if c.FrontEndHz != 450e6 {
			name += fmt.Sprintf("-fe%gmhz", c.FrontEndHz/1e6)
		}
		if c.EmbeddedHz != 200e6 {
			name += fmt.Sprintf("-emb%gmhz", c.EmbeddedHz/1e6)
		}
	}
	if c.DegradedDisks > 0 {
		name += fmt.Sprintf("-deg%dx%g", c.DegradedDisks, c.DegradeFactor)
	}
	return name
}

// BuildActive constructs the Active Disk system for this configuration.
func (c Config) BuildActive(k *sim.Kernel) *diskos.System {
	return diskos.NewSystem(k, c.activeConfig())
}

// BuildActiveSharded constructs the Active Disk system for this
// configuration partitioned across a ShardGroup: interconnect and
// front-end on the hub, one disk per shard. The group must have
// c.Disks shards.
func (c Config) BuildActiveSharded(g *sim.ShardGroup) *diskos.System {
	return diskos.NewSystemSharded(g, c.activeConfig())
}

// activeConfig translates this configuration into the diskos one that
// both Active Disk builders use.
func (c Config) activeConfig() diskos.Config {
	if c.Kind != KindActiveDisk {
		panic("arch: building an Active Disk system from a non-Active configuration")
	}
	cfg := diskos.DefaultConfig(c.Disks)
	cfg.DiskSpec = c.spec()
	cfg.LoopBytesPerSec = c.LoopBytesPerSec
	cfg.DiskMemBytes = c.DiskMemBytes
	cfg.DirectComm = c.DirectComm
	cfg.FrontEndHz = c.FrontEndHz
	cfg.SwitchedLoops = c.SwitchedLoops
	if c.EmbeddedHz > 0 {
		cfg.EmbeddedHz = c.EmbeddedHz
	}
	cfg.SpecFor = c.specFor()
	return cfg
}

// BuildCluster constructs the cluster for this configuration.
func (c Config) BuildCluster(k *sim.Kernel) *cluster.Machine {
	if c.Kind != KindCluster {
		panic("arch: BuildCluster on a non-cluster configuration")
	}
	cfg := cluster.DefaultConfig(c.Disks)
	cfg.DiskSpec = c.spec()
	cfg.SpecFor = c.specFor()
	return cluster.New(k, cfg)
}

// BuildSMP constructs the SMP for this configuration.
func (c Config) BuildSMP(k *sim.Kernel) *smp.Machine {
	if c.Kind != KindSMP {
		panic("arch: BuildSMP on a non-SMP configuration")
	}
	cfg := smp.DefaultConfig(c.Disks)
	cfg.DiskSpec = c.spec()
	cfg.SpecFor = c.specFor()
	cfg.LoopBytesPerSec = c.LoopBytesPerSec
	return smp.New(k, cfg)
}
