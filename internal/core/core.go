// Package core is the top-level API of the Howsim reproduction: build
// one of the paper's three architectures, pick a decision-support task
// and a dataset scale, run the simulation, and read back the execution
// time, per-phase breakdown and resource statistics.
//
// Typical use:
//
//	res := core.New(core.ActiveDisks(64), core.Sort).Run()
//	fmt.Println(res.Elapsed, res.Breakdown)
//
// The design-space knobs of the paper's evaluation are exposed through
// the arch.Config With* methods:
//
//	core.New(core.ActiveDisks(64).WithFastIO(), core.Sort)        // Figure 2
//	core.New(core.ActiveDisks(64).WithDiskMemory(64<<20), ...)    // Figure 4
//	core.New(core.ActiveDisks(64).WithFrontEndOnly(), ...)        // Figure 5
package core

import (
	"context"

	"howsim/internal/arch"
	"howsim/internal/tasks"
	"howsim/internal/workload"
)

// Re-exported task identifiers (the eight-task workload of the paper).
const (
	Select    = workload.Select
	Aggregate = workload.Aggregate
	GroupBy   = workload.GroupBy
	Sort      = workload.Sort
	DataCube  = workload.DataCube
	Join      = workload.Join
	DataMine  = workload.DataMine
	MView     = workload.MView
)

// Config is an architecture configuration (see package arch).
type Config = arch.Config

// Result is a completed simulation (see package tasks).
type Result = tasks.Result

// ActiveDisks returns the baseline Active Disk configuration: n drives
// with 200 MHz embedded processors and 32 MB each on a dual 100 MB/s FC
// loop with direct disk-to-disk communication.
func ActiveDisks(n int) Config { return arch.ActiveDisks(n) }

// Cluster returns the baseline commodity-cluster configuration: n
// 300 MHz PCs with one local disk each on a scalable switched network.
func Cluster(n int) Config { return arch.Cluster(n) }

// SMP returns the baseline shared-memory configuration: n 250 MHz
// processors and n disks behind one shared 200 MB/s FC interconnect.
func SMP(n int) Config { return arch.SMP(n) }

// Simulation is a configured run.
type Simulation struct {
	cfg  Config
	task workload.TaskID
	ds   workload.Dataset
}

// New prepares a simulation of task on cfg at full Table 2 scale.
func New(cfg Config, task workload.TaskID) *Simulation {
	return &Simulation{cfg: cfg, task: task, ds: workload.ForTask(task)}
}

// WithScale shrinks the dataset to the given fraction of its Table 2
// size (useful for fast exploration; the shapes survive scaling); a
// fraction of 1 or more keeps the full size. It panics on a fraction
// that shrinks the dataset below one byte rather than run it unscaled.
func (s *Simulation) WithScale(f float64) *Simulation {
	ds, err := workload.ForTaskScaled(s.task, f)
	if err != nil {
		panic(err)
	}
	s.ds = ds
	return s
}

// Dataset returns the dataset the simulation will use.
func (s *Simulation) Dataset() workload.Dataset { return s.ds }

// Run executes the simulation and returns its result. Every run is
// deterministic: the same configuration and dataset always produce the
// same virtual times.
func (s *Simulation) Run() *Result {
	// context.TODO never cancels, so RunCtx never errors.
	res, _ := tasks.RunCtx(context.TODO(), s.cfg, s.task, s.ds, nil, nil, tasks.ModeEvent)
	return res
}
