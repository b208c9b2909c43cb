// Command chaossweep fuzzes seeded fault plans across architectures,
// tasks and execution modes. Each iteration derives a random — but
// fully seed-determined — fault plan (media errors, latency spikes,
// silent corruption, stragglers, a drive failure with optional replica
// and spare, interconnect outages), round-trips it through the plan
// grammar, and runs it on one architecture and task twice on one kernel
// (-procmode event) and twice sharded where the run shards (-procmode
// parallel). Every run must terminate — either completing (possibly
// degraded) or attaching a deadlock report — and the rendered
// FaultReport must be byte-identical across the repeat and across
// execution modes. Any divergence, hang-turned-deadlock-report
// mismatch, or grammar round-trip failure exits nonzero.
//
// The sweep is deterministic: the same -seed/-runs/-scale always
// exercises the same plans, so a CI failure reproduces locally with the
// seed it prints. No wall clock or global RNG is involved.
//
//	chaossweep [-seed N] [-runs N] [-scale F]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"howsim/internal/arch"
	"howsim/internal/fault"
	"howsim/internal/sim"
	"howsim/internal/tasks"
	"howsim/internal/workload"
)

// rng is a splitmix64 stream: deterministic, seedable, no global state
// (the repo's norandglobal checker forbids math/rand's globals).
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	x := r.s
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// float returns a uniform float64 in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / float64(1<<53) }

// intn returns a uniform int in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// genPlan derives one fault plan from the stream. Roughly half the
// clauses are present in any given plan, so sweeps cover both isolated
// faults and pile-ups. A plan that drew no clause gets a media-error
// clause: an empty plan is no plan, and the run would attach no
// FaultReport.
func genPlan(r *rng, disks int) *fault.Plan {
	p := fault.NewPlan(r.next())
	if r.float() < 0.6 {
		p.MediaRate = r.float() * 0.02
	}
	if r.float() < 0.5 {
		p.SlowRate = r.float() * 0.02
		p.SlowBy = sim.Time(1+r.intn(80)) * sim.Millisecond
	}
	if r.float() < 0.5 {
		p.CorruptRate = r.float() * 0.02
	}
	if r.float() < 0.5 {
		p.FailDisk = r.intn(disks)
		p.FailAt = sim.Time(1+r.intn(200)) * sim.Millisecond
		if r.float() < 0.6 {
			p.Replica = true
			if r.float() < 0.5 {
				p.Spare = true
			}
		}
	}
	for n := r.intn(3); n > 0; n-- {
		start := sim.Time(r.intn(300)) * sim.Millisecond
		p.Stragglers = append(p.Stragglers, fault.Straggler{
			Disk:   r.intn(disks),
			Window: fault.Window{Start: start, End: start + sim.Time(1+r.intn(100))*sim.Millisecond},
			Factor: 1.5 + r.float()*6,
		})
	}
	if r.float() < 0.4 {
		names := []string{"fcal0", "fcal1", "node1.scsi", "node2.pci"}
		start := sim.Time(r.intn(200)) * sim.Millisecond
		p.Outages = append(p.Outages, fault.LinkOutage{
			Name:   names[r.intn(len(names))],
			Window: fault.Window{Start: start, End: start + sim.Time(1+r.intn(50))*sim.Millisecond},
		})
	}
	if p.Empty() {
		p.MediaRate = 0.001 + r.float()*0.019
	}
	return p
}

func main() {
	seed := flag.Uint64("seed", 1, "sweep seed (same seed = same plans)")
	runs := flag.Int("runs", 8, "number of fuzzed plans to sweep")
	scale := flag.Float64("scale", 0.002, "dataset scale as a fraction of the paper's Table 2 size")
	flag.Parse()

	const disks = 4
	cfgs := []arch.Config{arch.ActiveDisks(disks), arch.Cluster(disks), arch.SMP(disks)}
	pool := []workload.TaskID{
		workload.Select, workload.Aggregate, workload.GroupBy, workload.DataCube,
		workload.Sort, workload.Join, workload.DataMine, workload.MView,
	}
	modes := []tasks.ExecMode{tasks.ModeEvent, tasks.ModeParallel}

	failed := false
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "chaossweep: "+format+"\n", args...)
		failed = true
	}

	for i := 0; i < *runs; i++ {
		r := &rng{s: *seed + uint64(i)*0x5851f42d4c957f2d}
		plan := genPlan(r, disks)

		// The canonical form must survive the plan grammar unchanged.
		parsed, err := fault.ParsePlan(plan.String())
		if err != nil {
			fail("run %d: generated plan %q does not re-parse: %v", i, plan.String(), err)
			continue
		}
		if parsed.String() != plan.String() {
			fail("run %d: plan round trip changed %q to %q", i, plan.String(), parsed.String())
			continue
		}

		cfg := cfgs[r.intn(len(cfgs))]
		task := pool[r.intn(len(pool))]
		ds := workload.ForTask(task)
		bytes := int64(*scale * float64(ds.TotalBytes))
		if bytes < 8<<20 {
			bytes = 8 << 20
		}
		ds = ds.Scaled(bytes)

		one := func(md tasks.ExecMode) string {
			// context.Background never cancels, so RunCtx never errors.
			res, _ := tasks.RunCtx(context.Background(), cfg, task, ds, parsed, nil, md)
			fr := res.Fault
			if fr == nil {
				fail("run %d: faulted run attached no FaultReport (%s, %s)", i, cfg.Name(), task)
				return ""
			}
			if !fr.Completed && fr.Deadlock == "" {
				fail("run %d: run did not complete and carries no deadlock report (%s, %s)",
					i, cfg.Name(), task)
			}
			return res.Elapsed.String() + "\n" + fr.Render()
		}

		var base string
		for _, md := range modes {
			first := one(md)
			again := one(md)
			if first != again {
				fail("run %d: %v-mode repeat diverged (%s, %s, plan %s)\n--- first ---\n%s--- again ---\n%s",
					i, md, cfg.Name(), task, plan.String(), first, again)
			}
			if md == modes[0] {
				base = first
			} else if first != base {
				fail("run %d: %v-mode output differs from %v mode (%s, %s, plan %s)\n--- %v ---\n%s--- %v ---\n%s",
					i, md, modes[0], cfg.Name(), task, plan.String(),
					modes[0], base, md, first)
			}
		}
		status := "ok"
		if failed {
			status = "FAIL"
		}
		fmt.Printf("run %2d %-4s %-10s %-9s plan %s\n", i, status, cfg.Name(), task, plan.String())
	}
	if failed {
		os.Exit(1)
	}
}
