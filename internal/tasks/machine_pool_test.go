package tasks

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"howsim/internal/arch"
	"howsim/internal/fault"
	"howsim/internal/probe"
	"howsim/internal/sim"
	"howsim/internal/workload"
)

// poolShapes are the shapes the machine-pool tests run on, one per
// architecture.
var poolShapes = []arch.Config{arch.ActiveDisks(4), arch.Cluster(4), arch.SMP(4)}

// poolFaults is a plan that touches every kind of fault state a machine
// keeps: disk injectors, a failed disk with a hot spare, straggler
// slowdowns and outage windows on a bus of each architecture.
const poolFaults = "seed=5,media=0.002,fail=1@20ms,replica,spare,straggler=2@10ms+40ms*3," +
	"outage=fcal0@5ms+10ms,outage=node1.scsi@5ms+10ms,outage=smp.fc@5ms+10ms"

// poolShardFaults is poolFaults without the failed disk, so that the
// runs it faults still shard under ModeParallel.
const poolShardFaults = "seed=5,media=0.002,straggler=2@10ms+40ms*3,outage=fcal0@5ms+10ms"

// job is one RunCtx call of the machine-pool tests: a task, its exec
// mode, an optional fault plan, whether a sink is attached, and after
// how many context polls the run is cancelled (0: never).
type job struct {
	task        workload.TaskID
	mode        ExecMode
	plan        *fault.Plan
	probed      bool
	cancelAfter int
}

func (j job) String() string {
	return fmt.Sprintf("%v/%v/faulted=%v/probed=%v/cancel=%d", j.task, j.mode, j.plan != nil, j.probed, j.cancelAfter)
}

// run executes j on cfg and renders what it shows a caller: the
// elapsed time, breakdown, details and fault report of the Result, the
// breakdown report of a probed run, or the error of a cancelled one.
func (j job) run(cfg arch.Config, bytes int64) string {
	ctx := context.Background()
	if j.cancelAfter > 0 {
		ctx = newPollCancelCtx(j.cancelAfter)
	}
	var sink *probe.Sink
	if j.probed {
		sink = probe.NewSink()
	}
	res, err := RunCtx(ctx, cfg, j.task, scaled(j.task, bytes), j.plan, sink, j.mode)
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%v on %s: %v\n", res.Task, res.Config.Name(), res.Elapsed)
	for _, n := range res.Breakdown.Names() {
		fmt.Fprintf(&b, "  %s %v %v\n", n, res.Breakdown.Fraction(n), res.Breakdown.Get(n))
	}
	fmt.Fprintf(&b, "%v\n", res.Details)
	if res.Fault != nil {
		b.WriteString(res.Fault.Render())
	}
	if sink != nil {
		b.WriteString(sink.BuildReport(j.task.String(), cfg.Name(), int64(res.Elapsed)).Render())
	}
	return b.String()
}

// fresh runs j on cfg on a pair, kernel or group, no run has used.
func (j job) fresh(cfg arch.Config, bytes int64) string {
	defer emptyPools()()
	return j.run(cfg, bytes)
}

// TestRecycledMachineIsFresh runs task A and then task B on one pooled
// kernel and machine of each architecture and checks that B's run is
// the run B makes on a new pair, whether A ran plain, faulted, probed
// or was cancelled mid-run. On Active Disks it does the same under
// ModeParallel with the shardable tasks, on one pooled shard group and
// its sharded system. Counting the kernels and groups made shows that
// B did reuse A's.
func TestRecycledMachineIsFresh(t *testing.T) {
	const bytes = 16 << 20
	for _, cfg := range poolShapes {
		checkRecycledRuns(t, cfg, ModeEvent, workload.AllTasks(), mustPlan(t, poolFaults), bytes)
		if cfg.Kind != arch.KindActiveDisk {
			continue
		}
		var sharded []workload.TaskID
		for _, task := range workload.AllTasks() {
			if shardable(task, cfg, nil) {
				sharded = append(sharded, task)
			}
		}
		checkRecycledRuns(t, cfg, ModeParallel, sharded, mustPlan(t, poolShardFaults), bytes)
	}
}

// checkRecycledRuns runs each task of tasks in mode on cfg after every
// kind of earlier run of another task on the same pooled pair, and
// checks it against its run on a new pair.
func checkRecycledRuns(t *testing.T, cfg arch.Config, mode ExecMode, tasks []workload.TaskID, faults *fault.Plan, bytes int64) {
	t.Helper()
	want := map[workload.TaskID]string{}
	for _, task := range tasks {
		want[task] = job{task: task, mode: mode}.fresh(cfg, bytes)
	}
	for i, b := range tasks {
		a := tasks[(i+3)%len(tasks)]
		for _, prev := range []job{
			{task: a, mode: mode},
			{task: a, mode: mode, plan: faults},
			{task: a, mode: mode, probed: true},
			{task: a, mode: mode, cancelAfter: 3},
		} {
			var built int
			restorePools, restoreCount := emptyPools(), countPairs(&built)
			prev.run(cfg, bytes)
			got := job{task: b, mode: mode}.run(cfg, bytes)
			restoreCount()
			restorePools()
			if got != want[b] {
				t.Errorf("%s: %v/%v after %v differs from %v on a new pair:\n got  %s\n want %s",
					cfg.Name(), b, mode, prev, b, got, want[b])
			}
			if built != 1 {
				t.Errorf("%s: %v/%v after %v made %d pairs, want 1", cfg.Name(), b, mode, prev, built)
			}
		}
	}
}

// idlePairs returns the idle pairs of key's shape.
func idlePairs(key poolKey) []*pair {
	pairPools.Lock()
	defer pairPools.Unlock()
	return append([]*pair(nil), pairPools.m[key]...)
}

// collected reports whether every flag is set, running GC cycles (and
// giving the finalizer goroutine time) until it is or a bound runs out.
func collected(flags ...*atomic.Bool) bool {
	for range 50 {
		runtime.GC()
		time.Sleep(time.Millisecond)
		all := true
		for _, f := range flags {
			all = all && f.Load()
		}
		if all {
			return true
		}
	}
	return false
}

// TestPooledPairKeepsNoRunReferences runs a probed, faulted run on each
// architecture, and a probed sharded run under a media-error plan, and
// checks, with finalizers, that the Result, the sink, every leaf sink
// and the plan are freed while the idle pair the run left is still
// held, and that no goroutine of the run's outlives it.
func TestPooledPairKeepsNoRunReferences(t *testing.T) {
	defer emptyPools()()
	var leafSinks []*probe.Sink
	defer func(saved func(int) *probe.Sink) { newLeafSink = saved }(newLeafSink)
	newLeafSink = func(spans int) *probe.Sink {
		s := probe.NewSinkCap(spans)
		leafSinks = append(leafSinks, s)
		return s
	}
	type run struct {
		cfg  arch.Config
		mode ExecMode
		task workload.TaskID
		plan string
	}
	runs := []run{{arch.ActiveDisks(4), ModeParallel, workload.Select, "seed=5,media=0.002"}}
	for _, cfg := range poolShapes {
		runs = append(runs, run{cfg, ModeEvent, workload.Sort, poolFaults})
	}
	for _, r := range runs {
		name := fmt.Sprintf("%s/%v/%v", r.cfg.Name(), r.task, r.mode)
		var res, sink, plan atomic.Bool
		var leafs []atomic.Bool
		if r.mode == ModeParallel {
			leafs = make([]atomic.Bool, r.cfg.Disks)
		}
		base := runtime.NumGoroutine()
		func() {
			leafSinks = nil
			p := mustPlan(t, r.plan)
			s := probe.NewSink()
			res0, err := RunCtx(context.Background(), r.cfg, r.task, scaled(r.task, 16<<20), p, s, r.mode)
			if err != nil {
				t.Fatal(err)
			}
			if len(leafSinks) != len(leafs) {
				t.Fatalf("%s: %d leaf sinks made, want %d", name, len(leafSinks), len(leafs))
			}
			runtime.SetFinalizer(res0, func(*Result) { res.Store(true) })
			runtime.SetFinalizer(s, func(*probe.Sink) { sink.Store(true) })
			runtime.SetFinalizer(p, func(*fault.Plan) { plan.Store(true) })
			for i, ls := range leafSinks {
				runtime.SetFinalizer(ls, func(*probe.Sink) { leafs[i].Store(true) })
			}
			leafSinks = nil
		}()
		if n := settledGoroutines(base); n > base {
			t.Errorf("%s: %d goroutines after the run, want %d", name, n, base)
		}
		held := idlePairs(poolKey{r.cfg, r.mode == ModeParallel})
		if len(held) != 1 {
			t.Fatalf("%s: %d idle pairs after one run, want 1", name, len(held))
		}
		flags := []*atomic.Bool{&res, &sink, &plan}
		for i := range leafs {
			flags = append(flags, &leafs[i])
		}
		if !collected(flags...) {
			freed := make([]bool, len(leafs))
			for i := range leafs {
				freed[i] = leafs[i].Load()
			}
			t.Errorf("%s: the idle pair keeps the last run's objects alive: result freed %v, sink freed %v, plan freed %v, leaf sinks freed %v",
				name, res.Load(), sink.Load(), plan.Load(), freed)
		}
		runtime.KeepAlive(held)
	}
}

// payload is a message payload with a finalizer.
type payload struct{ _ [64]byte }

// TestPooledPairKeepsNoPayloads leaves a payload queued in a machine —
// sent and never received — and checks that releasing the pair frees
// it while the pair is held: on a cluster in an MPI endpoint's
// unexpected queue, on Active Disks in a disk's inbox.
func TestPooledPairKeepsNoPayloads(t *testing.T) {
	defer emptyPools()()
	for _, c := range []struct {
		cfg  arch.Config
		send func(mp *pair, p *sim.Proc, v any)
	}{
		{arch.Cluster(4), func(mp *pair, p *sim.Proc, v any) {
			mp.m.(clusterMachine).Nodes[0].Endpoint().Send(p, 1, tagData, 1<<10, v)
		}},
		{arch.ActiveDisks(4), func(mp *pair, p *sim.Proc, v any) { mp.m.(activeMachine).Disks[0].Send(p, 1, 1<<10, v) }},
	} {
		var freed atomic.Bool
		mp, _ := takePair(c.cfg, false, nil)
		func() {
			v := new(payload)
			runtime.SetFinalizer(v, func(*payload) { freed.Store(true) })
			mp.k.Spawn("sender", func(p *sim.Proc) { c.send(mp, p, v) })
		}()
		mp.k.Run()
		mp.release()
		if !collected(&freed) {
			t.Errorf("%s: the released pair keeps a queued payload alive", c.cfg.Name())
		}
		runtime.KeepAlive(mp)
	}
}

// fuzzPlan draws a fault plan from seed the way scripts/chaossweep
// does: each clause present with some probability, so plans range from
// one isolated fault to pile-ups, and never empty.
func fuzzPlan(seed uint64, disks int) *fault.Plan {
	next := func() uint64 { // splitmix64
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	frac := func() float64 { return float64(next()>>11) / (1 << 53) }
	intn := func(n int) int { return int(next() % uint64(n)) }
	ms := func(n int) sim.Time { return sim.Time(n) * sim.Millisecond }
	p := fault.NewPlan(next())
	if frac() < 0.6 {
		p.MediaRate = frac() * 0.02
	}
	if frac() < 0.5 {
		p.SlowRate, p.SlowBy = frac()*0.02, ms(1+intn(80))
	}
	if frac() < 0.5 {
		p.FailDisk, p.FailAt = intn(disks), ms(1+intn(200))
		if frac() < 0.6 {
			p.Replica = true
			p.Spare = frac() < 0.5
		}
	}
	for n := intn(3); n > 0; n-- {
		start := ms(intn(300))
		p.Stragglers = append(p.Stragglers, fault.Straggler{Disk: intn(disks),
			Window: fault.Window{Start: start, End: start + ms(1+intn(100))}, Factor: 1.5 + frac()*6})
	}
	if frac() < 0.4 {
		names := []string{"fcal0", "fe.pci", "node1.scsi", "node0.up", "smp.fc", "smp.xio"}
		start := ms(intn(200))
		p.Outages = append(p.Outages, fault.LinkOutage{Name: names[intn(len(names))],
			Window: fault.Window{Start: start, End: start + ms(1+intn(50))}})
	}
	if p.Empty() {
		p.MediaRate = 0.001 + frac()*0.019
	}
	return p
}

// FuzzRecycledMachine draws a short sequence of runs on one shape — an
// architecture and 2 to 16 disks — each byte of seq one run: its task
// (low three bits), a fault plan drawn chaossweep-style (bit 3), a
// sink (bit 4) and ModeParallel (bit 5), which shards the shardable
// Active Disk runs. Each run on the pooled kernel or group and its
// machine must render what the same job renders on a new one.
func FuzzRecycledMachine(f *testing.F) {
	f.Add(uint8(0), uint8(2), []byte{0x01, 0x8a, 0x33})
	f.Add(uint8(1), uint8(14), []byte{0x9c, 0x05, 0x1e})
	f.Add(uint8(2), uint8(0), []byte{0x47, 0xd6, 0x20, 0x1b})
	f.Add(uint8(0), uint8(43), []byte("%000"))          // join on 15 Active Disks: an unaligned Grace split
	f.Add(uint8(0), uint8(6), []byte{0x20, 0x3a, 0x21}) // sharded select, faulted probed groupby, aggregate
	builders := []func(int) arch.Config{arch.ActiveDisks, arch.Cluster, arch.SMP}
	tasks := workload.AllTasks()
	f.Fuzz(func(t *testing.T, archSel, disks uint8, seq []byte) {
		cfg := builders[int(archSel)%len(builders)](2 + int(disks)%15)
		jobs := make([]job, min(len(seq), 4))
		for i := range jobs {
			b := seq[i]
			jobs[i] = job{task: tasks[b&7], probed: b&16 != 0}
			if b&32 != 0 {
				jobs[i].mode = ModeParallel
			}
			if b&8 != 0 {
				jobs[i].plan = fuzzPlan(uint64(b)<<8|uint64(i), cfg.Disks)
			}
		}
		const bytes = 8 << 20
		want := make([]string, len(jobs))
		for i, j := range jobs {
			want[i] = j.fresh(cfg, bytes)
		}
		defer emptyPools()()
		for i, j := range jobs {
			if got := j.run(cfg, bytes); got != want[i] {
				t.Errorf("%s: run %d (%v) on the pooled pair differs from a new pair's:\n got  %s\n want %s",
					cfg.Name(), i, j, got, want[i])
			}
		}
	})
}
