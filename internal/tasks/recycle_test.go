package tasks

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"howsim/internal/arch"
	"howsim/internal/fault"
	"howsim/internal/probe"
	"howsim/internal/sim"
	"howsim/internal/workload"
)

// recycleCase is one run of the recycling tests: a task on a
// configuration in an exec mode, with or without a fault plan.
type recycleCase struct {
	task workload.TaskID
	cfg  arch.Config
	mode ExecMode
	plan *fault.Plan
}

func (c recycleCase) String() string {
	return fmt.Sprintf("%v/%s/%v/faulted=%v", c.task, c.cfg.Name(), c.mode, c.plan != nil)
}

// run executes the case with a probe sink attached and returns what
// the run shows a caller: the Result itself and its rendering — the
// elapsed time, the phase breakdown and details as howsim prints them,
// the fault report, and the -breakdown report built from the sink.
func (c recycleCase) run(ctx context.Context) (*Result, string, error) {
	sink := probe.NewSink()
	res, err := RunCtx(ctx, c.cfg, c.task, scaled(c.task, 16<<20), c.plan, sink, c.mode)
	if err != nil {
		return nil, "", err
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
	b.WriteString(sink.BuildReport(c.task.String(), c.cfg.Name(), int64(res.Elapsed)).Render())
	return res, b.String(), nil
}

// recycleCases is every task on the three architectures, fault-free.
func recycleCases() []recycleCase {
	var cs []recycleCase
	for _, task := range workload.AllTasks() {
		for _, cfg := range []arch.Config{arch.ActiveDisks(4), arch.Cluster(4), arch.SMP(4)} {
			cs = append(cs, recycleCase{task: task, cfg: cfg})
		}
	}
	return cs
}

// emptyPools swaps every shape's pool of pairs for an empty one and
// returns the function that puts the old pools back.
func emptyPools() (restore func()) {
	pairPools.Lock()
	saved := pairPools.m
	pairPools.m = nil
	pairPools.Unlock()
	return func() {
		pairPools.Lock()
		pairPools.m = saved
		pairPools.Unlock()
	}
}

// countPairs counts the pairs takePair makes, each with a new kernel
// or shard group, until the returned function restores newKernel and
// newShardGroup.
func countPairs(n *int) (restore func()) {
	savedK, savedG := newKernel, newShardGroup
	newKernel = func() *sim.Kernel { *n++; return sim.NewKernel() }
	newShardGroup = func(shards int) *sim.ShardGroup { *n++; return sim.NewShardGroup(shards) }
	return func() { newKernel, newShardGroup = savedK, savedG }
}

// onNewKernel runs c on a kernel and machine no run has used: an empty
// pool makes a new pair.
func onNewKernel(t *testing.T, c recycleCase) (*Result, string) {
	t.Helper()
	defer emptyPools()()
	res, out, err := c.run(context.Background())
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	return res, out
}

// TestRunCtxRecycledKernelByteIdentical runs every task on every
// architecture on a kernel and machine that a cancelled run, and then a
// faulted run, left behind, and checks that each run's Result and
// rendering are those of the same run on a new pair. Counting the pairs
// made shows that the runs did reuse them.
func TestRunCtxRecycledKernelByteIdentical(t *testing.T) {
	faults, err := fault.ParsePlan("seed=1,fail=2@20ms")
	if err != nil {
		t.Fatal(err)
	}
	var runs, built, cancelled int
	for _, c := range recycleCases() {
		wantRes, want := onNewKernel(t, c)
		faulted := c
		faulted.plan = faults
		wantFaultRes, wantFault := onNewKernel(t, faulted)

		restorePools, restoreCount := emptyPools(), countPairs(&built)
		// One cancellable check, then one poll per cancelSlice: the run
		// is abandoned 20 ms of simulated time in, if it lasts that long.
		if _, _, err := c.run(newPollCancelCtx(3)); errors.Is(err, context.Canceled) {
			cancelled++
		} else if err != nil {
			t.Fatalf("%v: cancelled run: %v", c, err)
		}
		for i, step := range []struct {
			c    recycleCase
			res  *Result
			want string
		}{{c, wantRes, want}, {faulted, wantFaultRes, wantFault}, {c, wantRes, want}} {
			res, got, err := step.c.run(context.Background())
			if err != nil {
				t.Fatalf("%v: %v", step.c, err)
			}
			if !reflect.DeepEqual(res, step.res) || got != step.want {
				t.Errorf("%v, run %d on a recycled pair differs from a new pair's:\n got  %s\n want %s",
					step.c, i+1, got, step.want)
			}
		}
		restoreCount()
		restorePools()
		runs += 4
	}
	if cancelled == 0 {
		t.Error("no run was cancelled mid-run: the recycled kernels never held an abandoned run")
	}
	// Each case's four runs share one pair.
	if built > runs/4 {
		t.Errorf("%d pairs made for %d runs: runs did not reuse kernels and machines", built, runs)
	}
}

// TestRunCtxRecycledKernelsConcurrent runs mixed configurations from
// four goroutines at once, all drawing pairs from the shared pools, and
// then sharded runs of one shape from two goroutines at once, and
// checks every result against the same run made alone on a new pair or
// group. The CI race job covers the hand-over of pairs and groups
// between goroutines.
func TestRunCtxRecycledKernelsConcurrent(t *testing.T) {
	faults, err := fault.ParsePlan("seed=3,fail=1@30ms,replica")
	if err != nil {
		t.Fatal(err)
	}
	cases := recycleCases()
	for i := range cases {
		if i%4 == 1 {
			cases[i].plan = faults
		}
	}
	want := make([]string, len(cases))
	for i, c := range cases {
		_, want[i] = onNewKernel(t, c)
	}
	const workers = 4
	var wg sync.WaitGroup
	errs := make([][]string, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker walks the cases from its own offset, with a
			// cancelled run between two of them.
			for j := range cases {
				i := (j*5 + w*7) % len(cases)
				if j%4 == 3 {
					_, _, _ = cases[i].run(newPollCancelCtx(3))
				}
				_, got, err := cases[i].run(context.Background())
				if err != nil {
					errs[w] = append(errs[w], fmt.Sprintf("%v: %v", cases[i], err))
				} else if got != want[i] {
					errs[w] = append(errs[w], fmt.Sprintf("%v differs from its solo run:\n got  %s\n want %s",
						cases[i], got, want[i]))
				}
			}
		}()
	}
	wg.Wait()
	sharded := []recycleCase{
		{task: workload.Select, cfg: arch.ActiveDisks(4), mode: ModeParallel},
		{task: workload.GroupBy, cfg: arch.ActiveDisks(4), mode: ModeParallel, plan: mustPlan(t, "seed=3,media=0.002")},
		{task: workload.DataMine, cfg: arch.ActiveDisks(4), mode: ModeParallel},
	}
	wantSharded := make([]string, len(sharded))
	for i, c := range sharded {
		_, wantSharded[i] = onNewKernel(t, c)
	}
	start := make(chan struct{})
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := range 3 * len(sharded) {
				i := (j + w) % len(sharded)
				if _, got, err := sharded[i].run(context.Background()); err != nil {
					errs[w] = append(errs[w], fmt.Sprintf("%v: %v", sharded[i], err))
				} else if got != wantSharded[i] {
					errs[w] = append(errs[w], fmt.Sprintf("%v differs from its solo run:\n got  %s\n want %s",
						sharded[i], got, wantSharded[i]))
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	for _, es := range errs {
		for _, e := range es {
			t.Error(e)
		}
	}
}
