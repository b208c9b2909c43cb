package sim

import (
	"fmt"
	"strings"
	"testing"

	"howsim/internal/probe"
)

// chainJob is one process's multi-step operation on shared primitives:
// hold a resource for hold, wait for a signal, move bytes over a
// segmented pipe, then hold the resource again for final (skipped when
// final is 0). blocking runs the steps with the blocking primitives,
// run as a chain.
type chainJob struct {
	k     *Kernel
	r     *Resource
	sig   *Signal
	pp    *Pipe
	hold  Time
	bytes int64
	final Time
	// inlined is set when a step ran on a lone process's stack.
	inlined *bool
}

func (j chainJob) blocking(p *Proc) {
	j.r.Acquire(p, 1)
	p.Delay(j.hold)
	j.r.Release(1)
	j.sig.Wait(p)
	j.pp.TransferSegmented(p, j.bytes)
	if j.final > 0 {
		j.r.Acquire(p, 1)
		p.Delay(j.final)
		j.r.Release(1)
	}
}

func (j chainJob) run(p *Proc) {
	t := &p.Task
	note := func() {
		if onInlineStack() {
			*j.inlined = true
		}
	}
	release := func() { j.r.Release(1) }
	last := func() {
		note()
		if j.final <= 0 {
			t.EndChain()
			return
		}
		j.r.AcquireFunc(t, 1, func() { t.EndChainAfter(j.final, release) })
	}
	signalled := func() {
		note()
		j.pp.TransferSegmentedFunc(t, j.bytes, last)
	}
	held := func() {
		j.k.After(j.hold, func() {
			note()
			j.r.Release(1)
			j.sig.WaitFunc(t, signalled)
		})
	}
	p.Chain(func() { j.r.AcquireFunc(t, 1, held) })
}

// chainCase is a scenario of processes running chainJobs.
type chainCase struct {
	starts []Time // one process per entry, starting there
	fireAt Time   // the signal fires then
	final  Time
	until  Time // when positive, RunUntil there first
}

// runChainCase runs c with chains, or with the blocking steps when ref
// is set, and renders the (Now, label) trace, the primitives' and
// kernel's state and every probe cell and span.
func runChainCase(c chainCase, ref bool) (out string, inlined bool) {
	k := NewKernel()
	sink := probe.NewSink()
	k.SetProbe(sink)
	defer k.Shutdown()
	var sb strings.Builder
	rec := func(format string, args ...any) {
		fmt.Fprintf(&sb, "%v ", k.Now())
		fmt.Fprintf(&sb, format, args...)
		sb.WriteByte('\n')
	}
	r := NewResource(k, "cpu", 1)
	pp := NewPipe(k, "bus", 1, 100e6, 2*Microsecond)
	pp.Frame = 4096
	sig := NewSignal()
	k.At(c.fireAt, sig.Fire)
	for i, start := range c.starts {
		j := chainJob{k: k, r: r, sig: sig, pp: pp, hold: Time(i+1) * 7 * Microsecond,
			bytes: int64(i+1) * 5000, final: c.final, inlined: &inlined}
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Delay(start)
			for n := 0; n < 2; n++ {
				if ref {
					j.blocking(p)
				} else {
					j.run(p)
				}
				rec("p%d job%d", i, n)
			}
		})
	}
	state := func(label string) {
		rec("%s: live=%d blocked=%d pending=%d grants=%d util=%v bytes=%d transfers=%d", label,
			k.Live(), k.Blocked(), k.events.len(), r.Grants(), r.Utilization(), pp.BytesMoved(), pp.Transfers())
	}
	if c.until > 0 {
		k.RunUntil(c.until)
		state("bound")
	}
	k.Run()
	state("end")
	for i := 0; i < sink.Instances(); i++ {
		comp, name := sink.Instance(i)
		for kd := probe.Kind(0); int(kd) < sink.Kinds(); kd++ {
			if dur, n, sum := sink.Cell(i, kd); dur != 0 || n != 0 || sum != 0 {
				fmt.Fprintf(&sb, "%s/%s %s: dur=%d n=%d sum=%d\n", comp, name, sink.KindName(kd), dur, n, sum)
			}
		}
	}
	sink.EachSpan(func(sp probe.Span) { fmt.Fprintf(&sb, "span %+v\n", sp) })
	return sb.String(), inlined
}

// TestChainMatchesBlocking checks a chain against the same steps run
// with the blocking primitives: contended and uncontended acquires, a
// signal fired before and after the wait, segmented transfers, a last
// hold or none (EndChain), RunUntil bounds, and a lone process, whose
// chain steps run on its own stack.
func TestChainMatchesBlocking(t *testing.T) {
	three := []Time{0, 0, 3 * Microsecond}
	lone := []Time{0}
	for _, tc := range []struct {
		name string
		c    chainCase
	}{
		{"contention", chainCase{starts: three, fireAt: 20 * Microsecond, final: 5 * Microsecond}},
		{"fired-early", chainCase{starts: three, fireAt: 0, final: 5 * Microsecond}},
		{"no-final", chainCase{starts: three, fireAt: 20 * Microsecond}},
		{"run-until", chainCase{starts: three, fireAt: 20 * Microsecond, final: 5 * Microsecond, until: 90 * Microsecond}},
		{"lone", chainCase{starts: lone, fireAt: 20 * Microsecond, final: 5 * Microsecond}},
		{"lone-no-final", chainCase{starts: lone, fireAt: 20 * Microsecond}},
		{"lone-fired-early-no-final", chainCase{starts: lone, fireAt: 0}},
		{"lone-run-until", chainCase{starts: lone, fireAt: 20 * Microsecond, final: 5 * Microsecond, until: 60 * Microsecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, inlined := runChainCase(tc.c, false)
			want, refInlined := runChainCase(tc.c, true)
			if got != want {
				t.Fatalf("chain differs from the blocking steps:\n%s", lineDiff(got, want))
			}
			if refInlined {
				t.Fatal("reference recorded an inline step")
			}
			if lone := len(tc.c.starts) == 1; inlined != lone {
				t.Fatalf("chain steps ran inline: %v, want %v", inlined, lone)
			}
		})
	}
}

// TestChainStepsAreCallbacks pins what a chain is for: while its
// intermediate holds run, the pending event is a kernel callback, and
// only the last hold ends with the process's own wake.
func TestChainStepsAreCallbacks(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	r := NewResource(k, "cpu", 1)
	var p *Proc
	p = k.Spawn("p", func(p *Proc) {
		t := &p.Task
		p.Chain(func() {
			r.AcquireFunc(t, 1, func() {
				k.After(10*Microsecond, func() {
					k.After(10*Microsecond, func() {
						r.Release(1)
						t.EndChainAfter(10*Microsecond, nil)
					})
				})
			})
		})
	})
	for _, step := range []struct {
		at   Time
		wake bool
	}{{5 * Microsecond, false}, {15 * Microsecond, false}, {25 * Microsecond, true}} {
		k.RunUntil(step.at)
		e := &k.events.slab[k.events.peekSlot()]
		if k.events.len() != 1 || (e.tk == &p.Task) != step.wake {
			t.Fatalf("at %v: %d pending, head is the wake: %v, want 1 and %v", step.at, k.events.len(), e.tk == &p.Task, step.wake)
		}
	}
	if end := k.Run(); end != 30*Microsecond || k.Live() != 0 {
		t.Fatalf("chain ended at %v with %d live, want 30us and 0", end, k.Live())
	}
}

// TestChainMisusePanics checks that a process's Task takes the
// callback forms only while it sleeps in a chain: a contended
// AcquireFunc, a TransferFunc and ending a chain outside one all panic.
func TestChainMisusePanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		use  func(k *Kernel, p *Proc)
	}{
		{"acquire", func(k *Kernel, p *Proc) {
			r := NewResource(k, "r", 1)
			r.AcquireFunc(k.NewTask("holder"), 1, func() {})
			r.AcquireFunc(&p.Task, 1, func() {})
		}},
		{"transfer", func(k *Kernel, p *Proc) {
			NewPipe(k, "pp", 1, 1e6, 0).TransferFunc(&p.Task, 100, func() {})
		}},
		{"end-after", func(k *Kernel, p *Proc) { p.Task.EndChainAfter(Microsecond, nil) }},
		{"end", func(k *Kernel, p *Proc) { p.Task.EndChain() }},
		{"after-chain", func(k *Kernel, p *Proc) {
			p.Chain(func() { p.Task.EndChain() })
			p.Task.EndChain()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			defer k.Shutdown()
			var r any
			k.Spawn("p", func(p *Proc) {
				defer func() { r = recover() }()
				tc.use(k, p)
			})
			k.Run()
			if s, _ := r.(string); !strings.Contains(s, "chain") {
				t.Fatalf("recovered %v, want a chain misuse panic", r)
			}
		})
	}
}

// TestChainShutdown cancels runs while chains are mid-step — holding,
// queued for the resource, waiting on the signal or the pipe — and
// checks Shutdown leaves nothing live or blocked.
func TestChainShutdown(t *testing.T) {
	for _, at := range []Time{3 * Microsecond, 12 * Microsecond, 30 * Microsecond, 60 * Microsecond} {
		k := NewKernel()
		r := NewResource(k, "cpu", 1)
		pp := NewPipe(k, "bus", 1, 100e6, 0)
		pp.Frame = 4096
		sig := NewSignal()
		k.At(25*Microsecond, sig.Fire)
		var inlined bool
		for i := 0; i < 3; i++ {
			j := chainJob{k: k, r: r, sig: sig, pp: pp, hold: 10 * Microsecond, bytes: 20000,
				final: Microsecond, inlined: &inlined}
			k.Spawn("p", j.run)
		}
		k.RunUntil(at)
		if k.Live() != 3 {
			t.Fatalf("at %v: %d live, want 3 mid-chain", at, k.Live())
		}
		k.Shutdown()
		if k.Live() != 0 || k.Blocked() != 0 {
			t.Fatalf("after Shutdown at %v: live=%d blocked=%d, want 0 and 0", at, k.Live(), k.Blocked())
		}
	}
}
