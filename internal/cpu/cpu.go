// Package cpu provides the coarse-grain processor model: Howsim "models
// variation in processor speed by scaling [trace] processing times".
// A CPU is a serially shared resource; work is expressed in cycles (for
// algorithm inner loops, via calibrated cycles-per-tuple constants) or
// directly in time at a reference clock (for OS operations measured with
// lmbench on a reference machine).
package cpu

import (
	"sort"

	"howsim/internal/probe"
	"howsim/internal/sim"
)

// CPU is one processor. Processes submit work with Compute; concurrent
// submissions serialize FIFO, modeling a single hardware context.
type CPU struct {
	name string
	hz   float64
	res  *sim.Resource
	busy sim.Time
	work int64 // total cycles executed
	pr   probe.Ref

	slow     []Slowdown
	slowTime sim.Time // extra execution time slowdown windows added

	holdFree []*hold // recycled BusyFunc holds
}

// Slowdown is a window of degraded clock: between Start and End the
// processor retires work at 1/Factor of its nominal rate — a straggler
// drive's firmware hiccup or thermal throttling. Windows are virtual
// time, so the stretch a computation suffers is a pure function of its
// start time and nominal duration — deterministic across execution
// modes.
type Slowdown struct {
	sim.Window
	Factor float64 // > 1; nominal time t takes Factor*t inside the window
}

// New creates a processor with the given clock rate in Hz.
func New(k *sim.Kernel, name string, hz float64) *CPU { return new(CPU).Init(k, name, hz) }

// Init builds c in place as New would, keeping only its pooled holds
// and the storage of its resource, and returns it; a nil c is allocated
// first. Slowdown windows of an earlier use are dropped.
func (c *CPU) Init(k *sim.Kernel, name string, hz float64) *CPU {
	if c == nil {
		c = new(CPU)
	}
	*c = CPU{name: name, hz: hz, res: c.res.Init(k, name, 1),
		pr: k.Probe().Register("cpu", name), holdFree: c.holdFree}
	return c
}

// Name returns the processor's name.
func (c *CPU) Name() string { return c.name }

// Hz returns the clock rate.
func (c *CPU) Hz() float64 { return c.hz }

// CycleTime returns the duration of n cycles at this clock.
func (c *CPU) CycleTime(n int64) sim.Time {
	if n <= 0 {
		return 0
	}
	ns := float64(n) / c.hz * float64(sim.Second)
	t := sim.Time(ns)
	if float64(t) < ns {
		t++
	}
	return t
}

// SetSlowdowns installs per-window slowdowns (straggler injection).
// Call before the simulation runs; windows must not overlap. A nil or
// empty slice leaves the execution path untouched.
func (c *CPU) SetSlowdowns(ss []Slowdown) {
	c.slow = append([]Slowdown(nil), ss...)
	sort.Slice(c.slow, func(i, j int) bool { return c.slow[i].Start < c.slow[j].Start })
}

// SlowdownTime returns the total extra execution time the slowdown
// windows added.
func (c *CPU) SlowdownTime() sim.Time { return c.slowTime }

// stretch maps a nominal execution duration starting at now to the
// wall duration it occupies under the installed slowdown windows: full
// rate outside every window, 1/Factor inside. With no windows it is the
// identity, keeping the fault-free path bit-identical.
func (c *CPU) stretch(now, d sim.Time) sim.Time {
	if len(c.slow) == 0 || d <= 0 {
		return d
	}
	t := now
	var wall sim.Time
	rem := d // nominal time still to retire
	for _, w := range c.slow {
		if rem <= 0 {
			return wall
		}
		if w.End <= t {
			continue
		}
		if t < w.Start {
			gap := w.Start - t
			if rem <= gap {
				return wall + rem
			}
			wall += gap
			rem -= gap
			t = w.Start
		}
		// Inside [t, w.End): finishing rem here needs Factor*rem of wall
		// time; otherwise the window's remainder retires avail/Factor.
		avail := w.End - t
		need := sim.Time(float64(rem) * w.Factor)
		if need <= avail {
			return wall + need
		}
		retired := sim.Time(float64(avail) / w.Factor)
		if retired > rem {
			retired = rem
		}
		wall += avail
		rem -= retired
		t = w.End
	}
	return wall + rem // tail after the last window runs at full rate
}

// Compute executes n cycles of work on behalf of p, holding the
// processor for the duration.
func (c *CPU) Compute(p *sim.Proc, n int64) {
	if n <= 0 {
		return
	}
	c.res.Acquire(p, 1)
	d := c.CycleTime(n)
	w := c.stretch(p.Now(), d)
	start := c.pr.Begin(probe.KindCompute, probe.Time(p.Now()))
	p.Delay(w)
	c.res.Release(1)
	c.busy += w
	c.slowTime += w - d
	c.work += n
	if c.pr.On() {
		c.pr.EndArg(probe.KindCompute, start, int64(p.Now()), n)
	}
}

// Busy executes a fixed amount of time on the processor regardless of
// clock rate — used for costs already expressed in wall time (e.g. an
// lmbench-measured syscall on the modeled machine).
func (c *CPU) Busy(p *sim.Proc, d sim.Time) {
	if d <= 0 {
		return
	}
	c.res.Acquire(p, 1)
	w := c.stretch(p.Now(), d)
	start := c.pr.Begin(probe.KindCompute, probe.Time(p.Now()))
	p.Delay(w)
	c.res.Release(1)
	c.busy += w
	c.slowTime += w - d
	if c.pr.On() {
		c.pr.End(probe.KindCompute, start, int64(p.Now()))
	}
}

// BusyFunc is Busy for callback tasks: it holds the processor for d and
// then runs fn in kernel context. t may be a process's Task while the
// process sleeps in a chain (sim.Proc.Chain); with fn nil the hold is
// then the chain's last step: the process's own wake ends it, and the
// process releases the processor and books the hold itself, as Busy
// does after its Delay. The hold's state comes from a per-CPU pool with
// its step continuations bound once, so BusyFunc allocates nothing in
// steady state.
func (c *CPU) BusyFunc(t *sim.Task, d sim.Time, fn func()) {
	if d <= 0 {
		if fn == nil {
			t.EndChain()
		} else {
			fn()
		}
		return
	}
	var h *hold
	if n := len(c.holdFree); n > 0 {
		h = c.holdFree[n-1]
		c.holdFree[n-1] = nil
		c.holdFree = c.holdFree[:n-1]
	} else {
		h = &hold{c: c}
		h.acqFn = h.acquired
		h.endFn = h.end
	}
	h.t, h.d, h.fn = t, d, fn
	c.res.AcquireFunc(t, 1, h.acqFn)
}

// hold is one callback-mode busy period: acquire the processor, stretch
// the duration under the slowdown windows, hold, release and book.
type hold struct {
	c     *CPU
	t     *sim.Task
	d, w  sim.Time // nominal and stretched duration
	fn    func()   // continuation; nil ends the holder's chain
	acqFn func()
	endFn func()
}

// acquired runs once the task holds the processor: it schedules the
// hold's end in the event slot Busy's Delay takes.
func (h *hold) acquired() {
	h.w = h.c.stretch(h.t.Now(), h.d)
	if h.fn == nil {
		h.t.EndChainAfter(h.w, h.endFn)
		return
	}
	h.t.Kernel().After(h.w, h.endFn)
}

// end releases the processor, books the hold, returns it to the pool
// and continues.
func (h *hold) end() {
	c := h.c
	c.res.Release(1)
	c.busy += h.w
	c.slowTime += h.w - h.d
	if c.pr.On() {
		end := h.t.Now()
		c.pr.Span(probe.KindCompute, int64(end-h.w), int64(end))
	}
	fn := h.fn
	h.t, h.fn = nil, nil
	c.holdFree = append(c.holdFree, h)
	if fn != nil {
		fn()
	}
}

// BusyTime returns the total time this CPU has spent executing.
func (c *CPU) BusyTime() sim.Time { return c.busy }

// Cycles returns the total cycles executed via Compute.
func (c *CPU) Cycles() int64 { return c.work }

// Utilization returns the fraction of elapsed virtual time the CPU was
// busy.
func (c *CPU) Utilization() float64 { return c.res.Utilization() }
