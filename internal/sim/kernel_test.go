package sim

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{2 * Microsecond, "2.000us"},
		{3 * Millisecond, "3.000ms"},
		{Second + Second/2, "1.500s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTransferTime(t *testing.T) {
	// 100 MB at 100 MB/s is exactly one second.
	if got := TransferTime(100e6, 100e6); got != Second {
		t.Errorf("TransferTime(100e6, 100e6) = %v, want 1s", got)
	}
	if got := TransferTime(0, 100e6); got != 0 {
		t.Errorf("zero bytes should take zero time, got %v", got)
	}
	if got := TransferTime(1, 1e12); got == 0 {
		t.Error("nonzero transfer must take nonzero time (rounding up)")
	}
}

func TestTransferTimeMonotonic(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return TransferTime(x, 50e6) <= TransferTime(y, 50e6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDelayAdvancesClock(t *testing.T) {
	k := NewKernel()
	var seen Time
	k.Spawn("a", func(p *Proc) {
		p.Delay(5 * Millisecond)
		seen = p.Now()
	})
	end := k.Run()
	if seen != 5*Millisecond {
		t.Errorf("process saw %v, want 5ms", seen)
	}
	if end != 5*Millisecond {
		t.Errorf("kernel ended at %v, want 5ms", end)
	}
}

func TestEventOrderingDeterministic(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var order []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			k.Spawn(name, func(p *Proc) {
				p.Delay(Millisecond)
				order = append(order, name)
			})
		}
		k.Run()
		return order
	}
	first := run()
	for i := 0; i < 10; i++ {
		got := run()
		for j := range first {
			if got[j] != first[j] {
				t.Fatalf("run %d produced order %v, want %v", i, got, first)
			}
		}
	}
	// Same-time events fire in scheduling order.
	want := []string{"a", "b", "c"}
	for i, name := range first {
		if name != want[i] {
			t.Errorf("order[%d] = %q, want %q", i, name, want[i])
		}
	}
}

func TestAtCallback(t *testing.T) {
	k := NewKernel()
	var at Time
	k.At(7*Microsecond, func() { at = k.Now() })
	k.Run()
	if at != 7*Microsecond {
		t.Errorf("callback ran at %v, want 7us", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := NewKernel()
	k.At(Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		k.At(0, func() {})
	})
	k.Run()
}

func TestRunUntil(t *testing.T) {
	k := NewKernel()
	fired := false
	k.At(2*Second, func() { fired = true })
	end := k.RunUntil(Second)
	if fired {
		t.Error("event beyond limit should not fire")
	}
	if end != Second {
		t.Errorf("RunUntil returned %v, want 1s", end)
	}
	// Continuing past the limit fires the event.
	k.Run()
	if !fired {
		t.Error("event should fire once the limit is lifted")
	}
}

func TestStop(t *testing.T) {
	k := NewKernel()
	count := 0
	k.Spawn("loop", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Delay(Millisecond)
			count++
			if count == 3 {
				k.Stop()
			}
		}
	})
	k.Run()
	if count != 3 {
		t.Errorf("ran %d iterations after Stop, want 3", count)
	}
}

func TestSpawnFromProcess(t *testing.T) {
	k := NewKernel()
	var childTime Time
	k.Spawn("parent", func(p *Proc) {
		p.Delay(Millisecond)
		k.Spawn("child", func(c *Proc) {
			c.Delay(Millisecond)
			childTime = c.Now()
		})
	})
	k.Run()
	if childTime != 2*Millisecond {
		t.Errorf("child finished at %v, want 2ms", childTime)
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "r", 1)
	k.Spawn("holder", func(p *Proc) {
		r.Acquire(p, 1)
		// Never releases.
	})
	k.Spawn("waiter", func(p *Proc) {
		p.Delay(Millisecond)
		r.Acquire(p, 1)
		t.Error("waiter should never acquire")
	})
	k.Run()
	if k.Blocked() != 1 {
		t.Errorf("Blocked() = %d, want 1", k.Blocked())
	}
	if k.Live() != 1 {
		t.Errorf("Live() = %d, want 1", k.Live())
	}
}

func TestDeadlockReport(t *testing.T) {
	k := NewKernel()
	m := NewMailbox(k, "stuck.queue", 0)
	r := NewResource(k, "stuck.bus", 1)
	k.Spawn("reader", func(p *Proc) {
		m.Get(p) // never satisfied
	})
	k.Spawn("grabber", func(p *Proc) {
		r.Acquire(p, 1)
		r.Acquire(p, 1) // deadlocks: already holds the only unit
	})
	k.Run()
	if k.Blocked() != 2 {
		t.Fatalf("Blocked() = %d, want 2", k.Blocked())
	}
	rep := k.DeadlockReport()
	for _, want := range []string{"reader", `get on "stuck.queue"`, "grabber", `acquire on "stuck.bus"`} {
		if !strings.Contains(rep, want) {
			t.Errorf("deadlock report missing %q:\n%s", want, rep)
		}
	}
}

func TestDeadlockReportEmptyWhenClean(t *testing.T) {
	k := NewKernel()
	k.Spawn("fine", func(p *Proc) { p.Delay(Millisecond) })
	k.Run()
	if rep := k.DeadlockReport(); rep != "" {
		t.Fatalf("clean run produced a deadlock report: %s", rep)
	}
}

func TestYieldInterleaving(t *testing.T) {
	k := NewKernel()
	var order []int
	k.Spawn("a", func(p *Proc) {
		order = append(order, 1)
		p.Delay(0) // yield to the other events of this instant
		order = append(order, 3)
	})
	k.Spawn("b", func(p *Proc) {
		order = append(order, 2)
	})
	k.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestNegativeDelayIsZero(t *testing.T) {
	k := NewKernel()
	k.Spawn("a", func(p *Proc) {
		p.Delay(-5)
		if p.Now() != 0 {
			t.Errorf("negative delay advanced clock to %v", p.Now())
		}
	})
	k.Run()
}

func TestManyProcessesCompleteAndClockMonotonic(t *testing.T) {
	k := NewKernel()
	var last Time
	done := 0
	for i := 0; i < 200; i++ {
		d := Time(i%13+1) * Microsecond
		k.Spawn("p", func(p *Proc) {
			for j := 0; j < 5; j++ {
				p.Delay(d)
				if p.Now() < last {
					t.Error("clock went backwards")
				}
				last = p.Now()
			}
			done++
		})
	}
	k.Run()
	if done != 200 {
		t.Errorf("%d processes finished, want 200", done)
	}
	if k.Live() != 0 {
		t.Errorf("Live() = %d after completion, want 0", k.Live())
	}
}

func TestAccessors(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "bus", 3)
	if r.Name() != "bus" || r.capacity != 3 || r.InUse() != 0 || r.QueueLen() != 0 {
		t.Error("resource accessors wrong on fresh resource")
	}
	m := NewMailbox(k, "mb", 2)
	if m.Name() != "mb" || m.Closed() {
		t.Error("mailbox accessors wrong on fresh mailbox")
	}
	var pname string
	var pid int
	k.Spawn("worker", func(p *Proc) {
		pname = p.Name()
		pid = p.ID()
		if p.Kernel() != k {
			t.Error("Proc.Kernel mismatch")
		}
		r.Acquire(p, 2)
		if r.InUse() != 2 || r.Grants() != 1 {
			t.Errorf("in-use %d grants %d after acquire", r.InUse(), r.Grants())
		}
		r.Release(2)
		m.Put(p, 1)
		m.Put(p, 2)
		if m.Puts() != 2 || m.Len() != 2 {
			t.Errorf("puts %d len %d", m.Puts(), m.Len())
		}
		m.Get(p)
		if m.Gets() != 1 {
			t.Errorf("gets %d", m.Gets())
		}
		m.Close()
		if !m.Closed() {
			t.Error("mailbox should be closed")
		}
	})
	k.Run()
	if pname != "worker" || pid <= 0 {
		t.Errorf("proc accessors: name %q id %d", pname, pid)
	}
}

func TestPipeAccessors(t *testing.T) {
	k := NewKernel()
	pipe := NewPipe(k, "loop", 2, 100e6, Microsecond)
	if pipe.Name() != "loop" || pipe.Channels() != 2 {
		t.Error("pipe accessors wrong")
	}
	if pipe.QueueLen() != 0 {
		t.Error("fresh pipe has queued transfers")
	}
}
