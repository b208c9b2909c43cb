package sim

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"
)

// TestGetFuncPutFuncRendezvous drives a producer/consumer pair entirely
// through the callback API and checks values, ordering and completion.
func TestGetFuncPutFuncRendezvous(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	m := NewMailbox(k, "mb", 1)

	var got []int
	prod := k.NewTask("prod")
	cons := k.NewTask("cons")

	var produce func(i int)
	produce = func(i int) {
		if i == 4 {
			m.Close()
			prod.Finish()
			return
		}
		m.PutFunc(prod, i, func(err error) {
			if err != nil {
				t.Errorf("put %d: %v", i, err)
			}
			produce(i + 1)
		})
	}
	var consume func()
	consume = func() {
		m.GetFunc(cons, func(v any, ok bool) {
			if !ok {
				cons.Finish()
				return
			}
			got = append(got, v.(int))
			consume()
		})
	}
	produce(0)
	consume()
	k.Run()

	want := []int{0, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if k.Blocked() != 0 {
		t.Errorf("Blocked() = %d after drain, want 0", k.Blocked())
	}
}

// TestGetFuncBlocksUntilPut checks that a GetFunc continuation on an
// empty mailbox runs only when a value arrives, at the producer's time.
func TestGetFuncBlocksUntilPut(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	m := NewMailbox(k, "mb", 0)

	tk := k.NewTask("getter")
	var at Time = -1
	m.GetFunc(tk, func(v any, ok bool) {
		if !ok || v.(string) != "x" {
			t.Errorf("got (%v, %v), want (x, true)", v, ok)
		}
		at = k.Now()
		tk.Finish()
	})
	k.Spawn("putter", func(p *Proc) {
		p.Delay(3 * Millisecond)
		m.Put(p, "x")
	})
	k.Run()
	if at != 3*Millisecond {
		t.Errorf("get completed at %v, want 3ms", at)
	}
}

// TestGetFuncReparksOnSteal fills a mailbox with one value while two
// getters wait: the first takes it, the second must re-park rather than
// receive a stale wake, and is eventually served by a second put.
func TestGetFuncReparksOnSteal(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	m := NewMailbox(k, "mb", 2)

	var order []string
	get := func(name string) *Task {
		tk := k.NewTask(name)
		m.GetFunc(tk, func(v any, ok bool) {
			order = append(order, name+":"+v.(string))
			tk.Finish()
		})
		return tk
	}
	get("a")
	get("b")
	k.Spawn("putter", func(p *Proc) {
		p.Delay(Millisecond)
		m.Put(p, "first")
		p.Delay(Millisecond)
		m.Put(p, "second")
	})
	k.Run()
	if len(order) != 2 || order[0] != "a:first" || order[1] != "b:second" {
		t.Errorf("order = %v, want [a:first b:second]", order)
	}
}

// TestAcquireFuncSerializes checks FIFO granting and that held units
// block a callback acquirer until release.
func TestAcquireFuncSerializes(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	r := NewResource(k, "r", 1)

	var grantAt Time = -1
	tk := k.NewTask("acquirer")
	k.Spawn("holder", func(p *Proc) {
		r.Acquire(p, 1)
		p.Delay(5 * Millisecond)
		r.Release(1)
	})
	k.Spawn("kick", func(p *Proc) {
		p.Yield() // let the holder grab the resource first
		r.AcquireFunc(tk, 1, func() {
			grantAt = k.Now()
			r.Release(1)
			tk.Finish()
		})
	})
	k.Run()
	if grantAt != 5*Millisecond {
		t.Errorf("callback acquire granted at %v, want 5ms", grantAt)
	}
}

// TestTransferFuncTiming checks that TransferFunc completes after the
// pipe's transfer duration and accounts the bytes.
func TestTransferFuncTiming(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	pipe := NewPipe(k, "p", 1, 1e6, 0) // one channel, 1 MB/s, no startup

	tk := k.NewTask("mover")
	var doneAt Time = -1
	pipe.TransferFunc(tk, 500_000, func() {
		doneAt = k.Now()
		tk.Finish()
	})
	k.Run()
	want := pipe.TransferDuration(500_000)
	if doneAt != want {
		t.Errorf("transfer completed at %v, want %v", doneAt, want)
	}
	if pipe.BytesMoved() != 500_000 {
		t.Errorf("BytesMoved() = %d, want 500000", pipe.BytesMoved())
	}
}

// TestDeadlockReportNamesHungTask is the observability contract for the
// callback API: a GetFunc continuation parked forever must appear in
// DeadlockReport by task name and wait site, just like a hung process.
func TestDeadlockReportNamesHungTask(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	m := NewMailbox(k, "ingest.queue", 0)

	tk := k.NewTask("disk3.server")
	m.GetFunc(tk, func(v any, ok bool) {
		t.Error("continuation must never run: nothing is ever put")
	})
	k.Run()

	rep := k.DeadlockReport()
	if rep == "" {
		t.Fatal("DeadlockReport() = \"\", want a report naming the hung task")
	}
	if !strings.Contains(rep, "disk3.server") {
		t.Errorf("report does not name the task:\n%s", rep)
	}
	if !strings.Contains(rep, `"ingest.queue"`) {
		t.Errorf("report does not name the mailbox:\n%s", rep)
	}
	if !strings.Contains(rep, "get") {
		t.Errorf("report does not name the operation:\n%s", rep)
	}
}

// TestTaskPoolingReuse checks that Finish returns storage to the pool
// and NewTask recycles it without allocating.
func TestTaskPoolingReuse(t *testing.T) {
	k := NewKernel()
	defer k.Close()

	a := k.NewTask("a")
	a.Finish()
	b := k.NewTask("b")
	if a != b {
		t.Error("NewTask after Finish did not reuse pooled storage")
	}
	if b.Name() != "b" {
		t.Errorf("recycled task name = %q, want b", b.Name())
	}
	b.Finish()

	allocs := testing.AllocsPerRun(100, func() {
		tk := k.NewTask("steady")
		tk.Finish()
	})
	if allocs != 0 {
		t.Errorf("NewTask/Finish allocates %v per cycle in steady state, want 0", allocs)
	}
}

// TestFinishWhileParkedPanics: retiring a task with a pending wake would
// let the wake resume recycled state, so Finish must refuse.
func TestFinishWhileParkedPanics(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	m := NewMailbox(k, "mb", 0)
	tk := k.NewTask("parked")
	m.GetFunc(tk, func(v any, ok bool) {})
	defer func() {
		if recover() == nil {
			t.Error("Finish on a parked task did not panic")
		}
	}()
	tk.Finish()
}

// TestSignalWaitFuncAndReset covers the callback waiter path plus the
// Reset used by pooled completion signals.
func TestSignalWaitFuncAndReset(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	s := NewSignal()

	tk := k.NewTask("waiter")
	var fired int
	s.WaitFunc(tk, func() { fired++ })
	k.At(2*Millisecond, s.Fire)
	k.Run()
	if fired != 1 {
		t.Fatalf("continuation ran %d times, want 1", fired)
	}

	// Already-fired signal runs the continuation inline.
	s.WaitFunc(tk, func() { fired++ })
	if fired != 2 {
		t.Fatalf("WaitFunc on fired signal did not run inline (fired = %d)", fired)
	}

	// Reset rearms the signal for the next pooled use.
	s.Reset()
	if s.Fired() {
		t.Error("Fired() = true after Reset")
	}
	s.WaitFunc(tk, func() { fired++ })
	if fired != 2 {
		t.Error("continuation ran before re-fire")
	}
	s.Fire()
	k.Run()
	if fired != 3 {
		t.Errorf("continuation after Reset+Fire ran %d times total, want 3", fired)
	}
	tk.Finish()
}

// TestAwaitHandoffResumesInline: Handoff must resume the parked caller
// inside the current event, ahead of same-time events that were queued
// before the handoff — the property that keeps event-mode state
// machines seq-equivalent to the blocking calls they replace.
func TestAwaitHandoffResumesInline(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var order []string
	k.Spawn("caller", func(p *Proc) {
		k.After(Millisecond, func() {
			k.At(k.Now(), func() { order = append(order, "queued-later") })
			order = append(order, "work-done")
			k.Handoff(p)
		})
		p.Await("pump", "join")
		order = append(order, "resumed")
	})
	k.Run()
	want := []string{"work-done", "resumed", "queued-later"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestAwaitNamedInDeadlockReport: a caller abandoned in Await must show
// up like any other blocked process.
func TestAwaitNamedInDeadlockReport(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	k.Spawn("disklet", func(p *Proc) { p.Await("stream.pump", "join") })
	k.Run()
	rep := k.DeadlockReport()
	if !strings.Contains(rep, "disklet") || !strings.Contains(rep, "join") {
		t.Errorf("DeadlockReport() = %q, want the awaiting process named", rep)
	}
}

// TestHandoffFromProcessPanics: handing control to another process while
// one is running would make two processes runnable at once.
func TestHandoffFromProcessPanics(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	k.Spawn("parked", func(p *Proc) { p.Await("pump", "join") })
	k.Spawn("offender", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Handoff from process context did not panic")
			}
		}()
		var parked *Proc
		for _, q := range k.procs {
			if q.name == "parked" {
				parked = q
			}
		}
		p.Yield() // let "parked" park first
		k.Handoff(parked)
	})
	k.Run()
}

// TestSpawnPoolingReuse checks that finished processes are recycled:
// steady-state Spawn must not allocate a Proc, stack or channel.
func TestSpawnPoolingReuse(t *testing.T) {
	k := NewKernel()
	defer k.Close()

	// Warm the pool.
	body := func(p *Proc) {}
	k.Spawn("warm", body)
	k.Run()

	allocs := testing.AllocsPerRun(100, func() {
		k.Spawn("steady", body)
		k.Run()
	})
	if allocs != 0 {
		t.Errorf("steady-state Spawn allocates %v per cycle, want 0", allocs)
	}
}

// TestKernelClose checks that Close is idempotent and that Spawn still
// works after a Close (fresh workers replace the released ones).
func TestKernelClose(t *testing.T) {
	k := NewKernel()
	k.Spawn("a", func(p *Proc) { p.Delay(Millisecond) })
	k.Run()
	k.Close()
	k.Close() // idempotent

	ran := false
	k.Spawn("b", func(p *Proc) { ran = true })
	k.Run()
	if !ran {
		t.Error("Spawn after Close did not run")
	}
	k.Close()
}

// TestNewTaskNNamesOnDemand checks that a NewTaskN name reads, in Name
// and in DeadlockReport, exactly as the Sprintf-built name of a NewTask
// does, and that a pooled task reused by NewTask drops the suffix.
func TestNewTaskNNamesOnDemand(t *testing.T) {
	report := func(mk func(k *Kernel) *Task) (string, string) {
		k := NewKernel()
		defer k.Close()
		mb := NewMailbox(k, "inbox", 0)
		tk := mk(k)
		mb.GetFunc(tk, func(any, bool) {})
		k.Run()
		return tk.Name(), k.DeadlockReport()
	}
	nameN, repN := report(func(k *Kernel) *Task { return k.NewTaskN("isend3->", 5) })
	name, rep := report(func(k *Kernel) *Task { return k.NewTask(fmt.Sprintf("isend%d->%d", 3, 5)) })
	if nameN != "isend3->5" || nameN != name {
		t.Errorf("NewTaskN name = %q, Sprintf form %q", nameN, name)
	}
	if repN != rep || !strings.Contains(repN, "isend3->5: get") {
		t.Errorf("DeadlockReport with NewTaskN:\n%s\nwith the Sprintf name:\n%s", repN, rep)
	}

	k := NewKernel()
	defer k.Close()
	tk := k.NewTaskN("isend0->", 12)
	tk.Finish()
	if again := k.NewTask("stream.pump"); again != tk || again.Name() != "stream.pump" {
		t.Errorf("recycled task is %p named %q, want %p named %q", again, again.Name(), tk, "stream.pump")
	}
}

// TestTaskSizeClass keeps Task in the 176-byte allocation size class
// (the next is 192): every send in flight holds a bare task.
func TestTaskSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Task{}); n > 176 {
		t.Fatalf("Task is %d bytes, want <= 176", n)
	}
}
