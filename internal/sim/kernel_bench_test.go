package sim

import (
	"testing"

	"howsim/internal/probe"
)

// The kernel microbenchmarks isolate the hot paths every simulation
// funnels through: heap push/pop of timer events, the park/resume
// handoff, same-time wakes, mailbox handoffs and resource admission.
// All of them must report 0 allocs/op in steady state — the event queue
// stores events by value and every waiter queue recycles its backing
// storage.

// BenchmarkKernelEventThroughput drives a pool of self-rescheduling
// timer callbacks through the event queue: pure heap push/pop with no
// process switches. This is the disk/bus model's dominant pattern
// (seek timers, transfer completions).
func BenchmarkKernelEventThroughput(b *testing.B) {
	benchTimers(b, NewKernel())
}

// BenchmarkKernelEventThroughputSharded is the same timer loop on a
// ShardGroup's hub kernel, which also writes and reads each event's
// shard-ordering key (eventQueue.keys). benchguard gates it at 0
// allocs/op, so the keys array can never start allocating per event.
func BenchmarkKernelEventThroughputSharded(b *testing.B) {
	g := NewShardGroup(1)
	defer g.Close()
	benchTimers(b, g.Hub())
}

// benchTimers runs b.N events of 256 self-rescheduling timer callbacks
// with delays 1..97 on k.
func benchTimers(b *testing.B, k *Kernel) {
	const timers = 256
	remaining := b.N
	fns := make([]func(), timers)
	for i := range fns {
		d := Time(i%97 + 1)
		fns[i] = func() {
			if remaining > 0 {
				remaining--
				k.After(d, fns[i%timers])
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i, fn := range fns {
		k.After(Time(i+1), fn)
	}
	k.Run()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkKernelSameTimeFanout schedules bursts of callbacks at the
// current instant — the wake-at-now pattern used by Delay(0), mailbox
// handoffs and resource grants — which the same-timestamp fast lane
// serves without touching the heap.
func BenchmarkKernelSameTimeFanout(b *testing.B) {
	k := NewKernel()
	const burst = 64
	remaining := b.N
	var tick func()
	nop := func() {}
	tick = func() {
		for i := 0; i < burst-1; i++ {
			k.At(k.Now(), nop)
		}
		if remaining > burst {
			remaining -= burst
			k.After(1, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.After(1, tick)
	k.Run()
}

// BenchmarkKernelParkResume measures the full process context-switch
// round trip: schedule a wake, park the coroutine, hand control to the
// kernel and back. A second process parked for the whole run keeps the
// sleeper from running the event loop inline (a lone process would
// never switch; BenchmarkKernelSingleProcWait measures that path).
func BenchmarkKernelParkResume(b *testing.B) {
	k := NewKernel()
	defer k.Shutdown()
	k.Spawn("idle", func(p *Proc) { NewSignal().Wait(p) })
	k.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Delay(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkKernelSingleProcWait is the disklet pattern of a sharded
// Active Disk leaf: the kernel's only process submits a request and
// waits on its completion signal while timer callbacks (seek, then
// transfer) complete it. The lone process runs those callbacks inline
// on its own stack, so each request costs three events and no
// coroutine switch.
func BenchmarkKernelSingleProcWait(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	var done Signal
	xferDone := func() { done.Fire() }
	seekDone := func() { k.After(3, xferDone) }
	k.Spawn("disklet", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			done.Reset()
			k.After(5, seekDone)
			done.Wait(p)
			p.Delay(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkKernelSpawn measures process creation and teardown.
func BenchmarkKernelSpawn(b *testing.B) {
	k := NewKernel()
	body := func(p *Proc) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Spawn("w", body)
		if k.Live() >= 512 {
			k.Run()
		}
	}
	k.Run()
}

// BenchmarkKernelMailboxPingPong bounces a message between two
// processes through a pair of mailboxes: every hop is a blocked-get
// wake plus a park.
func BenchmarkKernelMailboxPingPong(b *testing.B) {
	k := NewKernel()
	ab := NewMailbox(k, "ab", 0)
	ba := NewMailbox(k, "ba", 0)
	var msg struct{}
	k.Spawn("a", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ab.Put(p, msg)
			ba.Get(p)
		}
		ab.Close()
	})
	k.Spawn("b", func(p *Proc) {
		for {
			if _, ok := ab.Get(p); !ok {
				return
			}
			ba.Put(p, msg)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkKernelCallbackPingPong is BenchmarkKernelMailboxPingPong on
// the callback API: the same two-mailbox bounce driven by bare tasks
// with pre-bound continuations, so each hop is a dispatch in kernel
// context instead of a process park/resume round trip. The ratio
// between the two benchmarks is the payoff of the event-driven fast
// path.
func BenchmarkKernelCallbackPingPong(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	ab := NewMailbox(k, "ab", 0)
	ba := NewMailbox(k, "ba", 0)
	var msg struct{}
	remaining := b.N
	ta := k.NewTask("a")
	tb := k.NewTask("b")

	var aStep func(v any, ok bool)
	aPutDone := func(err error) { ba.GetFunc(ta, aStep) }
	aStep = func(v any, ok bool) {
		if remaining <= 0 {
			ab.Close()
			return
		}
		remaining--
		ab.PutFunc(ta, msg, aPutDone)
	}
	var bStep func(v any, ok bool)
	bPutDone := func(err error) { ab.GetFunc(tb, bStep) }
	bStep = func(v any, ok bool) {
		if !ok {
			return
		}
		ba.PutFunc(tb, msg, bPutDone)
	}
	ab.GetFunc(tb, bStep)
	b.ReportAllocs()
	b.ResetTimer()
	aStep(nil, true)
	k.Run()
}

// BenchmarkKernelCallbackResource is BenchmarkKernelResourceContention
// on the callback API: four task state machines contend for a
// capacity-1 resource through AcquireFunc.
func BenchmarkKernelCallbackResource(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	r := NewResource(k, "r", 1)
	grants := b.N
	start := make([]func(), 0, 4)
	for w := 0; w < 4; w++ {
		t := k.NewTask("w")
		var next, acquired, release func()
		next = func() {
			if grants <= 0 {
				return
			}
			grants--
			r.AcquireFunc(t, 1, acquired)
		}
		release = func() { r.Release(1); next() }
		acquired = func() { k.After(1, release) }
		start = append(start, next)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, next := range start {
		next()
	}
	k.Run()
}

// BenchmarkKernelTaskCreate measures bare-task creation and retirement —
// the pooled counterpart of BenchmarkKernelSpawn.
func BenchmarkKernelTaskCreate(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := k.NewTask("t")
		t.Finish()
	}
}

// BenchmarkKernelEventThroughputProbeOff is BenchmarkKernelEventThroughput
// with an observability sink attached but disabled — the configuration
// every plain run pays for. The probe branches on the dispatch path must
// keep this at 0 allocs/op and within the benchguard ns/op gate.
func BenchmarkKernelEventThroughputProbeOff(b *testing.B) {
	k := NewKernel()
	sink := probe.NewSink()
	sink.SetEnabled(false)
	k.SetProbe(sink)
	benchTimers(b, k)
}

// benchPipeTransfers drives back-to-back callback-mode pipe transfers —
// the emission-heaviest component path (a queue sample, an occupancy
// span and a byte counter per transfer when probing is on).
func benchPipeTransfers(b *testing.B, sink *probe.Sink) {
	k := NewKernel()
	defer k.Close()
	k.SetProbe(sink)
	pp := NewPipe(k, "p", 1, 1e9, 0)
	t := k.NewTask("t")
	remaining := 1 // warm-up transfer: binds continuations, allocates lazy probe state
	var step func()
	step = func() {
		if remaining <= 0 {
			return
		}
		remaining--
		pp.TransferFunc(t, 4096, step)
	}
	step()
	k.Run()
	remaining = b.N
	b.ReportAllocs()
	b.ResetTimer()
	step()
	k.Run()
}

// BenchmarkKernelPipeTransferProbeOff must stay at 0 allocs/op: the
// sink is attached but disabled, so every emission is a branch.
func BenchmarkKernelPipeTransferProbeOff(b *testing.B) {
	sink := probe.NewSink()
	sink.SetEnabled(false)
	benchPipeTransfers(b, sink)
}

// BenchmarkKernelPipeTransferProbeOn must also stay at 0 allocs/op in
// steady state: spans go to a preallocated ring (overflowing by
// dropping, never growing) and aggregates to dense tables.
func BenchmarkKernelPipeTransferProbeOn(b *testing.B) {
	benchPipeTransfers(b, probe.NewSinkCap(1<<12))
}

// BenchmarkKernelPipeTransferSegmented drives back-to-back 8-frame
// Transfer calls by one process against a callback task that
// sends one frame every third frame time on the same single-channel
// pipe, so some re-arbitrations are contended. An op is one 8-frame
// transfer; it must stay at 0 allocs/op.
func BenchmarkKernelPipeTransferSegmented(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	const frame = 64 << 10
	pp := NewPipe(k, "loop", 1, 1e9, Microsecond)
	pp.Frame = frame
	remaining := 0
	body := func(p *Proc) {
		for ; remaining > 0; remaining-- {
			pp.Transfer(p, 8*frame)
		}
	}
	competitor := k.NewTask("competitor")
	gap := 3 * pp.TransferDuration(frame)
	var send, sent func()
	send = func() {
		if remaining > 0 {
			pp.TransferFunc(competitor, frame, sent)
		}
	}
	sent = func() { k.After(gap, send) }
	run := func(n int) {
		remaining = n
		k.Spawn("sender", body)
		send()
		k.Run()
	}
	run(1) // warm-up: binds the frame-end callback, grows the queue slab
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

// BenchmarkKernelResourceContention hammers a capacity-1 resource with
// four holders, exercising the waiter queue (park, FIFO admit, wake)
// on nearly every acquisition.
func BenchmarkKernelResourceContention(b *testing.B) {
	k := NewKernel()
	r := NewResource(k, "r", 1)
	grants := b.N
	for w := 0; w < 4; w++ {
		k.Spawn("w", func(p *Proc) {
			for {
				if grants <= 0 {
					return
				}
				grants--
				r.Acquire(p, 1)
				p.Delay(1)
				r.Release(1)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkKernelBoundedMailbox streams items through a small bounded
// mailbox so both the putter and getter block regularly — the
// pipeline-stage backpressure pattern.
func BenchmarkKernelBoundedMailbox(b *testing.B) {
	k := NewKernel()
	mb := NewMailbox(k, "mb", 4)
	var msg struct{}
	k.Spawn("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			mb.Put(p, msg)
		}
		mb.Close()
	})
	k.Spawn("consumer", func(p *Proc) {
		for {
			if _, ok := mb.Get(p); !ok {
				return
			}
			p.Delay(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}
