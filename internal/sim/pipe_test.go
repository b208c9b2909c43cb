package sim

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"howsim/internal/probe"
)

func TestPipeSingleTransferTime(t *testing.T) {
	k := NewKernel()
	pipe := NewPipe(k, "fc", 1, 100e6, 10*Microsecond)
	var done Time
	k.Spawn("x", func(p *Proc) {
		pipe.Transfer(p, 100e6) // 1s at 100 MB/s + 10us startup
		done = p.Now()
	})
	k.Run()
	want := Second + 10*Microsecond
	if done != want {
		t.Errorf("transfer finished at %v, want %v", done, want)
	}
	if pipe.BytesMoved() != 100e6 || pipe.Transfers() != 1 {
		t.Errorf("counters = (%d bytes, %d transfers), want (100e6, 1)", pipe.BytesMoved(), pipe.Transfers())
	}
}

func TestPipeDualChannelConcurrency(t *testing.T) {
	k := NewKernel()
	// Dual FC loop: two channels at 100 MB/s each.
	pipe := NewPipe(k, "fc2", 2, 100e6, 0)
	var finishes []Time
	for i := 0; i < 4; i++ {
		k.Spawn("x", func(p *Proc) {
			pipe.Transfer(p, 100e6)
			finishes = append(finishes, p.Now())
		})
	}
	k.Run()
	// Two run concurrently, so four 1s transfers finish at 1s,1s,2s,2s.
	want := []Time{Second, Second, 2 * Second, 2 * Second}
	for i := range want {
		if finishes[i] != want[i] {
			t.Errorf("finishes = %v, want %v", finishes, want)
			break
		}
	}
}

func TestPipeAggregateBandwidth(t *testing.T) {
	// 200 MB over a dual 100 MB/s loop, split across two senders, takes 1s.
	k := NewKernel()
	pipe := NewPipe(k, "fc2", 2, 100e6, 0)
	pipe.Frame = 256 << 10
	var last Time
	for i := 0; i < 2; i++ {
		k.Spawn("x", func(p *Proc) {
			pipe.Transfer(p, 100e6)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	k.Run()
	// Segmentation rounds each 256 KiB segment up by at most 1ns.
	slack := Time(int64(100e6)/(256<<10)) + 1 // one ns of round-up per segment
	if last < Second || last > Second+slack*2 {
		t.Errorf("aggregate transfer finished at %v, want ~1s", last)
	}
}

func TestPipeSegmentationInterleaves(t *testing.T) {
	// A short transfer queued behind a long segmented one should not wait
	// for the whole long transfer.
	k := NewKernel()
	pipe := NewPipe(k, "bus", 1, 100e6, 0)
	pipe.Frame = 1e6
	var shortDone, longDone Time
	k.Spawn("long", func(p *Proc) {
		pipe.Transfer(p, 100e6) // 1s in 10ms frames
		longDone = p.Now()
	})
	k.Spawn("short", func(p *Proc) {
		p.Delay(Microsecond)
		pipe.Transfer(p, 1e6) // 10ms
		shortDone = p.Now()
	})
	k.Run()
	if shortDone >= longDone {
		t.Errorf("short transfer finished at %v, after long at %v", shortDone, longDone)
	}
	if shortDone > 50*Millisecond {
		t.Errorf("short transfer took %v; segmentation should let it in early", shortDone)
	}
}

func TestPipeUtilization(t *testing.T) {
	k := NewKernel()
	pipe := NewPipe(k, "p", 1, 100e6, 0)
	k.Spawn("x", func(p *Proc) {
		pipe.Transfer(p, 50e6) // busy 0.5s
		p.Delay(Second / 2)    // idle 0.5s
	})
	k.Run()
	if u := pipe.Utilization(); u < 0.49 || u > 0.51 {
		t.Errorf("Utilization() = %v, want 0.5", u)
	}
}

func TestPipeTransferDuration(t *testing.T) {
	k := NewKernel()
	pipe := NewPipe(k, "p", 1, 200e6, 5*Microsecond)
	got := pipe.TransferDuration(200e6)
	want := Second + 5*Microsecond
	if got != want {
		t.Errorf("TransferDuration = %v, want %v", got, want)
	}
}

// refTransferFrame is the blocking single-frame transfer Transfer ran
// before every transfer became a chain: it waits out any outage
// covering now, parks for a channel, holds it for the frame's duration
// and books the frame in the process's body.
func refTransferFrame(pp *Pipe, p *Proc, bytes int64) {
	for d := pp.stall(); d > 0; d = pp.stall() {
		p.Delay(d)
	}
	if pp.pr.On() {
		pp.pr.Sample(probe.KindQueue, int64(pp.res.QueueLen()))
	}
	pp.res.Acquire(p, 1)
	dur := pp.TransferDuration(bytes)
	p.Delay(dur)
	pp.res.Release(1)
	pp.bytesMoved += bytes
	pp.transfers++
	if pp.pr.On() {
		end := p.Now()
		pp.pr.SpanArg(probe.KindXfer, int64(end-dur), int64(end), bytes)
		pp.pr.Count(probe.KindBytes, bytes)
	}
}

// refTransferSegmented is the per-frame loop a multi-frame Transfer
// replaced: one blocking single-frame transfer per frame, the process
// parking at the end of every frame (and at every outage stall, which
// each frame waits out first). The tests and FuzzPipeSegmented use it
// as the oracle.
func refTransferSegmented(pp *Pipe, p *Proc, bytes int64) {
	if pp.Frame <= 0 || bytes <= pp.Frame {
		refTransferFrame(pp, p, bytes)
		return
	}
	for remaining := bytes; remaining > 0; {
		n := min(pp.Frame, remaining)
		refTransferFrame(pp, p, n)
		remaining -= n
	}
}

// segSender is one process of a segmented-transfer scenario: it arrives
// at start and then issues its transfers back to back.
type segSender struct {
	start Time
	xfers []int64
}

// segCase is a segmented-transfer scenario on one pipe.
type segCase struct {
	channels int
	frame    int64
	startup  Time
	senders  []segSender
	// task, when non-empty, lists transfers a callback task issues back
	// to back through TransferFunc, starting at taskStart.
	task      []int64
	taskStart Time
	// outages are the pipe's outage windows.
	outages []Window
	// until, when positive, stops the run there once with RunUntil and
	// records the kernel's state before running to the end.
	until Time
}

// runSegCase runs c with Transfer, or with the reference loop
// when ref is set, and renders everything observable: the (Now, label)
// trace, the pipe and channel statistics, the kernel's state, and every
// probe cell and span, the scheduler counters (KindEvents, KindParks,
// KindWakes, KindHandoffs) among them. inlined reports whether a task
// continuation ran on a lone process's stack.
func runSegCase(c segCase, ref bool) (out string, inlined bool) {
	k := NewKernel()
	sink := probe.NewSink()
	k.SetProbe(sink)
	defer k.Shutdown()
	pp := NewPipe(k, "loop", c.channels, 100e6, c.startup)
	pp.Frame = c.frame
	pp.SetOutages(c.outages)
	var sb strings.Builder
	rec := func(format string, args ...any) {
		fmt.Fprintf(&sb, "%v ", k.Now())
		fmt.Fprintf(&sb, format, args...)
		sb.WriteByte('\n')
	}
	xfer := pp.Transfer
	if ref {
		xfer = func(p *Proc, bytes int64) { refTransferSegmented(pp, p, bytes) }
	}
	for i, s := range c.senders {
		k.Spawn(fmt.Sprintf("s%d", i), func(p *Proc) {
			p.Delay(s.start)
			for j, bytes := range s.xfers {
				xfer(p, bytes)
				rec("s%d xfer%d %d", i, j, bytes)
			}
		})
	}
	if len(c.task) > 0 {
		tk := k.NewTask("task")
		next := 0
		var step func()
		step = func() {
			if onInlineStack() {
				inlined = true
			}
			if next > 0 {
				rec("task xfer%d", next-1)
			}
			if next == len(c.task) {
				tk.Finish()
				return
			}
			next++
			pp.TransferFunc(tk, c.task[next-1], step)
		}
		k.At(c.taskStart, step)
	}
	state := func(label string) {
		rec("%s: bytes=%d transfers=%d util=%v grants=%d inuse=%d queue=%d live=%d blocked=%d pending=%d stall=%v/%d",
			label, pp.BytesMoved(), pp.Transfers(), pp.Utilization(), pp.res.Grants(), pp.res.InUse(),
			pp.QueueLen(), k.Live(), k.Blocked(), k.events.len(), pp.StallTime(), pp.Stalls())
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
			dur, n, sum := sink.Cell(i, kd)
			if dur == 0 && n == 0 && sum == 0 {
				continue
			}
			fmt.Fprintf(&sb, "%s/%s %s: dur=%d n=%d sum=%d max=%d hist=%v\n",
				comp, name, sink.KindName(kd), dur, n, sum, sink.SampleMax(i, kd), sink.Histogram(i, kd))
		}
	}
	sink.EachSpan(func(sp probe.Span) { fmt.Fprintf(&sb, "span %+v\n", sp) })
	return sb.String(), inlined
}

// checkSegCase fails t unless c renders the same under Transfer and
// under the reference loop.
func checkSegCase(t *testing.T, c segCase) (inlined bool) {
	t.Helper()
	got, inlined := runSegCase(c, false)
	want, refInlined := runSegCase(c, true)
	if got != want {
		t.Fatalf("Transfer differs from the per-frame reference:\n%s", lineDiff(got, want))
	}
	if inlined != refInlined {
		t.Fatalf("inline path taken %v, reference %v", inlined, refInlined)
	}
	return inlined
}

// lineDiff renders the first differing line of got and want with a
// few lines of context.
func lineDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	from := max(0, i-3)
	return fmt.Sprintf("line %d\ngot:\n%s\nwant:\n%s", i+1,
		strings.Join(g[from:min(len(g), i+3)], "\n"), strings.Join(w[from:min(len(w), i+3)], "\n"))
}

const segFrame = 64 << 10 // 655.36us at 100 MB/s

// segContention is several processes, some arriving together, mixing
// transfers below, at and above the frame size.
var segContention = []segSender{
	{0, []int64{300 << 10, segFrame, 1 << 20}},
	{0, []int64{200 << 10}},
	{5 * Microsecond, []int64{2 * segFrame, 10 << 10, 500 << 10}},
	{700 * Microsecond, []int64{segFrame + 1, 3*segFrame - 1}},
	{2 * Millisecond, []int64{1 << 20}},
}

// segOutages overlap, abut and fall between frames of segContention.
var segOutages = []Window{
	{Start: Millisecond, End: 3 * Millisecond}, {Start: 2 * Millisecond, End: 5 * Millisecond},
	{Start: 5 * Millisecond, End: 6 * Millisecond}, {Start: 9 * Millisecond, End: 9300 * Microsecond},
}

func TestPipeSegmentedMatchesReference(t *testing.T) {
	lone := []segSender{{0, []int64{1 << 20, 200 << 10, segFrame, 129 << 10}}}
	cases := []struct {
		name string
		c    segCase
	}{
		{"contention", segCase{frame: segFrame, startup: 10 * Microsecond, senders: segContention}},
		{"callback-task", segCase{frame: segFrame, startup: 10 * Microsecond, senders: segContention,
			task: []int64{100 << 10, segFrame, 300 << 10, 1, 2 * segFrame}, taskStart: 700 * Microsecond}},
		{"run-until", segCase{frame: segFrame, senders: segContention,
			task: []int64{segFrame, segFrame}, taskStart: Millisecond, until: 2500 * Microsecond}},
		{"exact-frames", segCase{frame: segFrame, senders: []segSender{
			{0, []int64{2 * segFrame, 4 * segFrame}}, {0, []int64{3 * segFrame}}, {Millisecond, []int64{segFrame}}}}},
		{"small-frames", segCase{frame: 1000, startup: Microsecond, senders: []segSender{
			{0, []int64{5500, 999, 1001}}, {3 * Microsecond, []int64{4000}}, {3 * Microsecond, []int64{2500}}}}},
		{"unsegmented", segCase{senders: segContention}},
		{"lone", segCase{frame: segFrame, startup: 10 * Microsecond, senders: lone,
			task: []int64{50 << 10, 50 << 10, 50 << 10}, taskStart: Millisecond}},
		{"lone-run-until", segCase{frame: segFrame, senders: lone,
			task: []int64{50 << 10}, taskStart: Millisecond, until: 3 * Millisecond}},
		{"outages", segCase{frame: segFrame, startup: 10 * Microsecond, senders: segContention,
			task: []int64{100 << 10, 300 << 10, 1}, taskStart: 700 * Microsecond, outages: segOutages}},
		{"outages-run-until", segCase{frame: segFrame, senders: segContention,
			outages: segOutages, until: 4 * Millisecond}},
		{"outages-unsegmented", segCase{senders: segContention, outages: segOutages}},
		{"outages-lone", segCase{frame: segFrame, senders: lone, outages: segOutages}},
	}
	for _, tc := range cases {
		for ch := 1; ch <= 3; ch++ {
			t.Run(fmt.Sprintf("%s/%dch", tc.name, ch), func(t *testing.T) {
				c := tc.c
				c.channels = ch
				inlined := checkSegCase(t, c)
				if strings.HasPrefix(tc.name, "lone") && !inlined {
					t.Fatal("lone process never ran a callback inline")
				}
			})
		}
	}
}

// TestPipeSegmentedMiddleFramesAreCallbacks pins what the rewrite is
// for: while a middle frame is on the wire, the pending event that ends
// it runs the transfer's next step in kernel context (the event names
// the process's Task, parked in the transfer's hold, so the loop
// dispatches the step) rather than resuming the process, and the last
// frame still ends with the process's own wake.
func TestPipeSegmentedMiddleFramesAreCallbacks(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	pp := NewPipe(k, "loop", 1, 100e6, 0)
	pp.Frame = 1e6 // 10ms frames
	s := k.Spawn("s", func(p *Proc) { pp.Transfer(p, 3e6) })
	for _, step := range []struct {
		at       Time
		callback bool
	}{{5 * Millisecond, true}, {15 * Millisecond, true}, {25 * Millisecond, false}} {
		k.RunUntil(step.at)
		if n := k.events.len(); n != 1 {
			t.Fatalf("at %v: %d pending events, want 1", step.at, n)
		}
		e := &k.events.slab[k.events.peekSlot()]
		own := e.fn == nil && e.tk == &s.Task
		callback := own && s.waitKind == taskWaitXferHold
		wake := own && s.waitKind == taskWaitNone
		if callback != step.callback || wake == step.callback {
			t.Fatalf("at %v: frame end is callback=%v wake=%v, want callback=%v",
				step.at, callback, wake, step.callback)
		}
	}
	if end := k.Run(); end != 30*Millisecond {
		t.Fatalf("transfer ended at %v, want 30ms", end)
	}
}

// TestPipeSegmentedShutdownMidTransfer cancels a run while processes
// are mid-transfer: one holding a channel, others queued for one by a
// frame-end callback or by their own Acquire. Shutdown must leave
// nothing live or blocked.
func TestPipeSegmentedShutdownMidTransfer(t *testing.T) {
	for _, senders := range []int{1, 3} {
		k := NewKernel()
		pp := NewPipe(k, "loop", 1, 100e6, 0)
		pp.Frame = segFrame
		for i := 0; i < senders; i++ {
			k.Spawn("s", func(p *Proc) { pp.Transfer(p, 1<<20) })
		}
		k.RunUntil(2 * Millisecond)
		if k.Live() != senders || k.Blocked() != senders-1 {
			t.Fatalf("%d senders mid-transfer: live=%d blocked=%d, want %d and %d",
				senders, k.Live(), k.Blocked(), senders, senders-1)
		}
		k.Shutdown()
		if k.Live() != 0 || k.Blocked() != 0 {
			t.Fatalf("%d senders after Shutdown: live=%d blocked=%d, want 0 and 0", senders, k.Live(), k.Blocked())
		}
	}
}

// TestProcSizeClass keeps Proc in the 224-byte allocation size class:
// a transfer keeps its in-flight state in existing Task fields
// instead of growing every process.
func TestProcSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Proc{}); n > 224 {
		t.Fatalf("Proc is %d bytes, want <= 224", n)
	}
}

// FuzzPipeSegmented checks multi-frame Transfers against the per-frame
// reference over frame size, channel count, an optional RunUntil bound,
// an optional callback-task competitor, optional outage windows and
// senders decoded from raw: three bytes each, an arrival offset and a
// transfer size.
func FuzzPipeSegmented(f *testing.F) {
	f.Add(uint16(1000), uint8(1), uint16(0), []byte{0, 10, 3, 0, 200, 7, 9, 0, 1})
	f.Add(uint16(64), uint8(0x82), uint16(25), []byte{0, 4, 0, 0, 4, 0, 1, 2, 0})
	f.Add(uint16(0), uint8(2), uint16(3), []byte{5, 255, 255, 5, 0, 100})
	f.Add(uint16(4096), uint8(0x80), uint16(0), []byte{0, 64, 0})
	f.Add(uint16(1000), uint8(0x89), uint16(30), []byte{0, 10, 3, 0, 200, 7, 9, 0, 1})
	f.Fuzz(func(t *testing.T, frame uint16, channels uint8, until uint16, raw []byte) {
		c := segCase{channels: int(channels&3) + 1, frame: int64(frame), startup: Time(frame % 7)}
		if c.frame > 0 && c.frame < 64 {
			c.frame = 64 // bound the frame count per transfer
		}
		if channels&0x80 != 0 {
			c.task = []int64{c.frame + 1, 1000, 3 * c.frame}
			c.taskStart = Time(channels&0x70) * Microsecond
		}
		if channels&0x08 != 0 {
			at := Time(until%97) * 10 * Microsecond
			c.outages = []Window{{Start: at, End: at + Time(frame%500)*Microsecond + 1},
				{Start: 2 * at, End: 3*at + 50*Microsecond}}
		}
		c.until = Time(until) * Microsecond
		for len(raw) >= 3 && len(c.senders) < 6 {
			bytes := int64(raw[1])<<8 | int64(raw[2])
			c.senders = append(c.senders, segSender{Time(raw[0]) * Microsecond, []int64{bytes, bytes/3 + 1}})
			raw = raw[3:]
		}
		got, _ := runSegCase(c, false)
		want, _ := runSegCase(c, true)
		if got != want {
			t.Fatalf("Transfer differs from the per-frame reference:\n%s", lineDiff(got, want))
		}
	})
}
