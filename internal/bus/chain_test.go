package bus

import (
	"fmt"
	"strings"
	"testing"

	"howsim/internal/fault"
	"howsim/internal/probe"
	"howsim/internal/sim"
)

// refTransfer is the per-frame loop Transfer ran with outages installed
// before it became a chain: one Pipe.Transfer per frame, the process
// parking at every stall and every frame. Each single-frame Transfer
// first waits out any window covering the current instant, booking the
// stall. TestTransferMatchesFrameLoop uses it as the oracle.
func refTransfer(b *Bus, p *sim.Proc, bytes int64) {
	for remaining := bytes; remaining > 0; {
		n := b.pipe.Frame
		if n <= 0 || remaining < n {
			n = remaining
		}
		b.pipe.Transfer(p, n)
		remaining -= n
	}
}

// busSender is one process of a scenario: it starts at start and
// issues its transfers back to back.
type busSender struct {
	start sim.Time
	xfers []int64
}

// runBusCase runs senders over a 2-channel bus with 64 KB frames and
// the given outage windows, through Transfer or (ref) refTransfer, and
// renders the (Now, label) trace, the bus statistics, the kernel's
// state and every probe cell and span, and counts the stalled frames.
func runBusCase(senders []busSender, outages []fault.Window, until sim.Time, ref bool) (string, int64) {
	k := sim.NewKernel()
	sink := probe.NewSink()
	k.SetProbe(sink)
	defer k.Shutdown()
	b := New(k, "bus", Params{2, 100e6, 5 * sim.Microsecond, 64 << 10})
	b.SetOutages(outages)
	var sb strings.Builder
	rec := func(format string, args ...any) {
		fmt.Fprintf(&sb, "%v ", k.Now())
		fmt.Fprintf(&sb, format, args...)
		sb.WriteByte('\n')
	}
	for i, s := range senders {
		k.Spawn(fmt.Sprintf("s%d", i), func(p *sim.Proc) {
			p.Delay(s.start)
			for j, n := range s.xfers {
				if ref {
					refTransfer(b, p, n)
				} else {
					b.Transfer(p, n)
				}
				rec("s%d xfer%d", i, j)
			}
		})
	}
	state := func(label string) {
		rec("%s: live=%d blocked=%d bytes=%d util=%v queue=%d stall=%v/%d", label, k.Live(), k.Blocked(),
			b.BytesMoved(), b.Utilization(), b.QueueLen(), b.StallTime(), b.Stalls())
	}
	if until > 0 {
		k.RunUntil(until)
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
	return sb.String(), b.Stalls()
}

// TestTransferMatchesFrameLoop checks Transfer across outage windows
// against the per-frame loop: overlapping and back-to-back windows,
// contention, a RunUntil bound and a lone process.
func TestTransferMatchesFrameLoop(t *testing.T) {
	ms := sim.Millisecond
	mix := []busSender{
		{0, []int64{300 << 10, 64 << 10, 1 << 20}},
		{0, []int64{200 << 10, 10 << 10}},
		{0, []int64{2 << 20}},
		{700 * sim.Microsecond, []int64{65 << 10, 3 << 20}},
	}
	lone := []busSender{{0, []int64{1 << 20, 100 << 10, 2 << 20}}}
	windows := []fault.Window{
		{Start: ms, End: 3 * ms}, {Start: 2 * ms, End: 5 * ms}, {Start: 5 * ms, End: 6 * ms},
		{Start: 9 * ms, End: 9*ms + 300*sim.Microsecond}, {Start: 20 * ms, End: 40 * ms},
	}
	for _, tc := range []struct {
		name    string
		senders []busSender
		until   sim.Time
	}{
		{"contention", mix, 0},
		{"run-until", mix, 4 * ms},
		{"lone", lone, 0},
		{"lone-run-until", lone, 10 * ms},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, stalls := runBusCase(tc.senders, windows, tc.until, false)
			want, _ := runBusCase(tc.senders, windows, tc.until, true)
			if got != want {
				g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
				i := 0
				for i < len(g) && i < len(w) && g[i] == w[i] {
					i++
				}
				t.Fatalf("Transfer differs from the per-frame loop at line %d:\ngot  %s\nwant %s", i+1, g[i], w[i])
			}
			if stalls < 2 {
				t.Fatalf("%d frames stalled in an outage, want several", stalls)
			}
		})
	}
}
