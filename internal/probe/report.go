package probe

import (
	"fmt"
	"sort"
	"strings"

	"howsim/internal/stats"
)

// Report is the utilization/phase view of one simulation run, built
// from a sink's aggregates (which, unlike the span ring, are immune to
// overflow). Render produces a deterministic plain-text report.
type Report struct {
	Task    string
	Config  string
	Elapsed Time
	// IncludeScheduler adds the execution-mode-dependent scheduler
	// counters. Off by default so reports stay byte-identical across
	// `-procmode event|parallel`.
	IncludeScheduler bool

	s *Sink
}

// BuildReport assembles a report for a run that ended at elapsed.
func (s *Sink) BuildReport(task, config string, elapsed Time) *Report {
	return &Report{Task: task, Config: config, Elapsed: elapsed, s: s}
}

// phaseRow is one task phase, in timeline order.
type phaseRow struct {
	name       string
	start, end Time
}

// phases collects the task-component phase spans from the ring in
// timeline order. Phases are emitted at the end of a run, so they are
// the last spans recorded and survive any ring overflow.
func (r *Report) phases() []phaseRow {
	var out []phaseRow
	r.s.EachSpan(func(sp Span) {
		if r.s.comps[sp.Inst] == "task" {
			out = append(out, phaseRow{r.s.kinds[sp.Kind], sp.Start, sp.End})
		}
	})
	sort.SliceStable(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// Accounted returns the fraction of the run's end-to-end virtual time
// covered by task phases (1.0 when the phases partition the timeline).
func (r *Report) Accounted() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	var covered Time
	for _, ph := range r.phases() {
		covered += ph.end - ph.start
	}
	return float64(covered) / float64(r.Elapsed)
}

// Render produces the report text: task phase table with an explicit
// residual, per-disk media activity, processor utilization,
// interconnect occupancy, stream-buffer occupancy and queue-depth
// histograms.
func (r *Report) Render() string {
	var sb strings.Builder
	s := r.s
	el := r.Elapsed
	fmt.Fprintf(&sb, "breakdown: %s on %s\n", r.Task, r.Config)
	fmt.Fprintf(&sb, "elapsed %.6fs; %d spans recorded, %d dropped\n\n",
		Seconds(el), s.SpansRecorded(), s.Dropped())

	r.renderPhases(&sb)
	r.renderComp(&sb, "disk", r.diskTable)
	r.renderComp(&sb, "cpu", r.cpuTable)
	r.renderComp(&sb, "link", r.linkTable)
	r.renderBuffers(&sb)
	r.renderQueues(&sb)
	if r.IncludeScheduler {
		r.renderSched(&sb)
	}
	return sb.String()
}

// renderPhases writes the task phase table: each phase's timeline
// position and share, plus the residual (time no phase accounts for),
// reported explicitly even when zero.
func (r *Report) renderPhases(sb *strings.Builder) {
	phases := r.phases()
	if len(phases) == 0 {
		fmt.Fprintf(sb, "task phases: none recorded\n\n")
		return
	}
	t := &stats.Table{Title: "task phases", Cols: []string{"phase", "start", "end", "time", "share"}}
	var covered Time
	for _, ph := range phases {
		d := ph.end - ph.start
		covered += d
		t.AddRow(ph.name, secs(ph.start), secs(ph.end), secs(d), pct(d, r.Elapsed))
	}
	residual := r.Elapsed - covered
	t.AddRow("(residual)", "", "", secs(residual), pct(residual, r.Elapsed))
	sb.WriteString(t.String())
	fmt.Fprintf(sb, "accounted %.2f%% of end-to-end time\n\n", 100*r.Accounted())
}

// renderComp writes one component section if any instance of comp
// registered.
func (r *Report) renderComp(sb *strings.Builder, comp string, table func([]int) *stats.Table) {
	var ids []int
	for i := 0; i < r.s.Instances(); i++ {
		if c, _ := r.s.Instance(i); c == comp {
			ids = append(ids, i)
		}
	}
	if len(ids) == 0 {
		return
	}
	sb.WriteString(table(ids).String())
	sb.WriteString("\n")
}

func (r *Report) diskTable(ids []int) *stats.Table {
	t := &stats.Table{
		Title: "disks",
		Cols:  []string{"disk", "busy", "seek", "rotate", "transfer", "requests", "cache MB", "retries"},
	}
	var busy, seek, rot, xfer Time
	var reqs, cacheB, retries int64
	for _, i := range ids {
		sDur, sCount, _ := r.s.Cell(i, KindService)
		kDur, _, _ := r.s.Cell(i, KindSeek)
		rDur, _, _ := r.s.Cell(i, KindRotate)
		xDur, _, _ := r.s.Cell(i, KindTransfer)
		_, _, cSum := r.s.Cell(i, KindCacheHit)
		_, _, retry := r.s.Cell(i, KindRetry)
		busy += sDur
		seek += kDur
		rot += rDur
		xfer += xDur
		reqs += sCount
		cacheB += cSum
		retries += retry
		_, name := r.s.Instance(i)
		t.AddRow(name, pct(sDur, r.Elapsed), pct(kDur, r.Elapsed), pct(rDur, r.Elapsed),
			pct(xDur, r.Elapsed), fmt.Sprintf("%d", sCount), mb(cSum), fmt.Sprintf("%d", retry))
	}
	n := Time(len(ids))
	t.AddRow("(mean)", pct(busy/n, r.Elapsed), pct(seek/n, r.Elapsed), pct(rot/n, r.Elapsed),
		pct(xfer/n, r.Elapsed), fmt.Sprintf("%d", reqs/int64(len(ids))), mb(cacheB/int64(len(ids))),
		fmt.Sprintf("%d", retries))
	return t
}

func (r *Report) cpuTable(ids []int) *stats.Table {
	t := &stats.Table{Title: "processors", Cols: []string{"cpu", "busy", "slices"}}
	for _, i := range ids {
		dur, count, _ := r.s.Cell(i, KindCompute)
		_, name := r.s.Instance(i)
		t.AddRow(name, pct(dur, r.Elapsed), fmt.Sprintf("%d", count))
	}
	return t
}

func (r *Report) linkTable(ids []int) *stats.Table {
	t := &stats.Table{
		Title: "interconnects",
		Cols:  []string{"link", "occupancy", "MB moved", "transfers", "stall", "drops"},
	}
	for _, i := range ids {
		dur, count, _ := r.s.Cell(i, KindXfer)
		_, _, bytes := r.s.Cell(i, KindBytes)
		stall, _, _ := r.s.Cell(i, KindStall)
		_, _, drops := r.s.Cell(i, KindDrop)
		denom := r.Elapsed
		if c := r.s.Capacity(i); c > 1 {
			denom *= Time(c)
		}
		_, name := r.s.Instance(i)
		t.AddRow(name, pct(dur, denom), mb(bytes), fmt.Sprintf("%d", count),
			secs(stall), fmt.Sprintf("%d", drops))
	}
	return t
}

// renderBuffers reports stream-buffer occupancy and chunk traffic for
// diskos instances that saw any.
func (r *Report) renderBuffers(sb *strings.Builder) {
	t := &stats.Table{
		Title: "stream buffers",
		Cols:  []string{"instance", "mean use MB", "peak use MB", "capacity MB", "chunks"},
	}
	for i := 0; i < r.s.Instances(); i++ {
		comp, name := r.s.Instance(i)
		if comp != "diskos" {
			continue
		}
		_, samples, sum := r.s.Cell(i, KindBufUse)
		_, _, chunks := r.s.Cell(i, KindChunk)
		if samples == 0 && chunks == 0 {
			continue
		}
		mean := int64(0)
		if samples > 0 {
			mean = sum / samples
		}
		t.AddRow(name, mb(mean), mb(r.s.SampleMax(i, KindBufUse)), mb(r.s.Capacity(i)),
			fmt.Sprintf("%d", chunks))
	}
	if len(t.Rows) == 0 {
		return
	}
	sb.WriteString(t.String())
	sb.WriteString("\n")
}

// renderQueues prints a log2 depth histogram per instance that sampled
// queue depths.
func (r *Report) renderQueues(sb *strings.Builder) {
	var lines []string
	for i := 0; i < r.s.Instances(); i++ {
		h := r.s.Histogram(i, KindQueue)
		if h == nil {
			continue
		}
		comp, name := r.s.Instance(i)
		var parts []string
		for b, c := range h {
			if c == 0 {
				continue
			}
			lo := int64(0)
			if b > 0 {
				lo = int64(1) << (b - 1)
			}
			parts = append(parts, fmt.Sprintf("%d:%d", lo, c))
		}
		lines = append(lines, fmt.Sprintf("  %s %s  %s", comp, name, strings.Join(parts, " ")))
	}
	if len(lines) == 0 {
		return
	}
	fmt.Fprintf(sb, "queue depth histograms (depth:count, log2 buckets):\n%s\n\n",
		strings.Join(lines, "\n"))
}

// renderSched prints the execution-mode-dependent scheduler counters.
func (r *Report) renderSched(sb *strings.Builder) {
	for i := 0; i < r.s.Instances(); i++ {
		comp, name := r.s.Instance(i)
		if comp != SchedComponent {
			continue
		}
		_, _, events := r.s.Cell(i, KindEvents)
		_, _, parks := r.s.Cell(i, KindParks)
		_, _, wakes := r.s.Cell(i, KindWakes)
		_, _, handoffs := r.s.Cell(i, KindHandoffs)
		_, _, deadlocked := r.s.Cell(i, KindDeadlock)
		fmt.Fprintf(sb, "scheduler %s: %d events, %d parks, %d wakes, %d handoffs, %d deadlocked\n",
			name, events, parks, wakes, handoffs, deadlocked)
	}
}

func secs(t Time) string { return fmt.Sprintf("%.6fs", Seconds(t)) }

func pct(part, whole Time) string {
	if whole <= 0 {
		return "0.0%"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(part)/float64(whole))
}

func mb(b int64) string { return fmt.Sprintf("%.2f", float64(b)/(1<<20)) }
