package probe

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// WriteTrace renders the sink's span ring as Chrome trace_event JSON
// (the array format), loadable in chrome://tracing and Perfetto. Each
// instance becomes a named thread; each span a complete ("X") event
// with microsecond timestamps derived from virtual time.
//
// The output is bit-deterministic: spans are sorted by value before
// emission, so two runs that recorded the same set of spans — the
// guarantee the simulator makes across seeds-equal runs and across
// `-procmode event|parallel` when the ring has not overflowed —
// serialize to identical bytes. Scheduler diagnostics (component
// "sched") are excluded, since their counters describe how the host
// executed the run (one kernel or sharded), not the modeled system.
func (s *Sink) WriteTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)

	spans := make([]Span, 0, s.n)
	s.EachSpan(func(sp Span) {
		if s.comps[sp.Inst] != SchedComponent {
			spans = append(spans, sp)
		}
	})
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Inst != b.Inst {
			return a.Inst < b.Inst
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.End != b.End {
			return a.End < b.End
		}
		return a.Arg < b.Arg
	})

	bw.WriteString("[\n")
	first := true
	emit := func(format string, args ...any) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(bw, format, args...)
	}

	emit(`{"ph":"M","pid":0,"tid":0,"name":"process_name","args":{"name":"howsim"}}`)
	for i := range s.comps {
		if s.comps[i] == SchedComponent {
			continue
		}
		emit(`{"ph":"M","pid":0,"tid":%d,"name":"thread_name","args":{"name":"%s %s"}}`,
			i+1, jsonEscape(s.comps[i]), jsonEscape(s.names[i]))
	}
	if s.dropped > 0 {
		emit(`{"ph":"M","pid":0,"tid":0,"name":"probe_dropped_spans","args":{"count":%d}}`, s.dropped)
	}
	for _, sp := range spans {
		emit(`{"ph":"X","pid":0,"tid":%d,"ts":%s,"dur":%s,"cat":"%s","name":"%s","args":{"arg":%d}}`,
			sp.Inst+1, usec(sp.Start), usec(sp.End-sp.Start),
			jsonEscape(s.comps[sp.Inst]), jsonEscape(s.kinds[sp.Kind]), sp.Arg)
	}
	bw.WriteString("\n]\n")
	return bw.Flush()
}

// WriteTraceFile writes the trace to path.
func (s *Sink) WriteTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// usec formats virtual nanoseconds as the microsecond decimal Chrome
// expects, with fixed millinanosecond precision so formatting is exact.
func usec(t Time) string {
	neg := ""
	if t < 0 {
		neg, t = "-", -t
	}
	return fmt.Sprintf("%s%d.%03d", neg, t/1000, t%1000)
}

// jsonEscape escapes the characters component/instance/kind names could
// plausibly contain. Names are simulator-chosen identifiers; this keeps
// the hand-rendered JSON valid even if one ever includes a quote.
func jsonEscape(s string) string {
	if !strings.ContainsAny(s, `"\`) {
		return s
	}
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, `"`, `\"`)
}
