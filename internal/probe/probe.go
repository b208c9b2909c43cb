// Package probe is the simulator's deterministic observability layer: a
// structured event sink every model component emits into — virtual-time
// spans (disk seek/rotate/transfer, processor execution, link
// occupancy), counters (bytes moved, cache hits, dropped frames) and
// depth samples (disk queues, stream buffers) — keyed by (component,
// instance, kind).
//
// Design rules:
//
//   - Zero cost when disabled. A component holds a Ref obtained at
//     construction; every emission is a two-comparison branch when no
//     sink is attached or the sink is off. The kernel microbenchmarks
//     gate this: 0 allocs/op with a sink attached-but-disabled.
//   - Allocation-free when enabled, in steady state. Spans are stored by
//     value in a fixed-capacity ring (overflow drops the oldest span and
//     counts the drop — never a silent truncation, never a growth);
//     aggregates live in dense per-instance tables.
//   - Bit-deterministic. All times are virtual (recorded from kernel
//     context), instance registration order follows component
//     construction order, and exporters sort spans by value — so two
//     runs of the same simulation produce byte-identical output in
//     `-procmode event` and `-procmode parallel`, as long as the ring
//     did not overflow.
//     Scheduler-level counters (event dispatches, parks, wakes) are the
//     one exception: they describe the execution mode itself and are
//     excluded from the deterministic exports by default.
package probe

// Time is virtual nanoseconds. It mirrors sim.Time without importing it,
// so internal/sim can emit into a Sink without an import cycle.
type Time = int64

// Seconds converts a virtual duration to seconds.
func Seconds(t Time) float64 { return float64(t) / 1e9 }

// Kind identifies what a span, counter or sample measures. The builtin
// kinds cover the model layers; KindNamed mints additional kinds at
// runtime (task phase names).
type Kind int32

// Builtin kinds.
const (
	// KindService spans one whole disk request, queue-exit to completion.
	KindService Kind = iota
	// KindSeek spans the arm repositioning portion of a request.
	KindSeek
	// KindRotate spans the rotational-latency portion of a request.
	KindRotate
	// KindTransfer spans the media transfer portion of a request.
	KindTransfer
	// KindCacheHit counts bytes served from the segmented drive cache.
	KindCacheHit
	// KindRetry counts media retries performed by a drive.
	KindRetry
	// KindQueue samples queue depth observed at arrival.
	KindQueue
	// KindXfer spans the channel-holding time of one pipe transfer.
	KindXfer
	// KindBytes counts payload bytes moved.
	KindBytes
	// KindStall spans time lost to an injected outage window.
	KindStall
	// KindDrop counts frames discarded at a closed queue.
	KindDrop
	// KindCompute spans processor execution.
	KindCompute
	// KindBufUse samples buffer-pool bytes held after an acquisition.
	KindBufUse
	// KindChunk counts stream chunks delivered.
	KindChunk
	// KindEvents counts kernel events dispatched (scheduler diagnostic).
	KindEvents
	// KindParks counts blocking parks (scheduler diagnostic).
	KindParks
	// KindWakes counts waiter wakes (scheduler diagnostic).
	KindWakes
	// KindHandoffs counts inline caller handoffs (scheduler diagnostic).
	KindHandoffs
	// KindDeadlock counts tasks still parked when a deadlock report was
	// taken (scheduler diagnostic).
	KindDeadlock

	kindBuiltin
)

var builtinKindNames = [kindBuiltin]string{
	"service", "seek", "rotate", "transfer", "cache_hit", "retry",
	"queue", "xfer", "bytes", "stall", "drop", "compute", "buf_use",
	"chunk", "events", "parks", "wakes", "handoffs", "deadlock",
}

// SchedComponent is the component name the kernel registers under; its
// counters depend on the execution mode and are excluded from the
// deterministic exports.
const SchedComponent = "sched"

// Span is one recorded virtual-time interval.
type Span struct {
	Start, End Time
	Inst       int32
	Kind       Kind
	Arg        int64
}

// histBuckets is the number of log2 buckets a sample histogram keeps:
// bucket i counts values in [2^(i-1), 2^i) with bucket 0 counting zero.
const histBuckets = 16

// cell aggregates one (instance, kind): total span duration, an event
// count, a value sum for counters/samples, the maximum sampled value and
// a lazily allocated log2 histogram.
type cell struct {
	Dur   Time
	Count int64
	Sum   int64
	Max   int64
	Hist  *[histBuckets]int64
}

// DefaultRingSpans is the ring capacity NewSink allocates: large enough
// that reduced-scale figure runs never overflow, small enough (8 MB of
// spans) to attach casually.
const DefaultRingSpans = 1 << 18

type instKey struct{ comp, name string }

// Sink collects everything one simulation emits. A Sink belongs to one
// kernel (attach with Kernel.SetProbe before building model components)
// and, like the kernel, must not be shared across OS threads.
type Sink struct {
	on      bool
	ringCap int
	ring    []Span
	head    int // index of the oldest span
	n       int // spans currently held
	dropped int64

	comps   []string // component of instance i
	names   []string // name of instance i
	caps    []int64  // declared capacity of instance i (0 = none)
	instIdx map[instKey]int32

	kinds   []string
	kindIdx map[string]Kind

	agg [][]cell // [instance][kind]
}

// NewSink returns an enabled sink with the default ring capacity.
func NewSink() *Sink { return NewSinkCap(DefaultRingSpans) }

// NewSinkCap returns an enabled sink whose ring holds at most spans
// spans; older spans are dropped (and counted) beyond that. Aggregates
// are not subject to the cap.
func NewSinkCap(spans int) *Sink {
	if spans < 1 {
		spans = 1
	}
	s := &Sink{
		on:      true,
		ringCap: spans,
		instIdx: make(map[instKey]int32),
		kindIdx: make(map[string]Kind),
		kinds:   make([]string, 0, kindBuiltin+8),
	}
	for i := Kind(0); i < kindBuiltin; i++ {
		s.kinds = append(s.kinds, builtinKindNames[i])
		s.kindIdx[builtinKindNames[i]] = i
	}
	return s
}

// SetEnabled turns recording on or off. Registration still works while
// disabled, so a sink can be attached (components bind their Refs) and
// enabled later — or attached purely to prove the disabled path is free.
func (s *Sink) SetEnabled(on bool) { s.on = on }

// Enabled reports whether the sink is recording.
func (s *Sink) Enabled() bool { return s != nil && s.on }

// Register binds an emission handle for one component instance. Calling
// it on a nil sink returns a disabled Ref, so components register
// unconditionally: `ref := k.Probe().Register("disk", name)`.
// Registering the same (component, name) twice returns the same
// instance.
func (s *Sink) Register(comp, name string) Ref {
	if s == nil {
		return Ref{}
	}
	key := instKey{comp, name}
	if id, ok := s.instIdx[key]; ok {
		return Ref{s: s, id: id}
	}
	id := int32(len(s.comps))
	s.comps = append(s.comps, comp)
	s.names = append(s.names, name)
	s.caps = append(s.caps, 0)
	s.agg = append(s.agg, make([]cell, len(s.kinds)))
	s.instIdx[key] = id
	return Ref{s: s, id: id}
}

// KindNamed returns the kind with the given name, minting it on first
// use. Lookups of existing names are allocation-free.
func (s *Sink) KindNamed(name string) Kind {
	if k, ok := s.kindIdx[name]; ok {
		return k
	}
	k := Kind(len(s.kinds))
	s.kinds = append(s.kinds, name)
	s.kindIdx[name] = k
	return k
}

// KindName returns a kind's name.
func (s *Sink) KindName(k Kind) string { return s.kinds[k] }

// Kinds returns the number of kinds known to the sink.
func (s *Sink) Kinds() int { return len(s.kinds) }

// Instances returns the number of registered instances.
func (s *Sink) Instances() int { return len(s.comps) }

// Instance returns the component and name of instance i.
func (s *Sink) Instance(i int) (comp, name string) { return s.comps[i], s.names[i] }

// Capacity returns the declared capacity of instance i (0 if none was
// declared).
func (s *Sink) Capacity(i int) int64 { return s.caps[i] }

// Cell returns the aggregate for (instance, kind): total span duration,
// event count and value sum. Zeroes for never-emitted pairs.
func (s *Sink) Cell(inst int, k Kind) (dur Time, count, sum int64) {
	row := s.agg[inst]
	if int(k) >= len(row) {
		return 0, 0, 0
	}
	c := &row[k]
	return c.Dur, c.Count, c.Sum
}

// SampleMax returns the maximum value sampled for (instance, kind).
func (s *Sink) SampleMax(inst int, k Kind) int64 {
	row := s.agg[inst]
	if int(k) >= len(row) {
		return 0
	}
	return row[k].Max
}

// Histogram copies the log2 histogram for (instance, kind) into a fresh
// slice; bucket 0 counts zero values, bucket i counts [2^(i-1), 2^i).
// It returns nil when nothing was sampled.
func (s *Sink) Histogram(inst int, k Kind) []int64 {
	row := s.agg[inst]
	if int(k) >= len(row) || row[k].Hist == nil {
		return nil
	}
	out := make([]int64, histBuckets)
	copy(out, row[k].Hist[:])
	return out
}

// SpansRecorded returns how many spans the ring currently holds.
func (s *Sink) SpansRecorded() int { return s.n }

// Dropped returns how many spans overflow pushed out of the ring.
func (s *Sink) Dropped() int64 { return s.dropped }

// EachSpan calls fn for every ring span, oldest first.
func (s *Sink) EachSpan(fn func(Span)) {
	for i := 0; i < s.n; i++ {
		fn(s.ring[(s.head+i)%len(s.ring)])
	}
}

// push appends a span to the ring, evicting the oldest on overflow. The
// ring storage is allocated on the first span, so a sink that never
// records costs only its registration tables.
func (s *Sink) push(sp Span) {
	if s.ring == nil {
		s.ring = make([]Span, s.ringCap)
	}
	if s.n < len(s.ring) {
		s.ring[(s.head+s.n)%len(s.ring)] = sp
		s.n++
		return
	}
	s.ring[s.head] = sp
	s.head = (s.head + 1) % len(s.ring)
	s.dropped++
}

// bump returns the aggregate cell for (inst, kind), growing the row if
// the kind was minted after the instance registered.
func (s *Sink) bump(inst int32, k Kind) *cell {
	row := s.agg[inst]
	if int(k) >= len(row) {
		grown := make([]cell, len(s.kinds))
		copy(grown, row)
		s.agg[inst] = grown
		row = grown
	}
	return &row[k]
}

// Ref is a component instance's emission handle. The zero Ref is valid
// and permanently disabled; a Ref bound to a disabled sink is a cheap
// branch. Refs are plain values — copy them freely.
type Ref struct {
	s  *Sink
	id int32
}

// On reports whether emissions through this ref are being recorded.
// Use it to skip emission-only work (snapshotting stats deltas).
func (r Ref) On() bool { return r.s != nil && r.s.on }

// KindNamed mints or looks up a named kind via the ref's sink. On a
// disabled (nil-sink) ref it returns kind 0; callers always pair it
// with an emission that is itself a no-op on such refs.
func (r Ref) KindNamed(name string) Kind {
	if r.s == nil {
		return 0
	}
	return r.s.KindNamed(name)
}

// SetCapacity declares the instance's capacity (channels of a pipe,
// bytes of a buffer pool) so reports can normalize occupancy.
func (r Ref) SetCapacity(n int64) {
	if r.s == nil {
		return
	}
	r.s.caps[r.id] = n
}

// Span records a virtual-time interval.
func (r Ref) Span(k Kind, start, end Time) { r.SpanArg(k, start, end, 0) }

// Begin opens a paired span: it marks now as the span's opening edge
// and returns it for the matching End. Begin records nothing and costs
// nothing — it exists so the opening edge is named at the point where
// the measured work starts, and so howsimvet's proberef analyzer can
// check that every Begin has its End within the function:
//
//	start := r.Begin(probe.KindCompute, now)
//	… the measured work …
//	r.End(probe.KindCompute, start, t.Now())
func (r Ref) Begin(k Kind, now Time) Time { return now }

// End records the span opened by the matching Begin.
func (r Ref) End(k Kind, start, end Time) { r.SpanArg(k, start, end, 0) }

// EndArg is End with a payload argument (bytes, cycles — whatever the
// kind measures).
func (r Ref) EndArg(k Kind, start, end Time, arg int64) { r.SpanArg(k, start, end, arg) }

// SpanArg records a virtual-time interval with a payload argument
// (bytes, cycles — whatever the kind measures).
func (r Ref) SpanArg(k Kind, start, end Time, arg int64) {
	s := r.s
	if s == nil || !s.on {
		return
	}
	c := s.bump(r.id, k)
	c.Dur += end - start
	c.Count++
	c.Sum += arg
	s.push(Span{Start: start, End: end, Inst: r.id, Kind: k, Arg: arg})
}

// Count adds n to a counter. Counters are aggregate-only: they do not
// enter the span ring.
func (r Ref) Count(k Kind, n int64) {
	s := r.s
	if s == nil || !s.on {
		return
	}
	c := s.bump(r.id, k)
	c.Count++
	c.Sum += n
}

// Sample records an instantaneous value (a queue depth, a pool level)
// into the kind's count/sum/max and log2 histogram.
func (r Ref) Sample(k Kind, v int64) {
	s := r.s
	if s == nil || !s.on {
		return
	}
	c := s.bump(r.id, k)
	c.Count++
	c.Sum += v
	if v > c.Max {
		c.Max = v
	}
	if c.Hist == nil {
		c.Hist = new([histBuckets]int64)
	}
	c.Hist[histBucket(v)]++
}

// histBucket maps a sampled value to its log2 bucket.
func histBucket(v int64) int {
	if v <= 0 {
		return 0
	}
	b := 1
	for v > 1 && b < histBuckets-1 {
		v >>= 1
		b++
	}
	return b
}
