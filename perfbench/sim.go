package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"howsim/internal/probe"
	"howsim/internal/runconfig"
	"howsim/internal/service"
	"howsim/internal/tasks"
	"howsim/internal/workload"
)

// opDeadline bounds one simulation op's wall time. The slowest op of any
// workload takes well under a second on a 2-core host; the deadline only
// has to catch a hang.
const opDeadline = 20 * time.Second

var errOverrun = fmt.Errorf("simulation overran its %v deadline", opDeadline)

// shardRingSpans is the span ring each kernel of a probed sharded run
// gets. The default ring (8 MB) per leaf would take 1 GB at 128 disks;
// the per-layer counts come from the sink's aggregates, which never
// overflow.
const shardRingSpans = 1 << 14

// run is one simulation op's outcome.
type run struct {
	sp     *runconfig.Spec
	res    *tasks.Result
	sink   *probe.Sink   // enabled sink of a probed run, else nil
	report string        // rendered breakdown report of a probed run
	wall   time.Duration // host time of RunCtx alone
}

// simulate makes one op's calls into the program: Normalize, RunCtx
// under the hang guard and, for a probed run, the probe's breakdown
// report and trace export. A probed run, like any breakdown request,
// records into an enabled sink of its own. Each call is a span of op id
// under parent.
func (b *bench) simulate(id, parent int, req runconfig.Request, probed bool) (run, error) {
	var r run
	s := b.tr.begin(id, parent, "normalize", "")
	sp, err := req.Normalize()
	b.tr.end(s)
	if err != nil {
		return r, fmt.Errorf("normalize: %w", err)
	}
	r.sp = sp
	if probed || sp.Req.Breakdown {
		spans := sp.Req.RingSpans * probe.DefaultRingSpans
		if probed && sp.Req.ProcMode == "parallel" {
			spans = shardRingSpans
		}
		r.sink = probe.NewSinkCap(spans)
	}
	name := "runctx." + sp.Req.Arch
	if r.sink != nil {
		name = "runctx_probed." + sp.Req.Arch
	}
	s = b.tr.begin(id, parent, name, sp.Canonical())
	t0 := time.Now()
	r.res, err = runGuarded(sp, r.sink)
	r.wall = time.Since(t0)
	b.tr.end(s)
	if err != nil || r.sink == nil {
		return r, err
	}
	s = b.tr.begin(id, parent, "report", "")
	r.report = r.sink.BuildReport(sp.Req.Task, sp.Config.Name(), probe.Time(r.res.Elapsed)).Render()
	b.tr.end(s)
	s = b.tr.begin(id, parent, "export", "")
	err = r.sink.WriteTrace(io.Discard)
	b.tr.end(s)
	if err != nil {
		return r, fmt.Errorf("trace export: %w", err)
	}
	return r, nil
}

// runGuarded is the hang guard around tasks.RunCtx. Single-kernel runs
// stop at the context's deadline, but a sharded run checks its context
// only on entry, and a sharded run that deadlocks would end the process
// with Go's "all goroutines are asleep" fatal error. So the run executes
// on a goroutine of its own while this one waits on the deadline: the
// armed deadline timer keeps the runtime from declaring a deadlock, and
// an overrun is reported as an error while the stuck goroutine is left
// behind. A panic in the run is reported the same way.
func runGuarded(sp *runconfig.Spec, sink *probe.Sink) (*tasks.Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	type outcome struct {
		res *tasks.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- outcome{err: fmt.Errorf("simulation panicked: %v", p)}
			}
		}()
		res, err := tasks.RunCtx(ctx, sp.Config, sp.TaskID, sp.Dataset, sp.Plan, sink, sp.Mode)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		return o.res, o.err
	case <-ctx.Done():
		return nil, errOverrun
	}
}

// render is the text a config's golden digest covers: the simulated
// elapsed time, every detail metric and every breakdown bucket in sorted
// order, and the fault report of a faulted run.
func render(res *tasks.Result) []byte {
	var sb strings.Builder
	fmt.Fprintf(&sb, "elapsed %d\n", int64(res.Elapsed))
	keys := make([]string, 0, len(res.Details))
	for k := range res.Details {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, "detail %s %s\n", k, strconv.FormatFloat(res.Details[k], 'g', -1, 64))
	}
	names := res.Breakdown.Names()
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&sb, "breakdown %s %d\n", n, int64(res.Breakdown.Get(n)))
	}
	if res.Fault != nil {
		sb.WriteString(res.Fault.Render())
	}
	return []byte(sb.String())
}

func digest(rendered []byte) string {
	sum := sha256.Sum256(rendered)
	return hex.EncodeToString(sum[:])
}

// goldenKey is the canonical form of a request's event-mode twin: the
// run whose digest every execution mode of the config must reproduce.
func goldenKey(req runconfig.Request) (string, error) {
	req.ProcMode = "event"
	sp, err := req.Normalize()
	if err != nil {
		return "", err
	}
	return sp.Canonical(), nil
}

func loadGolden(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	golden := map[string]string{}
	for n, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sum, key, ok := strings.Cut(line, " ")
		if !ok || len(sum) != sha256.Size*2 {
			return nil, fmt.Errorf("%s:%d: want \"<sha256> <config>\"", path, n+1)
		}
		golden[key] = sum
	}
	return golden, nil
}

// checkGolden compares a run's digest with its config's golden digest.
func checkGolden(golden map[string]string, key string, res *tasks.Result) error {
	want, ok := golden[key]
	if !ok {
		return fmt.Errorf("no golden digest for %s (regenerate with --update-golden)", key)
	}
	if got := digest(render(res)); got != want {
		return fmt.Errorf("digest %.12s differs from golden %.12s", got, want)
	}
	return nil
}

const goldenHeader = `# perfbench golden digests: the SHA-256 of each config's rendered elapsed
# time, details and breakdown, run in event mode. A run of the config in
# any execution mode must reproduce it. Regenerate from the repository
# root with: bash perfbench/run.sh --update-golden
`

// writeGolden runs every grid_event and shard_scan config in event mode
// and writes the digests, sorted by config.
func writeGolden(path string) error {
	reqs := map[string]runconfig.Request{}
	for _, req := range append(gridConfigs(), shardConfigs()...) {
		key, err := goldenKey(req)
		if err != nil {
			return err
		}
		req.ProcMode = "event"
		reqs[key] = req
	}
	keys := make([]string, 0, len(reqs))
	for k := range reqs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString(goldenHeader)
	for _, k := range keys {
		sp, err := reqs[k].Normalize()
		if err != nil {
			return err
		}
		res, err := runGuarded(sp, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", k, err)
		}
		fmt.Fprintf(&sb, "%s %s\n", digest(render(res)), k)
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}

// renderBody renders a direct run the way howsimd renders a simulate
// response; the body howsimd served for the same spec must equal it.
func renderBody(r run) ([]byte, error) {
	sp, res := r.sp, r.res
	resp := service.SimResponse{
		Key:            sp.Key(),
		Config:         sp.Canonical(),
		Machine:        sp.Config.Name(),
		Task:           sp.Req.Task,
		Arch:           sp.Req.Arch,
		Disks:          sp.Req.Disks,
		DatasetMB:      sp.Dataset.TotalBytes >> 20,
		ElapsedSeconds: res.Elapsed.Seconds(),
		Details:        res.Details,
	}
	if res.Fault != nil {
		resp.FaultReport = res.Fault.Render()
	}
	if sp.Req.Breakdown {
		resp.Breakdown = r.report
	}
	b, err := json.Marshal(resp)
	return append(b, '\n'), err
}

// sameBody checks a response body against its key's reference body.
func sameBody(got, want []byte) error {
	if string(got) == string(want) {
		return nil
	}
	return fmt.Errorf("body differs from its key's reference (%d vs %d bytes)", len(got), len(want))
}

// gridConfigs is the Figure 1 grid: every task on every architecture at
// 16 and 64 disks, scale 0.05, event mode.
func gridConfigs() []runconfig.Request {
	var out []runconfig.Request
	for _, t := range workload.AllTasks() {
		for _, a := range runconfig.ArchNames() {
			for _, d := range []int{16, 64} {
				out = append(out, runconfig.Request{Task: t.String(), Arch: a, Disks: d, Scale: 0.05, ProcMode: "event"})
			}
		}
	}
	return out
}

// shardTasks are the tasks shard_scan runs sharded. Sort and join shard
// too, but hang on 2 cores; WORKLOADS.md has the repro.
var shardTasks = []string{"select", "aggregate", "groupby", "dcube"}

func shardConfigs() []runconfig.Request {
	var out []runconfig.Request
	for _, t := range shardTasks {
		for _, d := range []int{64, 128} {
			for _, s := range []float64{0.25, 1.0} {
				out = append(out, runconfig.Request{Task: t, Arch: "active", Disks: d, Scale: s, ProcMode: "parallel"})
			}
		}
	}
	return out
}

// shardComparisons are the grid configs of shard_scan's tasks on the
// cluster and SMP at 64 disks. shard_scan's traced run times them so
// that tasks.run_ms has a figure for every architecture.
func shardComparisons() []runconfig.Request {
	var out []runconfig.Request
	for _, t := range shardTasks {
		for _, a := range []string{"cluster", "smp"} {
			out = append(out, runconfig.Request{Task: t, Arch: a, Disks: 64, Scale: 0.05, ProcMode: "event"})
		}
	}
	return out
}

// closedOp is a prepared config of a closed-loop workload.
type closedOp struct {
	req  runconfig.Request
	name string // canonical form
	gkey string // canonical form of its event-mode twin
}

func prepare(reqs []runconfig.Request) ([]closedOp, error) {
	ops := make([]closedOp, len(reqs))
	for i, req := range reqs {
		sp, err := req.Normalize()
		if err != nil {
			return nil, fmt.Errorf("config %+v: %w", req, err)
		}
		gkey, err := goldenKey(req)
		if err != nil {
			return nil, err
		}
		ops[i] = closedOp{req: req, name: sp.Canonical(), gkey: gkey}
	}
	return ops, nil
}

// op runs one closed-loop op — Normalize, RunCtx, digest — and checks
// the digest against the golden record.
func (b *bench) op(o closedOp, golden map[string]string, probed bool) (run, bool) {
	id := b.tr.newOp()
	root := b.tr.begin(id, -1, "op", o.name)
	defer b.tr.end(root)
	r, err := b.simulate(id, root, o.req, probed)
	if err == nil {
		s := b.tr.begin(id, root, "digest", "")
		err = checkGolden(golden, o.gkey, r.res)
		b.tr.end(s)
	}
	return r, b.check(o.name, err)
}

// runClosed drives a closed-loop workload: one client runs the configs
// back to back. Set-up loads the golden digests and runs every config
// once, checked like any op. The measured window is a fixed number of
// passes, each over every config in a fresh seeded order, so every run
// has the same mix and the same amount of work: passSeconds is a pass's
// wall time on a 2-core host, and the window holds as many passes as
// fit the requested seconds. The work is fixed rather than the time
// because the program's memory grows with every cluster run (see
// WORKLOADS.md), so the memory a run leaves live depends on how many ops
// it holds.
func (b *bench) runClosed(reqs, comparisons []runconfig.Request, passSeconds float64) error {
	ops, err := prepare(reqs)
	if err != nil {
		return err
	}
	for _, o := range ops {
		b.addScale(o.req.Scale)
	}
	reps := setupReps
	if b.traced {
		reps = 1
	}
	var setups []float64
	var golden map[string]string
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		if golden, err = loadGolden(goldenPath); err != nil {
			return err
		}
		for _, o := range ops {
			b.op(o, golden, false)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if b.traced {
		return b.traceClosed(ops, golden, comparisons)
	}

	order := newRNG(b.seed, streamOrder)
	passes := make([][]float64, max(1, int(math.Round(float64(b.seconds)/passSeconds))))
	rates := make([]float64, len(passes))
	ok := 0
	runtime.GC()
	alloc0 := totalAlloc()
	for p := range passes {
		start, passOK := time.Now(), 0
		for _, i := range order.perm(len(ops)) {
			t0 := time.Now()
			_, good := b.op(ops[i], golden, false)
			passes[p] = append(passes[p], ms(time.Since(t0)))
			if good {
				passOK++
			}
		}
		rates[p] = float64(passOK) / time.Since(start).Seconds()
		ok += passOK
	}
	alloc := totalAlloc() - alloc0
	// Every closed-loop op is a cold simulation, so its miss latency is
	// its latency, and it meets its SLO when it completes correctly
	// within its deadline.
	b.endToEnd(setups, passes, rates, passPercentile(passes, 50), ratio(float64(ok), float64(len(passes)*len(ops))),
		alloc, liveHeapMB())
	return nil
}

// traceClosed is a closed-loop workload's traced run, under one CPU
// profile. Each config of one seeded pass runs with the probe off, then
// (for a sharded config) as its event-mode twin, then with the probe
// on, back to back so that the ratios between them compare like with
// like. Then come the comparison configs and a howsimd probe on the
// pass's cheapest config.
func (b *bench) traceClosed(ops []closedOp, golden map[string]string, comparisons []runconfig.Request) error {
	prof, err := startProfile()
	if err != nil {
		return err
	}
	l := newLayers()
	order := newRNG(b.seed, streamOrder).perm(len(ops))
	cheapest := order[0]
	var cheapestWall time.Duration
	prev := time.Now()
	for _, i := range order {
		// In a closed loop an op is due when the previous one completes.
		l.late = append(l.late, ms(time.Since(prev)))
		cpu0, _ := rusage()
		t0 := time.Now()
		r, good := b.op(ops[i], golden, false)
		cpu1, _ := rusage()
		l.cpu += cpu1 - cpu0
		l.wall += time.Since(t0)
		if good {
			if cheapestWall == 0 || r.wall < cheapestWall {
				cheapest, cheapestWall = i, r.wall
			}
			eventWall := r.wall
			if ops[i].req.ProcMode != "event" {
				twin := ops[i]
				twin.req.ProcMode, twin.name = "event", twin.gkey
				e, good := b.op(twin, golden, false)
				eventWall = e.wall
				if !good {
					eventWall = 0
				}
			}
			if p, good := b.op(ops[i], golden, true); good && eventWall > 0 {
				l.untraced += r.wall
				l.eventWall += eventWall
				l.addProbed(p)
			}
		}
		prev = time.Now()
	}
	cmp, err := prepare(comparisons)
	if err != nil {
		return err
	}
	for _, o := range cmp {
		b.op(o, golden, false)
	}
	d, err := startHowsimd()
	if err != nil {
		return err
	}
	b.serviceProbe(d, ops[cheapest].req, l)
	l.countService(d.srv.Metrics())
	d.close()
	return b.finishTrace(prof, l)
}

// layers accumulates a traced run's per-layer counts and timings.
type layers struct {
	ops                     int           // probed ops
	untraced, probed        time.Duration // Σ RunCtx wall of the same ops, probe off and on
	eventWall               time.Duration // Σ RunCtx wall of the untraced ops' event-mode twins
	cpu, wall               time.Duration // process CPU and wall time over the untraced ops
	gc0, cpuTotal0          float64       // runtime CPU estimates when tracing began
	events, parks, handoffs int64
	diskReqs, diskBytes     int64
	cacheBytes              int64
	diskBusy, diskSeek      probe.Time
	linkXfers               int64
	linkStall               probe.Time
	chunks, spans, dropped  int64
	late                    []float64 // generator lateness, ms
	handlerUS, loopbackUS   float64   // howsimd warm-hit medians
	requests, hits, dedups  int64     // howsimd counters
	rejected                int64
}

func newLayers() *layers {
	l := &layers{}
	l.gc0, l.cpuTotal0 = gcCPU()
	return l
}

// addProbed folds one probed run's sink into the counts.
func (l *layers) addProbed(r run) {
	l.ops++
	l.probed += r.wall
	s := r.sink
	l.spans += int64(s.SpansRecorded()) + s.Dropped()
	l.dropped += s.Dropped()
	for i := 0; i < s.Instances(); i++ {
		comp, _ := s.Instance(i)
		switch comp {
		case probe.SchedComponent:
			_, _, events := s.Cell(i, probe.KindEvents)
			_, _, parks := s.Cell(i, probe.KindParks)
			_, _, handoffs := s.Cell(i, probe.KindHandoffs)
			l.events += events
			l.parks += parks
			l.handoffs += handoffs
		case "disk":
			busy, reqs, bytes := s.Cell(i, probe.KindService)
			seek, _, _ := s.Cell(i, probe.KindSeek)
			_, _, hit := s.Cell(i, probe.KindCacheHit)
			l.diskBusy += busy
			l.diskReqs += reqs
			l.diskBytes += bytes
			l.diskSeek += seek
			l.cacheBytes += hit
		case "link":
			_, xfers, _ := s.Cell(i, probe.KindXfer)
			stall, _, _ := s.Cell(i, probe.KindStall)
			l.linkXfers += xfers
			l.linkStall += stall
		case "diskos":
			_, _, chunks := s.Cell(i, probe.KindChunk)
			l.chunks += chunks
		}
	}
}

// countService records howsimd's request counters.
func (l *layers) countService(m *service.Metrics) {
	l.requests = m.SimRequests.Load()
	l.hits = m.CacheHits.Load()
	l.dedups = m.DedupJoins.Load()
	l.rejected = m.Rejected.Load()
}

// selfPackages are the packages whose share of the CPU profile's self
// time the traced run reports, by metric prefix.
var selfPackages = []string{"sim", "disk", "bus", "netsim", "mpi", "diskos", "cpu", "cluster", "smp", "tasks", "probe", "service"}

// finishTrace stops the profile, turns the traced run's counts, spans
// and profile into the per-layer metrics, and writes the span file.
func (b *bench) finishTrace(prof *cpuProfile, l *layers) error {
	shares, samples, err := prof.stop()
	if err != nil {
		return err
	}
	gc, cpuTotal := gcCPU()
	self := b.tr.selfByName()
	med := func(name string, unit time.Duration) float64 {
		var xs []float64
		for _, d := range self[name] {
			xs = append(xs, float64(d)/float64(unit))
		}
		return median(xs)
	}
	ops := float64(l.ops)
	perOp := func(n int64) float64 { return ratio(float64(n), ops) }

	b.set("trace.ops", ops, "count")
	b.set("sim.events_per_op", perOp(l.events), "count")
	b.set("sim.host_ns_per_event", ratio(float64(l.untraced), float64(l.events)), "ns")
	b.set("sim.parks_per_op", perOp(l.parks), "count")
	b.set("sim.handoffs_per_op", perOp(l.handoffs), "count")
	b.set("shard.speedup", ratio(float64(l.eventWall), float64(l.untraced)), "x")
	b.set("shard.cpu_per_wall", ratio(float64(l.cpu), float64(l.wall)), "x")
	b.set("disk.requests_per_op", perOp(l.diskReqs), "count")
	b.set("disk.seek_frac", ratio(float64(l.diskSeek), float64(l.diskBusy)), "frac")
	b.set("disk.cache_hit_frac", ratio(float64(l.cacheBytes), float64(l.diskBytes)), "frac")
	b.set("link.transfers_per_op", perOp(l.linkXfers), "count")
	b.set("link.stall_s", ratio(probe.Seconds(l.linkStall), ops), "sim_s")
	b.set("diskos.chunks_per_op", perOp(l.chunks), "count")
	for _, a := range runconfig.ArchNames() {
		b.set("tasks.run_ms."+a, med("runctx."+a, time.Millisecond), "ms")
	}
	b.set("probe.overhead_frac", ratio(float64(l.probed), float64(l.untraced))-1, "frac")
	b.set("probe.report_ms", med("report", time.Millisecond), "ms")
	b.set("probe.trace_export_ms", med("export", time.Millisecond), "ms")
	b.set("probe.spans_per_op", perOp(l.spans), "count")
	b.set("probe.dropped_per_op", perOp(l.dropped), "count")
	b.set("runconfig.normalize_us", med("normalize", time.Microsecond), "us")
	b.set("service.requests", float64(l.requests), "count")
	b.set("service.handler_hit_us", l.handlerUS, "us")
	b.set("service.http_overhead_us", l.loopbackUS-l.handlerUS, "us")
	b.set("service.hit_frac", ratio(float64(l.hits), float64(l.requests)), "frac")
	b.set("service.dedup_frac", ratio(float64(l.dedups), float64(l.requests)), "frac")
	b.set("service.rejected", float64(l.rejected), "count")
	b.set("runtime.gc_frac", ratio(gc-l.gc0, cpuTotal-l.cpuTotal0), "frac")
	b.set("runtime.self_frac", shares["runtime"], "frac")
	for _, p := range selfPackages {
		b.set(p+".self_frac", shares["howsim/internal/"+p], "frac")
	}
	b.set("profile.samples", float64(samples), "count")
	b.set("loadgen.late_p99_ms", percentile(l.late, 99), "ms")

	path := filepath.Join(traceDir, fmt.Sprintf("trace-%s-seed%d.json", b.workload, b.seed))
	if err := b.tr.write(path, map[string]any{"workload": b.workload, "seed": b.seed, "metrics": b.res.Metrics}); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	return nil
}
