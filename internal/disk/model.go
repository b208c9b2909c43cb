package disk

import (
	"errors"
	"fmt"

	"howsim/internal/probe"
	"howsim/internal/sim"
)

// Errors a request can complete with. Completion with an error still
// fires the request's done signal: waiters always wake, then inspect
// Err().
var (
	// ErrMediaError reports a media error that persisted past the
	// drive's retry budget (an unrecoverable sector).
	ErrMediaError = errors.New("disk: unrecoverable media error")
	// ErrDiskFailed reports that the whole drive has failed; the request
	// was not (or only partially) serviced and never will be.
	ErrDiskFailed = errors.New("disk: drive failed")
)

// Request is one I/O operation against a disk. Offsets and lengths are
// in bytes and must be sector-aligned.
//
// A request is 48 bytes: an SMP striped request keeps one per chunk in
// flight. It records no instants: the drive keeps the start of the one
// request in service (the disk probe's service span runs from it to
// the completion), a caller that needs the submit instant has it at
// hand when it submits, and a waiter parked before the completion
// wakes in the completion's instant. Its completion status is a byte
// beside Write and Retries, read through Err.
type Request struct {
	Write  bool
	status status
	// Retries is how many media retries the drive performed before the
	// request completed (successfully or not).
	Retries int32
	Offset  int64
	Length  int64

	// done is held by value, so a request's completion allocates nothing.
	done sim.Signal
}

// status is a request's completion status, the error Err reports.
type status uint8

const (
	statusOK status = iota
	statusMediaError
	statusDiskFailed
)

// Err returns the request's completion status: nil on success,
// ErrMediaError or ErrDiskFailed otherwise. Valid once Done.
func (r *Request) Err() error {
	switch r.status {
	case statusMediaError:
		return ErrMediaError
	case statusDiskFailed:
		return ErrDiskFailed
	}
	return nil
}

// Wait blocks p until the request completes.
func (r *Request) Wait(p *sim.Proc) { r.done.Wait(p) }

// WaitFunc is Wait for callback tasks: it runs fn once the request has
// completed — at once if it already has, otherwise in kernel context
// when the completion wakes t.
func (r *Request) WaitFunc(t *sim.Task, fn func()) { r.done.WaitFunc(t, fn) }

// Done reports whether the request has completed.
func (r *Request) Done() bool { return r.done.Fired() }

// segment is the state of one sequential stream tracked by the on-board
// segmented cache.
type segment struct {
	valid      bool
	write      bool
	endLBA     int64 // next expected sector of the stream
	prefetched int64 // bytes buffered ahead of endLBA (reads only)
	lastUse    sim.Time
}

// Stats aggregates a disk's activity counters.
type Stats struct {
	Requests      int64
	BytesRead     int64
	BytesWritten  int64
	Seeks         int64
	SeekTime      sim.Time
	RotationTime  sim.Time
	TransferTime  sim.Time
	BusyTime      sim.Time
	CacheHitBytes int64

	// Fault counters (all zero when no injector is installed).
	Retries        int64    // media retries performed
	SlowRequests   int64    // requests hit by an injected latency spike
	CorruptReads   int64    // reads whose data failed the checksum verify
	Rereads        int64    // rereads performed to clear corrupt data
	FailedRequests int64    // requests completed with a non-nil error
	FaultDelay     sim.Time // total service time added by faults
}

// FaultInjector decides, per request, what faults a drive suffers. The
// disk consults it once per serviced request with a monotonically
// increasing sequence number, so implementations can be pure functions
// of (identity, seq) — the key to deterministic injection. A nil
// injector (the default) leaves the service path untouched.
type FaultInjector interface {
	// RequestFault returns the added latency (zero for none) and the
	// number of media retries demanded (zero for a clean request) for
	// the seq-th request serviced by this drive.
	RequestFault(seq int64) (slowBy sim.Time, mediaRetries int)
	// CorruptionFault returns the number of checksum-verify rereads the
	// seq-th request demands (zero for clean data). Consulted for reads
	// only: a corrupt sector is caught by the verify step and reread, at
	// the same per-retry cost as a media error; a count above the retry
	// budget becomes a hard error.
	CorruptionFault(seq int64) (rereads int)
	// FailureTime returns when the whole drive fails permanently, and
	// whether it fails at all. Consulted once, at installation.
	FailureTime() (sim.Time, bool)
}

// Media-error recovery mirrors common drive firmware: a transient error
// demanding more than maxRetries re-reads becomes a hard ErrMediaError,
// and each retry costs one full platter revolution (the sector must
// come around again) plus retryBackoff (controller error processing,
// head re-settle).
const (
	maxRetries   = 5
	retryBackoff = 500 * sim.Microsecond
)

// Disk is a simulated drive: a FIFO request queue served by a single
// mechanical arm, with a segmented read-ahead cache. All methods must be
// called from simulation processes of the kernel the disk was created
// on.
type Disk struct {
	name  string
	m     *Model
	k     *sim.Kernel
	queue *sim.Mailbox

	curCyl    int
	headSeg   int // index of the segment the arm is streaming; -1 if none
	segs      []segment
	idleSince sim.Time
	stats     Stats

	// pending is the scheduler's list of requests in arrival order;
	// requests are served from its head.
	pending sim.Ring[*Request]

	// Service loop state: the callback task that runs the loop, the
	// request being serviced, when its service began and how long it
	// takes, and the two step continuations (bound once at
	// construction so the loop never allocates).
	task       *sim.Task
	cur        *Request
	curStart   sim.Time
	curService sim.Time
	onArriveFn func(any, bool)
	onDoneFn   func()

	pr probe.Ref
	// statsAt snapshots, when service began, the counters emitServed
	// reports the request's deltas of.
	statsAt serviceSnap

	inj    FaultInjector
	reqSeq int64

	failed bool

	// free holds the completed requests of synchronous Read/Write calls
	// for reuse, so a steady-state I/O allocates nothing.
	free []*Request
}

// Model is what a drive's service times derive from its Spec: the
// zone geometry, both seek curves, the rotation period and the cache
// segment size. It is immutable once built, so every drive built from
// one spec can share it, across kernels and goroutines too.
type Model struct {
	spec      *Spec
	geom      geometry
	readSeek  seekCurve
	writeSeek seekCurve
	rotPeriod sim.Time
	segBytes  int64 // per-segment prefetch capacity
}

// newModel derives the service-time model of spec. The model reads
// spec whenever a drive built from it services a request, so spec
// must not change afterwards.
func newModel(spec *Spec) *Model {
	return &Model{
		spec:      spec,
		geom:      newGeometry(spec),
		readSeek:  newSeekCurve(spec.TrackToTrackRead, spec.AvgSeekRead, spec.MaxSeekRead, spec.TotalCylinders()),
		writeSeek: newSeekCurve(spec.TrackToTrackWrite, spec.AvgSeekWrite, spec.MaxSeekWrite, spec.TotalCylinders()),
		rotPeriod: spec.RotationPeriod(),
		segBytes:  spec.CacheBytes / int64(spec.CacheSegments),
	}
}

// Models hands out one Model per distinct Spec. A machine builder keeps
// one while it builds its drives, so that identical drives share one
// model; a copied spec (Derated) is a distinct spec and gets its own.
type Models map[*Spec]*Model

// Of returns the model of spec, deriving it on first use.
func (ms Models) Of(spec *Spec) *Model {
	m := ms[spec]
	if m == nil {
		m = newModel(spec)
		ms[spec] = m
	}
	return m
}

// New creates a disk built from spec and starts its event-driven
// service loop on k.
func New(k *sim.Kernel, name string, spec *Spec) *Disk { return newModel(spec).New(k, name) }

// New creates a disk that follows model m and starts its event-driven
// service loop on k.
func (m *Model) New(k *sim.Kernel, name string) *Disk { return new(Disk).Init(k, name, m) }

// Init builds d in place as m.New would and starts its service loop on
// k, and returns it; a nil d is allocated first. It keeps only storage:
// the queues, the cache segments, the pooled requests and the bound
// step continuations. Fault state, the scheduler choice and counters of
// an earlier use are dropped.
func (d *Disk) Init(k *sim.Kernel, name string, m *Model) *Disk {
	if d == nil {
		d = new(Disk)
	}
	*d = Disk{
		name:       name,
		m:          m,
		k:          k,
		queue:      d.queue.Init(k, name+".queue", 0),
		headSeg:    -1,
		segs:       sim.Resized(d.segs[:0], m.spec.CacheSegments),
		pr:         k.Probe().Register("disk", name),
		pending:    d.pending.Emptied(),
		onArriveFn: d.onArriveFn,
		onDoneFn:   d.onDoneFn,
		free:       d.free,
	}
	clear(d.segs)
	d.task = k.NewTask(name + ".server")
	if d.onArriveFn == nil {
		d.onArriveFn = d.onArrive
		d.onDoneFn = d.onServiced
	}
	d.serveStep()
	return d
}

// Name returns the disk's name.
func (d *Disk) Name() string { return d.name }

// Spec returns the drive specification.
func (d *Disk) Spec() *Spec { return d.m.spec }

// Model returns the service-time model the drive follows.
func (d *Disk) Model() *Model { return d.m }

// Stats returns a snapshot of the activity counters.
func (d *Disk) Stats() Stats { return d.stats }

// QueueLen returns the number of requests waiting for service.
func (d *Disk) QueueLen() int { return d.queue.Len() + d.pending.Len() }

// Utilization returns the fraction of elapsed time the arm was busy.
func (d *Disk) Utilization() float64 {
	if d.k.Now() == 0 {
		return 0
	}
	return float64(d.stats.BusyTime) / float64(d.k.Now())
}

// SetFaultInjector installs a fault source. Call once, before the
// simulation runs (a declared whole-disk failure is scheduled here). A
// nil injector is a no-op.
func (d *Disk) SetFaultInjector(inj FaultInjector) {
	if inj == nil {
		return
	}
	d.inj = inj
	if t, ok := inj.FailureTime(); ok {
		if t < d.k.Now() {
			t = d.k.Now()
		}
		d.k.At(t, d.fail)
	}
}

// Failed reports whether the drive has failed permanently.
func (d *Disk) Failed() bool { return d.failed }

// fail kills the drive: every queued request completes immediately with
// ErrDiskFailed, the queue closes (the service loop exits after the
// request it may currently be serving — that in-flight request is the
// one simplification: it completes normally), and all future Submits
// fail instantly.
func (d *Disk) fail() {
	if d.failed {
		return
	}
	d.failed = true
	for {
		v, ok := d.queue.TryGet()
		if !ok {
			break
		}
		d.pending.Push(v.(*Request))
	}
	for d.pending.Len() > 0 {
		req := d.pending.Take(0)
		req.status = statusDiskFailed
		d.stats.FailedRequests++
		req.done.Fire()
	}
	d.queue.Close()
}

// Submit enqueues a request for asynchronous service and returns it;
// call Wait on the result to block until completion. The caller sets
// Write, Offset and Length; Submit clears the completion state (Err,
// Retries). A caller-owned request may be submitted again
// once its Wait has returned: Submit resets the completion signal in
// place, keeping its waiter storage.
//
// A request submitted while the drive is busy goes straight to the
// scheduler's pending list. The server mailbox only carries the
// request that ends an idle period: beginService drains the mailbox
// before it starts a request, so the mailbox is empty whenever the
// drive is busy, and the scheduler sees the same requests in the same
// order either way.
func (d *Disk) Submit(req *Request) *Request {
	if req.Offset%SectorSize != 0 || req.Length%SectorSize != 0 {
		panic(fmt.Sprintf("disk %s: request %d+%d not sector-aligned", d.name, req.Offset, req.Length))
	}
	if req.Length <= 0 {
		panic(fmt.Sprintf("disk %s: request length %d must be positive", d.name, req.Length))
	}
	end := (req.Offset + req.Length) / SectorSize
	if end > d.m.geom.totalSectors {
		panic(fmt.Sprintf("disk %s: request beyond capacity (%d > %d sectors)", d.name, end, d.m.geom.totalSectors))
	}
	req.done.Reset()
	req.status, req.Retries = statusOK, 0
	if d.pr.On() {
		d.pr.Sample(probe.KindQueue, int64(d.QueueLen()))
	}
	if d.failed {
		req.status = statusDiskFailed
		d.stats.FailedRequests++
		req.done.Fire()
		return req
	}
	if d.cur != nil {
		d.pending.Push(req)
		return req
	}
	if !d.queue.TryPut(req) {
		panic("disk: unbounded queue rejected request")
	}
	return req
}

// Read performs a synchronous read of length bytes at offset. The error
// is nil on success, ErrMediaError for an unrecoverable sector, or
// ErrDiskFailed once the drive has died; fault-oblivious callers may
// ignore it (the request always completes).
func (d *Disk) Read(p *sim.Proc, offset, length int64) error {
	return d.do(p, false, offset, length)
}

// Write performs a synchronous write of length bytes at offset; the
// error contract matches Read.
func (d *Disk) Write(p *sim.Proc, offset, length int64) error {
	return d.do(p, true, offset, length)
}

// do submits one request drawn from the free list, waits for it and
// returns it to the list. Submit clears the completion state, so none
// carries over from the request's previous use.
func (d *Disk) do(p *sim.Proc, write bool, offset, length int64) error {
	var req *Request
	if n := len(d.free); n > 0 {
		req = d.free[n-1]
		d.free = d.free[:n-1]
	} else {
		req = new(Request)
	}
	req.Write, req.Offset, req.Length = write, offset, length
	d.Submit(req).Wait(p)
	err := req.Err()
	d.free = append(d.free, req)
	return err
}

// Capacity returns the disk's formatted capacity in bytes.
func (d *Disk) Capacity() int64 { return d.m.geom.totalSectors * SectorSize }

// serveStep, onArrive and onServiced are the drive's service loop: a
// state machine driven by mailbox and timer callbacks that collects
// queued requests and dispatches them under the configured scheduling
// policy, so no process handoff happens per request.
func (d *Disk) serveStep() {
	if d.pending.Len() == 0 {
		d.queue.GetFunc(d.task, d.onArriveFn)
		return
	}
	d.beginService()
}

// onArrive receives the request that ended an idle period (or learns
// the queue closed because the drive failed, which retires the loop).
func (d *Disk) onArrive(v any, ok bool) {
	if !ok {
		return
	}
	d.pending.Push(v.(*Request))
	d.beginService()
}

// beginService drains already-arrived requests so the scheduler sees
// the full queue, picks one, and starts its service timer.
func (d *Disk) beginService() {
	for {
		v, ok := d.queue.TryGet()
		if !ok {
			break
		}
		d.pending.Push(v.(*Request))
	}
	req := d.nextRequest()
	d.accrueIdlePrefetch(d.k.Now())
	d.curStart = d.k.Now()
	if d.pr.On() {
		d.statsAt = d.snapshot()
	}
	service := d.serviceTime(req)
	if d.inj != nil {
		service += d.applyFaults(req)
	}
	d.cur, d.curService = req, service
	d.k.After(service, d.onDoneFn)
}

// onServiced completes the in-flight request and loops.
func (d *Disk) onServiced() {
	req, service := d.cur, d.curService
	d.cur = nil
	d.stats.BusyTime += service
	d.stats.Requests++
	if req.Write {
		d.stats.BytesWritten += req.Length
	} else {
		d.stats.BytesRead += req.Length
	}
	d.idleSince = d.k.Now()
	d.emitServed(req)
	req.done.Fire()
	d.serveStep()
}

// serviceSnap is the part of Stats that emitServed reports deltas of,
// snapshotted when a request's service begins.
type serviceSnap struct {
	seek, rotate, transfer sim.Time
	cacheHit, retries      int64
}

func (d *Disk) snapshot() serviceSnap {
	return serviceSnap{
		seek:     d.stats.SeekTime,
		rotate:   d.stats.RotationTime,
		transfer: d.stats.TransferTime,
		cacheHit: d.stats.CacheHitBytes,
		retries:  d.stats.Retries,
	}
}

// emitServed records the request just serviced into the probe sink: the
// whole service span from its start to now (arg = payload bytes),
// seek/rotate/transfer sub-spans laid out consecutively from the
// service start, and cache-hit/retry counters. The deltas against the
// snapshot taken when service began (statsAt) attribute this request's
// share. Sub-span layout is a rendering approximation (controller
// overhead and fault delay land in the tail), but it is a deterministic
// function of the deltas.
func (d *Disk) emitServed(req *Request) {
	if !d.pr.On() {
		return
	}
	before := &d.statsAt
	d.pr.SpanArg(probe.KindService, int64(d.curStart), int64(d.k.Now()), req.Length)
	at := d.curStart
	for _, part := range [...]struct {
		k probe.Kind
		d sim.Time
	}{
		{probe.KindSeek, d.stats.SeekTime - before.seek},
		{probe.KindRotate, d.stats.RotationTime - before.rotate},
		{probe.KindTransfer, d.stats.TransferTime - before.transfer},
	} {
		if part.d > 0 {
			d.pr.Span(part.k, int64(at), int64(at+part.d))
			at += part.d
		}
	}
	if hit := d.stats.CacheHitBytes - before.cacheHit; hit > 0 {
		d.pr.Count(probe.KindCacheHit, hit)
	}
	if n := d.stats.Retries - before.retries; n > 0 {
		d.pr.Count(probe.KindRetry, n)
	}
}

// applyFaults consults the injector for the request being serviced and
// returns the extra service time faults add. A transient media error
// within the retry budget succeeds after its retries (each costing a
// revolution plus retryBackoff); one beyond the budget burns the
// whole budget and completes with ErrMediaError. Reads additionally
// face silent corruption: data failing the checksum verify is reread
// under the same per-retry cost and budget.
func (d *Disk) applyFaults(req *Request) sim.Time {
	d.reqSeq++
	slowBy, retries := d.inj.RequestFault(d.reqSeq)
	var extra sim.Time
	if slowBy > 0 {
		d.stats.SlowRequests++
		extra += slowBy
	}
	if retries > 0 {
		n := retries
		if n > maxRetries {
			n = maxRetries
			d.hardError(req)
		}
		req.Retries = int32(n)
		d.stats.Retries += int64(n)
		extra += sim.Time(n) * (d.m.rotPeriod + retryBackoff)
	}
	if !req.Write {
		if rereads := d.inj.CorruptionFault(d.reqSeq); rereads > 0 {
			d.stats.CorruptReads++
			n := rereads
			if n > maxRetries {
				n = maxRetries
				d.hardError(req)
			}
			d.stats.Rereads += int64(n)
			extra += sim.Time(n) * (d.m.rotPeriod + retryBackoff)
		}
	}
	d.stats.FaultDelay += extra
	return extra
}

// hardError marks the request unrecoverable, counting it once even when
// media retries and corrupt rereads both exhaust their budgets.
func (d *Disk) hardError(req *Request) {
	if req.status == statusOK {
		req.status = statusMediaError
		d.stats.FailedRequests++
	}
}

// nextRequest removes and returns the next request to serve: the head
// of the pending queue, in arrival order (FCFS).
func (d *Disk) nextRequest() *Request { return d.pending.Pop() }

// accrueIdlePrefetch credits read-ahead to the stream the arm was left
// on, for the idle gap since the previous request completed.
func (d *Disk) accrueIdlePrefetch(now sim.Time) {
	if d.headSeg < 0 {
		return
	}
	seg := &d.segs[d.headSeg]
	if !seg.valid || seg.write {
		return
	}
	gap := now - d.idleSince
	if gap <= 0 {
		return
	}
	loc := d.locateOrEnd(seg.endLBA + seg.prefetched/SectorSize)
	rate := d.m.spec.mediaRate(loc.spt)
	extra := int64(float64(gap) / float64(sim.Second) * rate)
	seg.prefetched += extra
	if seg.prefetched > d.m.segBytes {
		seg.prefetched = d.m.segBytes
	}
	// Prefetching moves the arm along with the stream.
	d.curCyl = d.locateOrEnd(seg.endLBA + seg.prefetched/SectorSize).cylinder
}

// locateOrEnd is locate clamped to the last valid sector, for prefetch
// positions that may run off the end of the disk.
func (d *Disk) locateOrEnd(lba int64) location {
	if lba >= d.m.geom.totalSectors {
		lba = d.m.geom.totalSectors - 1
	}
	if lba < 0 {
		lba = 0
	}
	return d.m.geom.locate(lba)
}

// serviceTime computes the mechanical + controller time for req and
// updates arm/cache state.
func (d *Disk) serviceTime(req *Request) sim.Time {
	startLBA := req.Offset / SectorSize
	sectors := req.Length / SectorSize
	t := d.m.spec.ControllerOverhead

	segIdx := d.findStream(startLBA, req.Write)
	var hit int64
	if segIdx >= 0 && !req.Write {
		seg := &d.segs[segIdx]
		hit = seg.prefetched
		if hit > req.Length {
			hit = req.Length
		}
		d.stats.CacheHitBytes += hit
	}
	mediaBytes := req.Length - hit
	mediaStart := startLBA + hit/SectorSize

	if mediaBytes > 0 {
		loc := d.m.geom.locate(mediaStart)
		// The arm keeps streaming with no positioning cost only when this
		// request continues the stream the arm is currently on.
		sequential := segIdx >= 0 && segIdx == d.headSeg
		if !sequential {
			curve := d.m.readSeek
			if req.Write {
				curve = d.m.writeSeek
			}
			dist := loc.cylinder - d.curCyl
			if dist < 0 {
				dist = -dist
			}
			if dist > 0 {
				st := curve.seekTime(dist)
				t += st
				d.stats.Seeks++
				d.stats.SeekTime += st
			}
			rot := d.rotationalLatency(d.k.Now()+t, loc)
			t += rot
			d.stats.RotationTime += rot
		}
		xfer := d.transferTime(mediaStart, mediaBytes/SectorSize)
		t += xfer
		d.stats.TransferTime += xfer
	}

	// Update stream state.
	endLBA := startLBA + sectors
	if segIdx < 0 {
		segIdx = d.evictLRU()
	}
	d.segs[segIdx] = segment{
		valid:   true,
		write:   req.Write,
		endLBA:  endLBA,
		lastUse: d.k.Now(),
	}
	d.headSeg = segIdx
	d.curCyl = d.locateOrEnd(endLBA).cylinder
	return t
}

// findStream returns the index of the cache segment whose stream
// continues at lba with matching direction, or -1.
func (d *Disk) findStream(lba int64, write bool) int {
	for i := range d.segs {
		s := &d.segs[i]
		if s.valid && s.write == write && s.endLBA == lba {
			return i
		}
	}
	return -1
}

// evictLRU picks the least recently used (or first invalid) segment.
func (d *Disk) evictLRU() int {
	best := 0
	for i := range d.segs {
		if !d.segs[i].valid {
			return i
		}
		if d.segs[i].lastUse < d.segs[best].lastUse {
			best = i
		}
	}
	return best
}

// rotationalLatency returns the wait for the platter to bring the target
// sector under the head at absolute time at. Rotational position is a
// deterministic function of absolute time (all platters spin from angle
// zero at time zero).
func (d *Disk) rotationalLatency(at sim.Time, loc location) sim.Time {
	period := d.m.rotPeriod
	pos := at % period // current angular position, in time units
	target := sim.Time(int64(period) * loc.sectorInTrk / int64(loc.spt))
	wait := target - pos
	if wait < 0 {
		wait += period
	}
	return wait
}

// transferTime returns the media time to stream sectors starting at lba,
// crossing zones and charging cylinder switches.
func (d *Disk) transferTime(lba, sectors int64) sim.Time {
	var t sim.Time
	for sectors > 0 {
		loc := d.m.geom.locate(lba)
		zoneEnd := d.zoneEndLBA(loc.zone)
		take := sectors
		if lba+take > zoneEnd {
			take = zoneEnd - lba
		}
		rate := d.m.spec.mediaRate(loc.spt)
		t += sim.TransferTime(take*SectorSize, rate)
		// Cylinder crossings within the span.
		relStart := lba - d.zoneStartLBA(loc.zone)
		relEnd := relStart + take - 1
		crossings := relEnd/loc.sectorsPerCy - relStart/loc.sectorsPerCy
		t += sim.Time(crossings) * d.m.spec.CylinderSwitch
		lba += take
		sectors -= take
		if sectors > 0 && lba >= d.m.geom.totalSectors {
			panic("disk: transfer runs off the end of the disk")
		}
	}
	return t
}

func (d *Disk) zoneStartLBA(zone int) int64 { return d.m.geom.zoneStartLBA[zone] }

func (d *Disk) zoneEndLBA(zone int) int64 {
	if zone+1 < len(d.m.geom.zoneStartLBA) {
		return d.m.geom.zoneStartLBA[zone+1]
	}
	return d.m.geom.totalSectors
}
