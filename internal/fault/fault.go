// Package fault provides deterministic, seeded fault injection for the
// simulator. A Plan describes a schedule of faults — transient media
// errors, latency spikes, silent data corruption caught by checksum
// verify, per-drive CPU slowdown windows (straggler drives), a
// whole-disk failure at a given virtual time (optionally rebuilt onto a
// declared hot spare), and interconnect outage windows — keyed entirely
// off the plan seed,
// the disk identity and the per-disk request sequence number. No wall
// clock or shared RNG stream is involved, so the same plan against the
// same workload produces bit-for-bit identical fault schedules and
// reports, regardless of host, Go version, or how many unrelated
// simulations ran first.
package fault

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"howsim/internal/cpu"
	"howsim/internal/sim"
)

// Window is a half-open interval [Start, End) of virtual time during
// which a fault condition holds.
type Window = sim.Window

// LinkOutage names an interconnect (a bus or netsim link, e.g. "fcal0")
// and the window during which it carries no traffic.
type LinkOutage struct {
	Name   string
	Window Window
}

// Straggler is a per-drive processor slowdown window: between Start and
// End the named drive's CPU retires work at 1/Factor of its nominal
// rate (firmware background activity, thermal throttling — the classic
// straggler drive).
type Straggler struct {
	Disk   int
	Window Window
	// Factor is the slowdown multiple (> 1); work that would take t
	// takes Factor*t inside the window.
	Factor float64
}

// Plan is a deterministic fault schedule for one simulation run.
type Plan struct {
	// Seed keys every per-request fault decision.
	Seed uint64
	// MediaRate is the per-request probability of a transient media
	// error: the request succeeds after a deterministic number of
	// retries, or becomes a hard error if that number exceeds the disk's
	// retry budget.
	MediaRate float64
	// SlowRate is the per-request probability of a latency spike
	// (a stuck head, a thermal recalibration).
	SlowRate float64
	// SlowBy is the added service latency for a slow request.
	SlowBy sim.Time
	// CorruptRate is the per-read probability of silent data corruption
	// caught by the drive's checksum verify: the read succeeds after a
	// deterministic number of rereads, or becomes a hard error when
	// that number exceeds the retry budget. Writes are unaffected.
	CorruptRate float64
	// FailDisk is the index of the disk that fails permanently at
	// FailAt, or -1 for no disk failure.
	FailDisk int
	// FailAt is the virtual time of the permanent disk failure.
	FailAt sim.Time
	// Replica declares that each disk's data has a replica on a peer, so
	// scans may re-issue lost ranges instead of completing degraded.
	Replica bool
	// Spare declares a hot-spare drive: after the permanent failure the
	// surviving replica streams the lost partition onto it in the
	// background, contending with the foreground scan. Requires Replica
	// and a fail clause.
	Spare bool
	// RebuildRate caps the spare-rebuild stream at the given MB/s
	// (0 = rebuild as fast as the replica and loop allow). Real arrays
	// throttle rebuild to protect foreground latency; the knob exposes
	// the rebuild-time vs. degraded-throughput tradeoff directly.
	// Requires Spare.
	RebuildRate float64
	// Stragglers lists per-drive CPU slowdown windows.
	Stragglers []Straggler
	// Outages lists interconnect outage windows by link/bus name.
	Outages []LinkOutage
}

// NewPlan returns an empty plan (no faults) with the given seed.
func NewPlan(seed uint64) *Plan {
	return &Plan{Seed: seed, SlowBy: 50 * sim.Millisecond, FailDisk: -1}
}

// ParsePlan parses the comma-separated key=value plan syntax used on
// command lines, e.g.
//
//	seed=42,media=0.001,slow=0.0005,slowby=50ms,fail=3@2s,replica,outage=fcal0@1s+200ms
//
// Keys: seed=N, media=P (transient media-error probability), slow=P
// (latency-spike probability), slowby=D (spike size), corrupt=P
// (silent-corruption probability on reads, caught by checksum verify),
// fail=DISK@T (permanent failure of disk index DISK at time T), replica
// (declare replicas so scans can recover), spare (declare a hot spare
// the replica rebuilds onto; requires replica and fail),
// rebuild-rate=MBPS (cap the spare-rebuild stream at MBPS MB/s;
// requires spare), straggler=DISK@T+D*F (disk DISK's CPU runs F times slower from T for
// D; *F is optional and defaults to 2), outage=NAME@T+D (link NAME down
// from T for D). Durations use Go syntax (50ms, 2s). straggler and
// outage may repeat; every other key may appear at most once.
func ParsePlan(s string) (*Plan, error) {
	p := NewPlan(0)
	if strings.TrimSpace(s) == "" {
		return p, nil
	}
	seen := map[string]bool{}
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, hasVal := strings.Cut(field, "=")
		switch key {
		case "seed", "media", "slow", "slowby", "corrupt", "fail", "replica", "spare", "rebuild-rate":
			if seen[key] {
				return nil, fmt.Errorf("fault: duplicate %s clause (each may appear once; drop one)", key)
			}
			seen[key] = true
		}
		switch key {
		case "seed":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad seed %q: %v", val, err)
			}
			p.Seed = n
		case "media":
			f, err := parseProb(val)
			if err != nil {
				return nil, fmt.Errorf("fault: bad media rate %q: %v", val, err)
			}
			p.MediaRate = f
		case "slow":
			f, err := parseProb(val)
			if err != nil {
				return nil, fmt.Errorf("fault: bad slow rate %q: %v", val, err)
			}
			p.SlowRate = f
		case "slowby":
			d, err := parseDur(val)
			if err != nil {
				return nil, fmt.Errorf("fault: bad slowby %q: %v", val, err)
			}
			p.SlowBy = d
		case "corrupt":
			f, err := parseProb(val)
			if err != nil {
				return nil, fmt.Errorf("fault: bad corrupt rate %q: %v", val, err)
			}
			p.CorruptRate = f
		case "fail":
			disk, at, ok := strings.Cut(val, "@")
			if !ok {
				return nil, fmt.Errorf("fault: fail wants DISK@TIME, got %q", val)
			}
			n, err := strconv.Atoi(disk)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("fault: bad fail disk %q", disk)
			}
			t, err := parseDur(at)
			if err != nil {
				return nil, fmt.Errorf("fault: bad fail time %q: %v", at, err)
			}
			p.FailDisk, p.FailAt = n, t
		case "replica":
			if hasVal && val != "true" {
				return nil, fmt.Errorf("fault: replica takes no value, got %q", val)
			}
			p.Replica = true
		case "spare":
			if hasVal && val != "true" {
				return nil, fmt.Errorf("fault: spare takes no value, got %q", val)
			}
			p.Spare = true
		case "rebuild-rate":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || !(f > 0) || math.IsInf(f, 1) {
				return nil, fmt.Errorf("fault: bad rebuild-rate %q (must be a positive MB/s figure, and finite)", val)
			}
			p.RebuildRate = f
		case "straggler":
			st, err := parseStraggler(val)
			if err != nil {
				return nil, err
			}
			if slices.Contains(p.Stragglers, st) {
				return nil, duplicateWindow(field)
			}
			p.Stragglers = append(p.Stragglers, st)
		case "outage":
			name, span, ok := strings.Cut(val, "@")
			if !ok || name == "" {
				return nil, fmt.Errorf("fault: outage wants NAME@START+DUR, got %q", val)
			}
			start, dur, ok := strings.Cut(span, "+")
			if !ok {
				return nil, fmt.Errorf("fault: outage wants NAME@START+DUR, got %q", val)
			}
			st, err := parseDur(start)
			if err != nil {
				return nil, fmt.Errorf("fault: bad outage start %q: %v", start, err)
			}
			d, err := parseDur(dur)
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("fault: bad outage duration %q (must be a positive Go duration)", dur)
			}
			o := LinkOutage{Name: name, Window: Window{Start: st, End: st + d}}
			if slices.Contains(p.Outages, o) {
				return nil, duplicateWindow(field)
			}
			p.Outages = append(p.Outages, o)
		default:
			return nil, fmt.Errorf("fault: unknown plan key %q", key)
		}
	}
	if p.Spare && (!p.Replica || p.FailDisk < 0) {
		return nil, fmt.Errorf("fault: spare needs a replica to rebuild from and a fail clause to trigger it (add replica and fail=DISK@TIME)")
	}
	if p.RebuildRate > 0 && !p.Spare {
		return nil, fmt.Errorf("fault: rebuild-rate paces the spare rebuild and needs one to pace (add spare)")
	}
	return p, nil
}

// duplicateWindow rejects a straggler or outage clause whose parsed
// window equals an earlier one, however the two were spelled
// (1s and 1000ms, an omitted *2 and an explicit one): their canonical
// forms would be identical, and identical windows inject nothing extra.
func duplicateWindow(field string) error {
	return fmt.Errorf("fault: duplicate clause %q (identical windows inject nothing extra; drop one)", field)
}

// parseStraggler parses DISK@START+DUR or DISK@START+DUR*FACTOR.
func parseStraggler(val string) (Straggler, error) {
	disk, span, ok := strings.Cut(val, "@")
	if !ok {
		return Straggler{}, fmt.Errorf("fault: straggler wants DISK@START+DUR*FACTOR, got %q", val)
	}
	n, err := strconv.Atoi(disk)
	if err != nil || n < 0 {
		return Straggler{}, fmt.Errorf("fault: bad straggler disk %q", disk)
	}
	start, rest, ok := strings.Cut(span, "+")
	if !ok {
		return Straggler{}, fmt.Errorf("fault: straggler wants DISK@START+DUR*FACTOR, got %q", val)
	}
	dur, factorStr, hasFactor := strings.Cut(rest, "*")
	st, err := parseDur(start)
	if err != nil {
		return Straggler{}, fmt.Errorf("fault: bad straggler start %q: %v", start, err)
	}
	d, err := parseDur(dur)
	if err != nil || d <= 0 {
		return Straggler{}, fmt.Errorf("fault: bad straggler duration %q (must be a positive Go duration)", dur)
	}
	f := 2.0
	if hasFactor {
		f, err = strconv.ParseFloat(factorStr, 64)
		if err != nil || !(f > 1) || math.IsInf(f, 1) {
			return Straggler{}, fmt.Errorf("fault: bad straggler factor %q (must be > 1 and finite)", factorStr)
		}
	}
	// A slowed stretch of the window must still be a virtual time.
	if float64(d)*f >= math.MaxInt64 {
		return Straggler{}, fmt.Errorf("fault: straggler factor %v over %v exceeds the longest virtual time", f, d.Duration())
	}
	return Straggler{Disk: n, Window: Window{Start: st, End: st + d}, Factor: f}, nil
}

func parseProb(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if !(f >= 0 && f <= 1) { // NaN fails both comparisons
		return 0, fmt.Errorf("probability %v outside [0,1]", f)
	}
	return f, nil
}

func parseDur(s string) (sim.Time, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("negative duration %v", d)
	}
	return sim.Time(d.Nanoseconds()), nil
}

// String renders the plan in canonical parseable form (keys in a fixed
// order, outages sorted), suitable for inclusion in reports that must
// be byte-identical across runs.
func (p *Plan) String() string {
	var parts []string
	parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	if p.MediaRate > 0 {
		parts = append(parts, "media="+strconv.FormatFloat(p.MediaRate, 'g', -1, 64))
	}
	if p.SlowRate > 0 {
		parts = append(parts, "slow="+strconv.FormatFloat(p.SlowRate, 'g', -1, 64))
		parts = append(parts, "slowby="+p.SlowBy.Duration().String())
	}
	if p.CorruptRate > 0 {
		parts = append(parts, "corrupt="+strconv.FormatFloat(p.CorruptRate, 'g', -1, 64))
	}
	if p.FailDisk >= 0 {
		parts = append(parts, fmt.Sprintf("fail=%d@%s", p.FailDisk, p.FailAt.Duration()))
	}
	if p.Replica {
		parts = append(parts, "replica")
	}
	if p.Spare {
		parts = append(parts, "spare")
	}
	if p.RebuildRate > 0 {
		parts = append(parts, "rebuild-rate="+strconv.FormatFloat(p.RebuildRate, 'g', -1, 64))
	}
	strags := append([]Straggler(nil), p.Stragglers...)
	sort.Slice(strags, func(i, j int) bool {
		if strags[i].Disk != strags[j].Disk {
			return strags[i].Disk < strags[j].Disk
		}
		return strags[i].Window.Start < strags[j].Window.Start
	})
	for _, st := range strags {
		parts = append(parts, fmt.Sprintf("straggler=%d@%s+%s*%s",
			st.Disk, st.Window.Start.Duration(), st.Window.Duration().Duration(),
			strconv.FormatFloat(st.Factor, 'g', -1, 64)))
	}
	outs := append([]LinkOutage(nil), p.Outages...)
	sort.Slice(outs, func(i, j int) bool {
		if outs[i].Name != outs[j].Name {
			return outs[i].Name < outs[j].Name
		}
		return outs[i].Window.Start < outs[j].Window.Start
	})
	for _, o := range outs {
		parts = append(parts, fmt.Sprintf("outage=%s@%s+%s",
			o.Name, o.Window.Start.Duration(), o.Window.Duration().Duration()))
	}
	return strings.Join(parts, ",")
}

// Empty reports whether the plan injects no faults at all.
func (p *Plan) Empty() bool {
	return p == nil ||
		(p.MediaRate == 0 && p.SlowRate == 0 && p.CorruptRate == 0 &&
			p.FailDisk < 0 && len(p.Stragglers) == 0 && len(p.Outages) == 0)
}

// RebuildChunkTime returns the minimum virtual time an n-byte rebuild
// chunk must occupy under the plan's rebuild-rate cap, or 0 when the
// rebuild is unthrottled. The rebuild loop delays for the remainder
// whenever a chunk's read+copy+write finished faster than the cap
// allows.
func (p *Plan) RebuildChunkTime(n int64) sim.Time {
	if p == nil || p.RebuildRate <= 0 {
		return 0
	}
	// rate is MB/s (1 MB = 1e6 bytes), so n bytes take n*1000/rate ns.
	return sim.Time(float64(n) * 1000 / p.RebuildRate)
}

// OutagesFor returns the outage windows declared for the named link or
// bus, in start order (nil when there are none).
func (p *Plan) OutagesFor(name string) []Window {
	if p == nil {
		return nil
	}
	var ws []Window
	for _, o := range p.Outages {
		if o.Name == name {
			ws = append(ws, o.Window)
		}
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].Start < ws[j].Start })
	return ws
}

// DiskInjector returns the per-request fault source for the disk with
// the given index, or nil when the plan holds no per-disk faults for it.
// The caller must check for nil before storing the result in an
// interface value.
func (p *Plan) DiskInjector(diskID int) *DiskInjector {
	if p == nil {
		return nil
	}
	if p.MediaRate == 0 && p.SlowRate == 0 && p.CorruptRate == 0 && p.FailDisk != diskID {
		return nil
	}
	return &DiskInjector{plan: p, diskID: diskID}
}

// StragglersFor returns the straggler windows declared for the disk with
// the given index as the cpu model's slowdowns, in start order (nil when
// there are none).
func (p *Plan) StragglersFor(diskID int) []cpu.Slowdown {
	if p == nil {
		return nil
	}
	var ss []cpu.Slowdown
	for _, st := range p.Stragglers {
		if st.Disk == diskID {
			ss = append(ss, cpu.Slowdown{Window: st.Window, Factor: st.Factor})
		}
	}
	sort.Slice(ss, func(i, j int) bool { return ss[i].Window.Start < ss[j].Window.Start })
	return ss
}

// DiskInjector decides, per request, whether a disk suffers a transient
// media error or a latency spike, and whether (and when) the disk fails
// permanently. It satisfies the disk package's FaultInjector interface.
// Every decision is a pure function of (plan seed, disk ID, request
// sequence number).
type DiskInjector struct {
	plan   *Plan
	diskID int
}

// Salts separate the independent per-request fault decisions drawn from
// the same (seed, disk, seq) identity.
const (
	saltMedia   = 0x6d656469 // "medi"
	saltRetry   = 0x72657472 // "retr"
	saltSlow    = 0x736c6f77 // "slow"
	saltCorrupt = 0x63727074 // "crpt"
	saltReread  = 0x72726472 // "rrdr"
)

// RequestFault returns the faults for the seq-th request on this disk:
// an added service latency (zero if none) and the number of retries a
// transient media error demands (zero if the read is clean). A retry
// count above the drive's retry budget becomes a hard media error.
func (in *DiskInjector) RequestFault(seq int64) (slowBy sim.Time, mediaRetries int) {
	p := in.plan
	if p.MediaRate > 0 && hashFloat(p.Seed, uint64(in.diskID), uint64(seq), saltMedia) < p.MediaRate {
		mediaRetries = retryCount(hash(p.Seed, uint64(in.diskID), uint64(seq), saltRetry))
	}
	if p.SlowRate > 0 && hashFloat(p.Seed, uint64(in.diskID), uint64(seq), saltSlow) < p.SlowRate {
		slowBy = p.SlowBy
	}
	return slowBy, mediaRetries
}

// CorruptionFault returns the number of checksum-verify rereads the
// seq-th request demands when its data comes back silently corrupted
// (zero for a clean read). The disk applies it to reads only; a count
// above the retry budget becomes a hard error, mirroring media retries.
func (in *DiskInjector) CorruptionFault(seq int64) int {
	p := in.plan
	if p.CorruptRate > 0 && hashFloat(p.Seed, uint64(in.diskID), uint64(seq), saltCorrupt) < p.CorruptRate {
		return retryCount(hash(p.Seed, uint64(in.diskID), uint64(seq), saltReread))
	}
	return 0
}

// FailureTime returns the virtual time at which this disk fails
// permanently, and whether it fails at all.
func (in *DiskInjector) FailureTime() (sim.Time, bool) {
	if in.plan.FailDisk == in.diskID {
		return in.plan.FailAt, true
	}
	return 0, false
}

// retryCount maps a hash to a geometric retry count in [1, 8]: half of
// media errors clear after one retry, a quarter after two, and so on,
// with the tail capped so pathological requests stay bounded.
func retryCount(h uint64) int {
	n := 1 + bits.TrailingZeros64(h|1<<7)
	if n > 8 {
		n = 8
	}
	return n
}

// mix is the splitmix64 finalizer: a fast, well-distributed 64-bit
// permutation.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hash folds the identity words into one well-mixed 64-bit value.
func hash(words ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range words {
		h = mix(h ^ w)
	}
	return h
}

// hashFloat maps the identity to a uniform float64 in [0, 1).
func hashFloat(words ...uint64) float64 {
	return float64(hash(words...)>>11) / float64(1<<53)
}
