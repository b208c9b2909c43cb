package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"time"
)

// span is one benchmark-side interval: a call the benchmark made into a
// layer of the program. The spans of one op share its id; parent links a
// step to the op (or request) span that caused it.
type span struct {
	op         int
	name, arg  string
	parent     int // index of the parent span, -1 for an op's root
	start, end time.Duration
}

// tracer records spans in memory; they are written out once, when the
// run ends. A nil *tracer records nothing, so an untraced run pays a nil
// check per step.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex // the open loop records from several senders
	ops   int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp returns a fresh op id.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span and returns its handle for end.
func (t *tracer) begin(op, parent int, name, arg string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{op: op, name: name, arg: arg, parent: parent, start: now, end: now})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[i].end = now
	t.mu.Unlock()
}

// self returns each span's self time: its duration less the part its
// child spans cover. The steps of one op run one after another, so
// children never overlap.
func (t *tracer) self() []time.Duration {
	out := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		out[i] += s.end - s.start
		if s.parent >= 0 {
			out[s.parent] -= s.end - s.start
		}
	}
	return out
}

// selfByName groups the spans' self times by span name.
func (t *tracer) selfByName() map[string][]time.Duration {
	self := t.self()
	out := map[string][]time.Duration{}
	for i, s := range t.spans {
		out[s.name] = append(out[s.name], self[i])
	}
	return out
}

// write saves the spans as Chrome trace-event JSON, one thread per op,
// each span's self time in its args and the run's metadata alongside.
func (t *tracer) write(path string, meta map[string]any) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := t.self()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		args := map[string]any{"self_us": us(self[i])}
		if s.arg != "" {
			args["arg"] = s.arg
		}
		events[i] = event{Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: s.op, Args: args}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuProfile is a CPU profile being taken into memory.
type cpuProfile struct{ buf bytes.Buffer }

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns each package's share of its samples
// and the sample count.
func (p *cpuProfile) stop() (map[string]float64, int64, error) {
	pprof.StopCPUProfile()
	return packageShares(p.buf.Bytes())
}

// packageShares parses a gzipped pprof profile and returns each Go
// package's share of the sampled CPU, attributing a sample to the
// package of its innermost frame (self time), and the sample count. It
// decodes only what it needs of the perftools.profiles.Profile message:
// samples (2), locations (4), functions (5) and the string table (6).
func packageShares(gz []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	var (
		strs     []string
		funcName = map[uint64]uint64{} // function id → string table index
		leafFunc = map[uint64]uint64{} // location id → innermost function id
		samples  = map[uint64]int64{}  // innermost location id → samples
	)
	err = pbFields(raw, func(f pbField) error {
		switch f.num {
		case 2: // Sample: location_id (1), innermost first; value (2)
			var locs, vals []uint64
			if err := pbFields(f.data, func(g pbField) error {
				switch g.num {
				case 1:
					locs = g.varints(locs)
				case 2:
					vals = g.varints(vals)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples[locs[0]] += int64(vals[0])
			}
		case 4: // Location: id (1); line (4), innermost inlined frame first
			var id, fn uint64
			seen := false
			if err := pbFields(f.data, func(g pbField) error {
				switch {
				case g.num == 1:
					id = g.v
				case g.num == 4 && !seen:
					seen = true
					return pbFields(g.data, func(h pbField) error {
						if h.num == 1 {
							fn = h.v
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			leafFunc[id] = fn
		case 5: // Function: id (1), name (2)
			var id, name uint64
			if err := pbFields(f.data, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = g.v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	var total int64
	for _, n := range samples {
		total += n
	}
	shares := map[string]float64{}
	for loc, n := range samples {
		name := ""
		if i := funcName[leafFunc[loc]]; i < uint64(len(strs)) {
			name = strs[i]
		}
		shares[funcPackage(name)] += float64(n) / float64(total)
	}
	return shares, total, nil
}

// funcPackage returns the import path of a symbol name as the profile
// spells it, e.g. "howsim/internal/sim" for
// "howsim/internal/sim.(*Kernel).Run".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // type arguments may contain slashes and dots
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// pbField is one decoded protobuf field: a varint or fixed-width value in
// v, or the payload of a length-delimited field in data.
type pbField struct {
	num, wire int
	v         uint64
	data      []byte
}

// varints appends the field's integers to dst: a packed field holds
// several, a plain varint one.
func (f pbField) varints(dst []uint64) []uint64 {
	if f.wire != 2 {
		return append(dst, f.v)
	}
	for b := f.data; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst
}

var errBadProfile = errors.New("profile: malformed protobuf")

// pbFields calls fn for each field of one protobuf message.
func pbFields(b []byte, fn func(pbField) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProfile
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.v, n = binary.Uvarint(b); n <= 0 {
				return errBadProfile
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProfile
			}
			f.v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errBadProfile
			}
			f.data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProfile
			}
			f.v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errBadProfile
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// gcCPU returns the runtime's estimates of CPU seconds spent on garbage
// collection and in total since the process started.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// rusage returns the process's CPU time, user plus system, and its peak
// resident set in MiB.
func rusage() (cpu time.Duration, peakMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// liveHeapMB collects garbage and returns the MiB still live on the Go
// heap: what the work so far has left behind.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// totalAlloc returns the bytes allocated on the Go heap so far.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}
