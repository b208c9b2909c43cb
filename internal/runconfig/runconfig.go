// Package runconfig is the shared currency for describing one
// simulation run: a plain, serializable Request (the union of the
// cmd/howsim and cmd/experiments configuration flags and the howsimd
// service's JSON body) that normalizes into a fully resolved Spec — the
// architecture Config, task ID, dataset, fault plan and execution mode
// the tasks layer consumes — plus a canonical string form and a
// content-addressed cache key.
//
// Every simulation is deterministic: two requests that normalize to the
// same canonical form produce byte-identical results, so Key() is a
// sound cache key for an arbitrarily long-lived result cache. The
// normalizer therefore folds every don't-care degree of freedom before
// keying: defaults are materialized, fault plans are round-tripped
// through the plan grammar (so equivalent spellings collapse), and
// knobs that the selected architecture ignores (per-drive memory on a
// cluster, front-end-only routing on an SMP) are zeroed.
package runconfig

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"howsim/internal/arch"
	"howsim/internal/fault"
	"howsim/internal/tasks"
	"howsim/internal/workload"
)

// Defaults applied by Normalize to zero-valued Request fields. They
// mirror the cmd/howsim flag defaults.
const (
	DefaultTask      = "select"
	DefaultArch      = "active"
	DefaultDisks     = 16
	DefaultMemMB     = 32
	DefaultScale     = 1.0
	DefaultProcMode  = "event"
	DefaultRingSpans = 1
)

// MaxDisks bounds the configuration size a Request may ask for. The
// paper studies 16-128; the bound only exists so a hostile request
// cannot ask a service to build a million-drive farm.
const MaxDisks = 4096

// MaxMemMB bounds the Active Disk per-drive memory a Request may ask
// for (the paper studies 32-128 MB). Above it the byte count would
// overflow.
const MaxMemMB = 1 << 20

// MaxRingSpans bounds the per-request span-ring multiplier. One unit is
// probe.DefaultRingSpans (256Ki spans, 8 MB); the bound keeps a single
// request's probe budget under a quarter gigabyte.
const MaxRingSpans = 32

// ArchNames returns the architecture names in the paper's presentation
// order.
func ArchNames() []string { return []string{"active", "cluster", "smp"} }

// Request is the plain description of one simulation run. The zero
// value of every field means "default". It is the howsimd wire format
// (JSON) and the struct both CLIs fill from their flags.
type Request struct {
	// Task is the DSS task: select|aggregate|groupby|sort|dcube|join|dmine|mview.
	Task string `json:"task,omitempty"`
	// Arch is the architecture: active|cluster|smp.
	Arch string `json:"arch,omitempty"`
	// Disks is the number of disks (and processors).
	Disks int `json:"disks,omitempty"`
	// MemMB is the Active Disk per-drive memory in MB (32/64/128).
	MemMB int64 `json:"mem_mb,omitempty"`
	// FastIO selects the 400 MB/s serial interconnect variant.
	FastIO bool `json:"fastio,omitempty"`
	// FastDisk upgrades the drives to the Hitachi DK3E1T-91.
	FastDisk bool `json:"fastdisk,omitempty"`
	// FrontEndOnly restricts Active Disk communication to the front-end.
	FrontEndOnly bool `json:"feonly,omitempty"`
	// FibreSwitch splits the Active Disk farm across N switched loops
	// (0 or 1 = single shared loop).
	FibreSwitch int `json:"fibreswitch,omitempty"`
	// Scale is the dataset scale factor in (0, 1]; 1.0 is the full
	// Table 2 size.
	Scale float64 `json:"scale,omitempty"`
	// Faults is a deterministic fault plan in the internal/fault grammar.
	Faults string `json:"faults,omitempty"`
	// ProcMode is the simulator execution mode: event|parallel.
	ProcMode string `json:"procmode,omitempty"`
	// RingSpans multiplies the probe span-ring capacity for probed runs.
	// Each request gets its own isolated sink sized by its own budget.
	RingSpans int `json:"ring_spans,omitempty"`
	// Breakdown requests the utilization/phase breakdown report (the run
	// then executes probed, paying the span ring for this request only).
	Breakdown bool `json:"breakdown,omitempty"`
}

// Spec is a normalized, fully resolved Request: everything the tasks
// layer needs to execute the run, plus the normalized Request itself
// for canonicalization.
type Spec struct {
	Req     Request // normalized copy (defaults filled, faults canonical)
	TaskID  workload.TaskID
	Config  arch.Config
	Dataset workload.Dataset
	Plan    *fault.Plan // nil when the plan is empty
	Mode    tasks.ExecMode
}

// Normalize validates the request, fills defaults, folds don't-care
// fields and resolves the model objects. The returned Spec's Req field
// is the canonical form of the request: normalizing it again is a
// fixed point.
func (r Request) Normalize() (*Spec, error) {
	if r.Task == "" {
		r.Task = DefaultTask
	}
	if r.Arch == "" {
		r.Arch = DefaultArch
	}
	if r.Disks == 0 {
		r.Disks = DefaultDisks
	}
	if r.MemMB == 0 {
		r.MemMB = DefaultMemMB
	}
	if r.Scale == 0 {
		r.Scale = DefaultScale
	}
	if r.ProcMode == "" {
		r.ProcMode = DefaultProcMode
	}
	if r.RingSpans == 0 {
		r.RingSpans = DefaultRingSpans
	}

	task, err := workload.ParseTask(r.Task)
	if err != nil {
		return nil, err
	}
	mode, err := tasks.ParseExecMode(r.ProcMode)
	if err != nil {
		return nil, err
	}
	if r.Disks < 1 || r.Disks > MaxDisks {
		return nil, fmt.Errorf("runconfig: disks %d out of range [1, %d]", r.Disks, MaxDisks)
	}
	if r.MemMB < 1 || r.MemMB > MaxMemMB {
		return nil, fmt.Errorf("runconfig: mem_mb %d out of range [1, %d]", r.MemMB, MaxMemMB)
	}
	if !(r.Scale > 0 && r.Scale <= 1) { // also rejects NaN
		return nil, fmt.Errorf("runconfig: scale %g out of range (0, 1]", r.Scale)
	}
	if r.RingSpans < 1 || r.RingSpans > MaxRingSpans {
		return nil, fmt.Errorf("runconfig: ring_spans %d out of range [1, %d]", r.RingSpans, MaxRingSpans)
	}
	if r.FibreSwitch < 0 {
		return nil, fmt.Errorf("runconfig: fibreswitch %d must be non-negative", r.FibreSwitch)
	}
	plan, err := fault.ParsePlan(r.Faults)
	if err != nil {
		return nil, err
	}
	if plan.Empty() {
		plan = nil
		r.Faults = ""
	} else {
		// Round-trip through the grammar so equivalent spellings (field
		// order, whitespace, redundant defaults) share one cache key.
		r.Faults = plan.String()
	}

	// A single shared loop can be spelled 0 or 1; fold the don't-care.
	if r.FibreSwitch == 1 {
		r.FibreSwitch = 0
	}

	var cfg arch.Config
	switch r.Arch {
	case "active":
		cfg = arch.ActiveDisks(r.Disks).WithDiskMemory(r.MemMB << 20)
		if r.FrontEndOnly {
			cfg = cfg.WithFrontEndOnly()
		}
		if r.FibreSwitch > 1 {
			cfg = cfg.WithFibreSwitch(r.FibreSwitch)
		}
	case "cluster":
		cfg = arch.Cluster(r.Disks)
	case "smp":
		cfg = arch.SMP(r.Disks)
	default:
		return nil, fmt.Errorf("runconfig: unknown architecture %q (want active, cluster or smp)", r.Arch)
	}
	if r.Arch != "active" {
		// Knobs only an Active Disk farm consults: zero them so requests
		// differing only in ignored fields share a cache key.
		r.MemMB = DefaultMemMB
		r.FrontEndOnly = false
		r.FibreSwitch = 0
	}
	if r.FastIO {
		cfg = cfg.WithFastIO()
	}
	if r.FastDisk {
		cfg = cfg.WithFastDisk()
	}

	ds, err := workload.ForTaskScaled(task, r.Scale)
	if err != nil {
		return nil, fmt.Errorf("runconfig: %w", err)
	}

	return &Spec{Req: r, TaskID: task, Config: cfg, Dataset: ds, Plan: plan, Mode: mode}, nil
}

// Canonical renders the normalized request in a fixed field order. Two
// requests with equal canonical forms describe byte-identical
// simulations (determinism makes the converse of a cache hit safe).
// Optional knobs appear only when set, so the form stays readable:
//
//	task=sort,arch=active,disks=64,mem=32,scale=0.05,procmode=event,fastio
func (s *Spec) Canonical() string {
	r := &s.Req
	var sb strings.Builder
	fmt.Fprintf(&sb, "task=%s,arch=%s,disks=%d,mem=%d,scale=%s,procmode=%s",
		r.Task, r.Arch, r.Disks, r.MemMB,
		strconv.FormatFloat(r.Scale, 'g', -1, 64), r.ProcMode)
	if r.FastIO {
		sb.WriteString(",fastio")
	}
	if r.FastDisk {
		sb.WriteString(",fastdisk")
	}
	if r.FrontEndOnly {
		sb.WriteString(",feonly")
	}
	if r.FibreSwitch > 1 {
		fmt.Fprintf(&sb, ",fibreswitch=%d", r.FibreSwitch)
	}
	if r.Faults != "" {
		fmt.Fprintf(&sb, ",faults={%s}", r.Faults)
	}
	if r.RingSpans != DefaultRingSpans {
		fmt.Fprintf(&sb, ",ring_spans=%d", r.RingSpans)
	}
	if r.Breakdown {
		sb.WriteString(",breakdown")
	}
	return sb.String()
}

// Key returns the content-addressed cache key: the hex SHA-256 of the
// canonical form.
func (s *Spec) Key() string {
	sum := sha256.Sum256([]byte(s.Canonical()))
	return hex.EncodeToString(sum[:])
}
