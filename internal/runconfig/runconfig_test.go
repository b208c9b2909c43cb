package runconfig

import (
	"math"
	"strings"
	"testing"

	"howsim/internal/arch"
	"howsim/internal/tasks"
	"howsim/internal/workload"
)

func TestNormalizeDefaults(t *testing.T) {
	sp, err := Request{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if sp.TaskID != workload.Select || sp.Config.Kind != arch.KindActiveDisk ||
		sp.Config.Disks != 16 || sp.Mode != tasks.ModeEvent {
		t.Fatalf("unexpected defaults: %+v", sp)
	}
	if sp.Config.DiskMemBytes != 32<<20 {
		t.Fatalf("default disk memory = %d, want 32 MB", sp.Config.DiskMemBytes)
	}
	if sp.Plan != nil {
		t.Fatalf("empty request produced a fault plan: %v", sp.Plan)
	}
	want := "task=select,arch=active,disks=16,mem=32,scale=1,procmode=event"
	if got := sp.Canonical(); got != want {
		t.Fatalf("canonical = %q, want %q", got, want)
	}
}

func TestNormalizeIsFixedPoint(t *testing.T) {
	sp, err := Request{Task: "sort", Arch: "cluster", Disks: 64, Scale: 0.05,
		Faults: " seed=42 , media=0.001 "}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	again, err := sp.Req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if sp.Canonical() != again.Canonical() || sp.Key() != again.Key() {
		t.Fatalf("normalization is not a fixed point: %q vs %q", sp.Canonical(), again.Canonical())
	}
}

func TestFaultPlanSpellingsShareKey(t *testing.T) {
	a, err := Request{Faults: "seed=42,media=0.001"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Request{Faults: "  media=0.001 , seed=42  "}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Fatalf("equivalent fault plans got distinct keys:\n  %s\n  %s", a.Canonical(), b.Canonical())
	}
}

func TestIgnoredKnobsFold(t *testing.T) {
	// Per-drive memory, front-end-only routing and switched loops are
	// Active Disk knobs; a cluster run must key identically with or
	// without them.
	a, err := Request{Arch: "cluster", MemMB: 128, FrontEndOnly: true, FibreSwitch: 4}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Request{Arch: "cluster"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Fatalf("ignored knobs split the cache key:\n  %s\n  %s", a.Canonical(), b.Canonical())
	}
	// A single loop can be spelled 0 or 1.
	c, err := Request{FibreSwitch: 1}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	d, err := Request{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if c.Key() != d.Key() {
		t.Fatal("fibreswitch=1 and fibreswitch=0 got distinct keys")
	}
}

// distinctBase and distinctVariants are requests that must each get
// their own cache key.
var (
	distinctBase     = Request{Task: "select", Arch: "active", Disks: 16}
	distinctVariants = []Request{
		{Task: "sort", Arch: "active", Disks: 16},
		{Task: "select", Arch: "smp", Disks: 16},
		{Task: "select", Arch: "active", Disks: 32},
		{Task: "select", Arch: "active", Disks: 16, MemMB: 64},
		{Task: "select", Arch: "active", Disks: 16, FastIO: true},
		{Task: "select", Arch: "active", Disks: 16, FastDisk: true},
		{Task: "select", Arch: "active", Disks: 16, FrontEndOnly: true},
		{Task: "select", Arch: "active", Disks: 16, FibreSwitch: 4},
		{Task: "select", Arch: "active", Disks: 16, Scale: 0.5},
		{Task: "select", Arch: "active", Disks: 16, Faults: "seed=1,media=0.001"},
		{Task: "select", Arch: "active", Disks: 16, ProcMode: "parallel"},
		{Task: "select", Arch: "active", Disks: 16, Breakdown: true},
	}
)

// rejectedRequests are invalid requests Normalize must refuse.
var rejectedRequests = []Request{
	{Task: "frobnicate"},
	{Arch: "mainframe"},
	{Disks: -1},
	{Disks: MaxDisks + 1},
	{Scale: 1.5},
	{Scale: -0.1},
	{MemMB: -4},
	{MemMB: MaxMemMB + 1},
	{Scale: math.NaN()},
	{Task: "sort", Disks: 4, Scale: 1e-300}, // scaled byte count rounds to 0
	{ProcMode: "quantum"},
	{ProcMode: "goroutine"},
	{RingSpans: MaxRingSpans + 1},
	{RingSpans: -2},
	{FibreSwitch: -1},
	{Faults: "media=nonsense"},
}

func TestDistinctRequestsDistinctKeys(t *testing.T) {
	bs, err := distinctBase.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{bs.Key(): bs.Canonical()}
	for _, v := range distinctVariants {
		sp, err := v.Normalize()
		if err != nil {
			t.Fatalf("%+v: %v", v, err)
		}
		if prev, dup := seen[sp.Key()]; dup {
			t.Fatalf("key collision between %q and %q", prev, sp.Canonical())
		}
		seen[sp.Key()] = sp.Canonical()
	}
}

func TestNormalizeRejects(t *testing.T) {
	for _, r := range rejectedRequests {
		if _, err := r.Normalize(); err == nil {
			t.Errorf("Normalize(%+v) accepted an invalid request", r)
		}
	}
	// The retired goroutine mode names the modes that remain.
	_, err := Request{ProcMode: "goroutine"}.Normalize()
	if err == nil || !strings.Contains(err.Error(), "event") || !strings.Contains(err.Error(), "parallel") {
		t.Errorf("procmode goroutine: error %v does not name event and parallel", err)
	}
}

func TestScaledDataset(t *testing.T) {
	sp, err := Request{Task: "sort", Scale: 0.01}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	full := workload.ForTask(workload.Sort)
	if sp.Dataset.TotalBytes >= full.TotalBytes {
		t.Fatalf("scale 0.01 did not shrink the dataset: %d >= %d",
			sp.Dataset.TotalBytes, full.TotalBytes)
	}
	if !strings.Contains(sp.Canonical(), "scale=0.01") {
		t.Fatalf("canonical %q lacks the scale", sp.Canonical())
	}
}

// FuzzNormalize checks the request boundary every CLI and howsimd share:
// Normalize never panics, and a request it accepts normalizes to a
// fixed point — normalizing Spec.Req again yields the same canonical
// form, so one run never hashes to two cache keys — and a scale below 1
// really shrinks the dataset. The seeds are the requests the tests
// above accept and reject.
func FuzzNormalize(f *testing.F) {
	add := func(r Request) {
		f.Add(r.Task, r.Arch, r.Disks, r.MemMB, r.FastIO, r.FastDisk, r.FrontEndOnly,
			r.FibreSwitch, r.Scale, r.Faults, r.ProcMode, r.RingSpans, r.Breakdown)
	}
	add(Request{})
	add(distinctBase)
	for _, r := range distinctVariants {
		add(r)
	}
	for _, r := range rejectedRequests {
		add(r)
	}
	add(Request{Task: "sort", Arch: "cluster", Disks: 64, Scale: 0.05, Faults: " seed=42 , media=0.001 "})
	add(Request{Arch: "cluster", MemMB: 128, FrontEndOnly: true, FibreSwitch: 4})
	add(Request{FibreSwitch: 1})
	add(Request{Task: "select", Scale: math.SmallestNonzeroFloat64})
	f.Fuzz(func(t *testing.T, task, arch string, disks int, memMB int64, fastIO, fastDisk, feOnly bool,
		fibreSwitch int, scale float64, faults, procMode string, ringSpans int, breakdown bool) {
		r := Request{Task: task, Arch: arch, Disks: disks, MemMB: memMB, FastIO: fastIO,
			FastDisk: fastDisk, FrontEndOnly: feOnly, FibreSwitch: fibreSwitch, Scale: scale,
			Faults: faults, ProcMode: procMode, RingSpans: ringSpans, Breakdown: breakdown}
		sp, err := r.Normalize()
		if err != nil {
			return
		}
		again, err := sp.Req.Normalize()
		if err != nil {
			t.Fatalf("Normalize(%+v) accepted, but its normalized form %+v is rejected: %v", r, sp.Req, err)
		}
		if sp.Canonical() != again.Canonical() {
			t.Fatalf("Normalize(%+v) is not a fixed point:\n  %s\n  %s", r, sp.Canonical(), again.Canonical())
		}
		if full := workload.ForTask(sp.TaskID); sp.Req.Scale < 1 && sp.Dataset.TotalBytes >= full.TotalBytes {
			t.Fatalf("Normalize(%+v): scale %g ran the full %d-byte dataset", r, sp.Req.Scale, full.TotalBytes)
		}
	})
}
