package fault

import (
	"strings"
	"testing"

	"howsim/internal/sim"
)

func TestParsePlanRoundTrip(t *testing.T) {
	const in = "seed=42,media=0.001,slow=0.0005,slowby=50ms,fail=3@2s,replica,outage=fcal0@1s+200ms"
	p, err := ParsePlan(in)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 42 || p.MediaRate != 0.001 || p.SlowRate != 0.0005 {
		t.Errorf("parsed rates wrong: %+v", p)
	}
	if p.SlowBy != 50*sim.Millisecond {
		t.Errorf("SlowBy = %v, want 50ms", p.SlowBy)
	}
	if p.FailDisk != 3 || p.FailAt != 2*sim.Second {
		t.Errorf("fail = %d@%v, want 3@2s", p.FailDisk, p.FailAt)
	}
	if !p.Replica {
		t.Error("replica not set")
	}
	if len(p.Outages) != 1 || p.Outages[0].Name != "fcal0" ||
		p.Outages[0].Window != (Window{Start: sim.Second, End: sim.Second + 200*sim.Millisecond}) {
		t.Errorf("outages = %+v", p.Outages)
	}
	// The canonical rendering must itself parse back to an equal plan.
	q, err := ParsePlan(p.String())
	if err != nil {
		t.Fatalf("canonical form does not re-parse: %v", err)
	}
	if q.String() != p.String() {
		t.Errorf("round trip changed the plan:\n  %s\n  %s", p.String(), q.String())
	}
}

func TestParsePlanEmpty(t *testing.T) {
	p, err := ParsePlan("")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Empty() {
		t.Errorf("empty string parsed to non-empty plan %+v", p)
	}
	if p.DiskInjector(0) != nil {
		t.Error("empty plan handed out a disk injector")
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, bad := range []string{
		"seed=x", "media=2", "slow=-1", "slowby=banana",
		"fail=3", "fail=-1@2s", "outage=fcal0", "outage=fcal0@1s",
		"replica=no", "wibble=1",
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted invalid input", bad)
		}
	}
}

func TestPlanStringCanonicalOrder(t *testing.T) {
	p := NewPlan(7)
	p.Outages = []LinkOutage{
		{Name: "zeta", Window: Window{Start: sim.Second, End: 2 * sim.Second}},
		{Name: "alpha", Window: Window{Start: 3 * sim.Second, End: 4 * sim.Second}},
		{Name: "alpha", Window: Window{Start: sim.Second, End: 2 * sim.Second}},
	}
	s := p.String()
	if !strings.Contains(s, "outage=alpha@1s+1s,outage=alpha@3s+1s,outage=zeta@1s+1s") {
		t.Errorf("outages not canonically sorted: %s", s)
	}
}

func TestInjectorDeterminism(t *testing.T) {
	p, err := ParsePlan("seed=99,media=0.01,slow=0.005")
	if err != nil {
		t.Fatal(err)
	}
	a, b := p.DiskInjector(4), p.DiskInjector(4)
	if a == nil || b == nil {
		t.Fatal("plan with media faults returned nil injector")
	}
	var faults int
	for seq := int64(1); seq <= 10_000; seq++ {
		s1, r1 := a.RequestFault(seq)
		s2, r2 := b.RequestFault(seq)
		if s1 != s2 || r1 != r2 {
			t.Fatalf("injectors for the same identity disagree at seq %d", seq)
		}
		if r1 < 0 || r1 > 8 {
			t.Fatalf("retry count %d outside [0, 8]", r1)
		}
		if s1 != 0 && s1 != p.SlowBy {
			t.Fatalf("slowBy = %v, want 0 or %v", s1, p.SlowBy)
		}
		if r1 > 0 || s1 > 0 {
			faults++
		}
	}
	// ~0.015 of 10k requests should fault; allow a wide deterministic band.
	if faults < 50 || faults > 500 {
		t.Errorf("fault count %d implausible for rates 0.01+0.005 over 10k requests", faults)
	}
}

func TestInjectorVariesWithSeedAndDisk(t *testing.T) {
	p1, _ := ParsePlan("seed=1,media=0.01")
	p2, _ := ParsePlan("seed=2,media=0.01")
	same, diffSeed, diffDisk := 0, 0, 0
	const n = 4096
	for seq := int64(1); seq <= n; seq++ {
		_, a := p1.DiskInjector(0).RequestFault(seq)
		_, b := p2.DiskInjector(0).RequestFault(seq)
		_, c := p1.DiskInjector(1).RequestFault(seq)
		if a > 0 {
			same++
		}
		if b > 0 {
			diffSeed++
		}
		if c > 0 {
			diffDisk++
		}
		_ = b
	}
	if same == 0 {
		t.Fatal("no faults at media=0.01 over 4096 requests")
	}
	// The schedules must not be identical across seeds or disks; compare
	// the actual fault positions, not just counts.
	identical := func(qa, qb *DiskInjector) bool {
		for seq := int64(1); seq <= n; seq++ {
			_, x := qa.RequestFault(seq)
			_, y := qb.RequestFault(seq)
			if (x > 0) != (y > 0) {
				return false
			}
		}
		return true
	}
	if identical(p1.DiskInjector(0), p2.DiskInjector(0)) {
		t.Error("different seeds produced identical fault schedules")
	}
	if identical(p1.DiskInjector(0), p1.DiskInjector(1)) {
		t.Error("different disks produced identical fault schedules")
	}
}

func TestFailureTime(t *testing.T) {
	p, _ := ParsePlan("fail=2@1s")
	if in := p.DiskInjector(3); in != nil {
		if _, ok := in.FailureTime(); ok {
			t.Error("disk 3 reports a failure time for a plan failing disk 2")
		}
	}
	in := p.DiskInjector(2)
	if in == nil {
		t.Fatal("failing disk got no injector")
	}
	ft, ok := in.FailureTime()
	if !ok || ft != sim.Second {
		t.Errorf("FailureTime = (%v, %v), want (1s, true)", ft, ok)
	}
}

func TestOutagesFor(t *testing.T) {
	p, _ := ParsePlan("outage=l@2s+1s,outage=l@0s+500ms,outage=other@1s+1s")
	ws := p.OutagesFor("l")
	if len(ws) != 2 || ws[0].Start != 0 || ws[1].Start != 2*sim.Second {
		t.Errorf("OutagesFor(l) = %+v, want two windows in start order", ws)
	}
	if got := p.OutagesFor("missing"); got != nil {
		t.Errorf("OutagesFor(missing) = %+v, want nil", got)
	}
	if !ws[0].Contains(100 * sim.Millisecond) {
		t.Error("window does not contain an interior point")
	}
	if ws[0].Contains(500 * sim.Millisecond) {
		t.Error("window contains its half-open end")
	}
}

func TestParsePlanErrorsTable(t *testing.T) {
	// Hardened validation: every rejection must say what is wrong and
	// what to do about it, not just "parse error".
	for _, tc := range []struct {
		in   string
		want string // substring the error must contain
	}{
		{"media=1.5", "outside [0,1]"},
		{"slow=2", "outside [0,1]"},
		{"corrupt=-0.1", "outside [0,1]"},
		{"corrupt=1.01", "outside [0,1]"},
		{"slowby=-5ms", "negative duration"},
		{"fail=1@-2s", "negative duration"},
		{"outage=l@1s+0s", "positive"},
		{"outage=l@1s+-1s", "positive"},
		{"straggler=0@1s", "DISK@START+DUR*FACTOR"},
		{"straggler=0@1s+0s", "positive"},
		{"straggler=0@1s+10ms*1", "must be > 1"},
		{"straggler=0@1s+10ms*0.5", "must be > 1"},
		{"straggler=-1@1s+10ms", "straggler disk"},
		{"media=0.1,media=0.2", "duplicate media"},
		{"seed=1,seed=1", "duplicate seed"},
		{"replica,replica", "duplicate replica"},
		{"straggler=0@1s+10ms*2,straggler=0@1s+10ms*2", "duplicate clause"},
		{"outage=l@1s+1s,outage=l@1s+1s", "duplicate clause"},
		// Equal windows spelled differently are duplicates too.
		{"outage=0@0+01s,outage=0@0++1s", "duplicate clause"},
		{"outage=l@1s+1s,outage=l@1000ms+1s", "duplicate clause"},
		{"straggler=0@1s+10ms,straggler=0@1s+10ms*2", "duplicate clause"},
		{"spare", "spare needs a replica"},
		{"spare,replica", "spare needs a replica"},
		{"spare,fail=1@1s", "spare needs a replica"},
		{"replica,spare,fail=1@1s,rebuild-rate=0", "positive MB/s"},
		{"replica,spare,fail=1@1s,rebuild-rate=-5", "positive MB/s"},
		{"replica,spare,fail=1@1s,rebuild-rate=fast", "positive MB/s"},
		{"rebuild-rate=10", "needs one to pace"},
		{"replica,fail=1@1s,rebuild-rate=10", "needs one to pace"},
		{"replica,spare,fail=1@1s,rebuild-rate=10,rebuild-rate=20", "duplicate rebuild-rate"},
	} {
		_, err := ParsePlan(tc.in)
		if err == nil {
			t.Errorf("ParsePlan(%q) accepted invalid input", tc.in)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParsePlan(%q) error %q does not mention %q", tc.in, err, tc.want)
		}
	}
	// Distinct straggler/outage windows are not duplicates.
	for _, ok := range []string{
		"straggler=0@1s+10ms*2,straggler=0@2s+10ms*2",
		"straggler=0@1s+10ms*2,straggler=1@1s+10ms*2",
		"outage=l@1s+1s,outage=l@3s+1s",
		"seed=5,replica,spare,fail=2@1s",
		"seed=5,replica,spare,fail=2@1s,rebuild-rate=12.5",
	} {
		if _, err := ParsePlan(ok); err != nil {
			t.Errorf("ParsePlan(%q) rejected valid input: %v", ok, err)
		}
	}
}

func TestParsePlanNewKeysRoundTrip(t *testing.T) {
	const in = "seed=9,corrupt=0.004,fail=2@1s,replica,spare,straggler=1@5ms+30ms*3,straggler=0@1ms+2ms"
	p, err := ParsePlan(in)
	if err != nil {
		t.Fatal(err)
	}
	if p.CorruptRate != 0.004 {
		t.Errorf("CorruptRate = %v, want 0.004", p.CorruptRate)
	}
	if !p.Spare {
		t.Error("spare not set")
	}
	if len(p.Stragglers) != 2 {
		t.Fatalf("got %d stragglers, want 2", len(p.Stragglers))
	}
	ss := p.StragglersFor(1)
	if len(ss) != 1 || ss[0].Factor != 3 || ss[0].Window.Duration() != 30*sim.Millisecond {
		t.Errorf("StragglersFor(1) = %+v", ss)
	}
	if ss0 := p.StragglersFor(0); len(ss0) != 1 || ss0[0].Factor != 2 {
		t.Errorf("default straggler factor: %+v", ss0)
	}
	q, err := ParsePlan(p.String())
	if err != nil {
		t.Fatalf("canonical form does not re-parse: %v", err)
	}
	if q.String() != p.String() {
		t.Errorf("round trip changed the plan:\n  %s\n  %s", p.String(), q.String())
	}
}

func TestParsePlanRebuildRate(t *testing.T) {
	const in = "seed=3,fail=1@1s,replica,spare,rebuild-rate=12.5"
	p, err := ParsePlan(in)
	if err != nil {
		t.Fatal(err)
	}
	if p.RebuildRate != 12.5 {
		t.Errorf("RebuildRate = %v, want 12.5", p.RebuildRate)
	}
	// 12.5 MB/s moves 1 MB in 80 ms.
	if got := p.RebuildChunkTime(1_000_000); got != 80*sim.Millisecond {
		t.Errorf("RebuildChunkTime(1MB) = %v, want 80ms", got)
	}
	// Unthrottled plans demand no chunk time at all.
	q, err := ParsePlan("seed=3,fail=1@1s,replica,spare")
	if err != nil {
		t.Fatal(err)
	}
	if got := q.RebuildChunkTime(1_000_000); got != 0 {
		t.Errorf("unthrottled RebuildChunkTime = %v, want 0", got)
	}
	if got := (*Plan)(nil).RebuildChunkTime(1_000_000); got != 0 {
		t.Errorf("nil-plan RebuildChunkTime = %v, want 0", got)
	}
	// The canonical rendering carries the rate and re-parses to an equal
	// plan.
	if !strings.Contains(p.String(), "rebuild-rate=12.5") {
		t.Errorf("String() dropped rebuild-rate: %s", p.String())
	}
	r, err := ParsePlan(p.String())
	if err != nil {
		t.Fatalf("canonical form does not re-parse: %v", err)
	}
	if r.String() != p.String() {
		t.Errorf("round trip changed the plan:\n  %s\n  %s", p.String(), r.String())
	}
}

func TestCorruptionFaultDeterminism(t *testing.T) {
	p, err := ParsePlan("seed=13,corrupt=0.01")
	if err != nil {
		t.Fatal(err)
	}
	a, b := p.DiskInjector(2), p.DiskInjector(2)
	if a == nil || b == nil {
		t.Fatal("plan with corrupt faults returned nil injector")
	}
	var hits int
	for seq := int64(1); seq <= 10_000; seq++ {
		x, y := a.CorruptionFault(seq), b.CorruptionFault(seq)
		if x != y {
			t.Fatalf("injectors for the same identity disagree at seq %d", seq)
		}
		if x < 0 || x > 8 {
			t.Fatalf("reread count %d outside [0, 8]", x)
		}
		if x > 0 {
			hits++
		}
	}
	if hits < 30 || hits > 300 {
		t.Errorf("corruption count %d implausible for rate 0.01 over 10k reads", hits)
	}
	// Corruption draws must be independent of the media-error stream:
	// the same seed with media instead of corrupt faults differently.
	m, _ := ParsePlan("seed=13,media=0.01")
	var overlap, mediaHits int
	for seq := int64(1); seq <= 10_000; seq++ {
		_, r := m.DiskInjector(2).RequestFault(seq)
		if r > 0 {
			mediaHits++
			if a.CorruptionFault(seq) > 0 {
				overlap++
			}
		}
	}
	if mediaHits > 0 && overlap == mediaHits {
		t.Error("corruption schedule is identical to the media-error schedule")
	}
}

// FuzzParsePlan feeds arbitrary text to the plan grammar: ParsePlan
// must never panic, and every plan it accepts must reach a fixed point
// in one parse→String→parse round trip, so a plan's canonical spelling
// (the form runconfig folds cache keys to) is stable. The seeds are the
// plans the execution-mode equivalence tests run.
func FuzzParsePlan(f *testing.F) {
	for _, s := range []string{
		"",
		"seed=42,media=0.002,slow=0.001,fail=3@50ms,replica",
		"seed=7,media=0.004,slow=0.002,corrupt=0.003",
		"seed=9,fail=2@10ms",
		"seed=11,straggler=1@5ms+30ms*3,outage=fcal0@8ms+2ms",
		"seed=42,media=0.001,slow=0.0005,slowby=50ms,fail=3@2s,replica,outage=fcal0@1s+200ms",
		"seed=9,corrupt=0.004,fail=2@1s,replica,spare,straggler=1@5ms+30ms*3,straggler=0@1ms+2ms",
		"seed=5,replica,spare,fail=2@1s,rebuild-rate=12.5",
		"outage=l@2s+1s,outage=l@0s+500ms,outage=other@1s+1s",
		// The six plans `go run ./scripts/chaossweep -seed 1 -runs 6`
		// draws: long float factors, several stragglers, spare.
		"seed=10451216379200822465,corrupt=0.008885294016527162",
		"seed=2909030486109283042,media=0.018255209300435553",
		"seed=9270549306107844495,media=0.016468986242408397,slow=0.011957247701389959,slowby=51ms,fail=0@185ms,replica,spare,straggler=0@296ms+91ms*7.187637996370663,straggler=2@87ms+20ms*4.285467880884896,outage=node2.pci@32ms+33ms",
		"seed=12946170323757813891,slow=0.008090689691598534,slowby=16ms,corrupt=0.005206865455595388,fail=3@61ms,replica,spare,straggler=0@239ms+41ms*6.860484001144605,outage=fcal1@94ms+10ms",
		"seed=17962304276763112205,media=0.007861966962810624,slow=0.019616074731428106,slowby=10ms,corrupt=0.007657354423262399,fail=2@54ms,replica,outage=fcal0@7ms+37ms",
		"seed=14927003096697543694,media=0.011645612782178088,slow=0.007942644957638537,slowby=20ms,corrupt=0.011681336639423499,fail=3@157ms,replica,spare,straggler=0@144ms+10ms*3.278561897580997,straggler=1@140ms+59ms*4.769967865745555",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		p, err := ParsePlan(in)
		if err != nil {
			return
		}
		canon := p.String()
		q, err := ParsePlan(canon)
		if err != nil {
			t.Fatalf("ParsePlan(%q) accepted, but its canonical form %q does not re-parse: %v", in, canon, err)
		}
		if again := q.String(); again != canon {
			t.Fatalf("ParsePlan(%q): canonical form is not a fixed point:\n  %s\n  %s", in, canon, again)
		}
	})
}
