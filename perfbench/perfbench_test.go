package main

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"howsim/internal/runconfig"
)

func TestScheduleFollowsSeed(t *testing.T) {
	a, err := mixSchedule(7, 40)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := mixSchedule(7, 40)
	c, _ := mixSchedule(8, 40)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two different request schedules")
	}
	sameHot, sameFresh := true, true
	for blk := range a {
		for i := 0; i < min(len(a[blk]), len(c[blk])); i++ {
			same := string(a[blk][i].body) == string(c[blk][i].body)
			if a[blk][i].hot >= 0 {
				sameHot = sameHot && same
			} else {
				sameFresh = sameFresh && same
			}
		}
	}
	if sameHot || sameFresh {
		t.Errorf("seeds 7 and 8 share hot-key draws (%v) or fresh keys (%v)", sameHot, sameFresh)
	}
	if o := newRNG(7, streamOrder).perm(48); !reflect.DeepEqual(o, newRNG(7, streamOrder).perm(48)) {
		t.Error("one seed gave two different op orders")
	} else if reflect.DeepEqual(o, newRNG(8, streamOrder).perm(48)) {
		t.Error("seeds 7 and 8 gave the same op order")
	}
}

// TestScheduleKeys checks what the mix promises about its keys: every
// fresh key unique and never a hot key, one fresh key per block, each
// task × architecture once per variant, and a twin for every dup.
func TestScheduleKeys(t *testing.T) {
	const block = 40
	sched, err := mixSchedule(3, block)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != mixBlocks || mixBlocks != len(hotSet())*len(freshVariants) {
		t.Fatalf("%d blocks, want one per config and variant", len(sched))
	}
	hot := map[string]bool{}
	for _, h := range hotSet() {
		sp, _ := h.Normalize()
		hot[sp.Key()] = true
	}
	sent := map[string]int{}
	perPair := map[string]int{}
	for blk, reqs := range sched {
		fresh := 0
		for _, r := range reqs {
			sp, err := r.req.Normalize()
			if err != nil {
				t.Fatalf("request %+v: %v", r.req, err)
			}
			if (r.hot >= 0) != hot[sp.Key()] {
				t.Fatalf("request %+v: hot index %d but in hot set %v", r.req, r.hot, hot[sp.Key()])
			}
			if r.fresh < 0 {
				continue
			}
			if sent[sp.Key()]++; sent[sp.Key()] == 1 {
				fresh++
				perPair[r.req.Task+"/"+r.req.Arch+"/"+r.kind]++
			}
			if want := map[bool]int{true: 2, false: 1}[r.kind == "dup"]; sent[sp.Key()] > want {
				t.Errorf("fresh %s key %s sent %d times", r.kind, sp.Key(), sent[sp.Key()])
			}
		}
		// A dup's twin is the block's one extra request.
		if fresh != 1 || len(reqs) < block || len(reqs) > block+1 {
			t.Errorf("block %d: %d requests with %d fresh keys, want %d with one", blk, len(reqs), fresh, block)
		}
	}
	for _, h := range hotSet() {
		for _, v := range []string{"fault", "breakdown", "dup"} {
			want := 1
			if v == "dup" {
				want = 2
			}
			if got := perPair[h.Task+"/"+h.Arch+"/"+v]; got != want {
				t.Errorf("%s/%s as %s: %d fresh keys, want %d", h.Task, h.Arch, v, got, want)
			}
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {90, 4.6}, {99, 4.96}, {100, 5}} {
		if got := percentile(xs, c.p); abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// Per-pass p50s 3, 300 and 30; p90s 4.6, 460 and 46: the median pass
	// wins, however far a stalled pass strays.
	passes := [][]float64{{1, 3, 5}, {300, 100, 500}, {10, 30, 50}}
	for _, c := range []struct{ p, want float64 }{{50, 30}, {90, 46}} {
		if got := passPercentile(passes, c.p); abs(got-c.want) > 1e-9 {
			t.Errorf("passPercentile(%v, %v) = %v, want %v", passes, c.p, got, c.want)
		}
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25],
	// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75] and
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 3, 2, 1}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestGoldenRejectsFlippedByte(t *testing.T) {
	req := runconfig.Request{Task: "select", Arch: "active", Disks: 4, Scale: 0.001}
	sp, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	res, err := runGuarded(sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	key, err := goldenKey(req)
	if err != nil {
		t.Fatal(err)
	}
	text := render(res)
	golden := map[string]string{key: digest(text)}
	if err := checkGolden(golden, key, res); err != nil {
		t.Fatalf("the run's own digest was rejected: %v", err)
	}
	for _, i := range []int{0, len(text) / 2, len(text) - 1} {
		flipped := append([]byte(nil), text...)
		flipped[i] ^= 1
		if digest(flipped) == golden[key] {
			t.Errorf("flipping byte %d of the rendered run left its digest unchanged", i)
		}
	}
	res.Details["loop_bytes"]++
	if checkGolden(golden, key, res) == nil {
		t.Error("a run with a changed detail passed the golden check")
	}
	body := []byte(`{"key":"abc","elapsed_seconds":1.5}` + "\n")
	bad := append([]byte(nil), body...)
	bad[10] ^= 1
	if sameBody(bad, body) == nil {
		t.Error("a body with a flipped byte matched its reference")
	}
}

// TestGoldenCoversEveryConfig guards against a stale golden.txt.
func TestGoldenCoversEveryConfig(t *testing.T) {
	golden, err := loadGolden("golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range append(append(gridConfigs(), shardConfigs()...), shardComparisons()...) {
		key, err := goldenKey(req)
		if err != nil {
			t.Fatal(err)
		}
		if golden[key] == "" {
			t.Errorf("no golden digest for %s", key)
		}
	}
}

// TestClosedLoop checks that every request is sent once, by at most
// `clients` clients at a time, and is timed from its own send.
func TestClosedLoop(t *testing.T) {
	const service = 40 * time.Millisecond
	var mu sync.Mutex
	sends, busy, peak := make([]int, 4), 0, 0
	lat, gap, wall := closedLoop(4, 2, func(i int) {
		mu.Lock()
		sends[i]++
		busy++
		peak = max(peak, busy)
		mu.Unlock()
		time.Sleep(service)
		mu.Lock()
		busy--
		mu.Unlock()
	})
	if !reflect.DeepEqual(sends, []int{1, 1, 1, 1}) || peak != 2 {
		t.Fatalf("sends per request %v, peak concurrency %d; want each once, peak 2", sends, peak)
	}
	for i := range lat {
		// The last two requests wait for a free client; that wait is not
		// part of their latency.
		if lat[i] < service || lat[i] > service+30*time.Millisecond {
			t.Errorf("request %d: latency %v, want about %v", i, lat[i], service)
		}
		if gap[i] > 10*time.Millisecond {
			t.Errorf("request %d: client idled %v before sending it", i, gap[i])
		}
	}
	if wall < 2*service {
		t.Errorf("wall %v: four %v requests on two clients take at least %v", wall, service, 2*service)
	}
}

func TestPackageShares(t *testing.T) {
	p, err := startProfile()
	if err != nil {
		t.Skip("CPU profile unavailable:", err)
	}
	x := 0
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		x += spin(10000)
	}
	shares, samples, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Skipf("no samples (x=%d)", x)
	}
	sum := 0.0
	for _, s := range shares {
		sum += s
	}
	pkg := funcPackage(runtime.FuncForPC(reflect.ValueOf(spin).Pointer()).Name())
	if abs(sum-1) > 1e-9 || shares[pkg] == 0 {
		t.Errorf("shares %v: want them to sum to 1 with a share for %s", shares, pkg)
	}
}

//go:noinline
func spin(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i * i
	}
	return s
}

func TestFuncPackage(t *testing.T) {
	for name, want := range map[string]string{
		"howsim/internal/sim.(*Kernel).Run":                   "howsim/internal/sim",
		"runtime.mallocgc":                                    "runtime",
		"net/http.(*conn).serve.func1":                        "net/http",
		"howsim/internal/sim.fifo[go.shape.*howsim/x.T].push": "howsim/internal/sim",
		"main.spin": "main",
	} {
		if got := funcPackage(name); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", name, got, want)
		}
	}
}
