package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"howsim/internal/runconfig"
)

// postJSON issues a POST with a JSON body and returns status, body,
// and the cache-disposition header.
func postJSON(t *testing.T, client *http.Client, url, body string) (int, []byte, string) {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, b, resp.Header.Get("X-Howsim-Cache")
}

// stubBody renders a deterministic fake response body for a spec, in
// the real SimResponse shape so sweep can decode it.
func stubBody(sp *runconfig.Spec) []byte {
	b, _ := json.Marshal(SimResponse{
		Key:            sp.Key(),
		Config:         sp.Canonical(),
		Task:           sp.Req.Task,
		Arch:           sp.Req.Arch,
		Disks:          sp.Req.Disks,
		ElapsedSeconds: 100.0 / float64(sp.Req.Disks),
	})
	return append(b, '\n')
}

// TestDedupRunsOnce floods the server with concurrent identical
// requests and checks exactly one simulation executes, every response
// is byte-identical, and the cache/dedup accounting is exact.
func TestDedupRunsOnce(t *testing.T) {
	const M = 16
	var runs atomic.Int64
	release := make(chan struct{})
	s := New(Config{Workers: 2, QueueDepth: 32})
	defer s.Close()
	s.run = func(ctx context.Context, sp *runconfig.Spec) ([]byte, error) {
		runs.Add(1)
		<-release // hold the run until every request has joined
		return stubBody(sp), nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"task":"select","arch":"active","disks":8}`
	var wg sync.WaitGroup
	statuses := make([]int, M)
	bodies := make([][]byte, M)
	sources := make([]string, M)
	for i := 0; i < M; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], bodies[i], sources[i] = postJSON(t, ts.Client(), ts.URL+"/v1/simulate", body)
		}(i)
	}
	// Release the run only after all M requests are accounted for: one
	// leader (cache miss) plus M-1 dedup joins.
	deadline := time.Now().Add(5 * time.Second)
	for s.metrics.CacheMisses.Load()+s.metrics.DedupJoins.Load() < M {
		if time.Now().After(deadline) {
			t.Fatalf("requests never all joined: misses=%d joins=%d",
				s.metrics.CacheMisses.Load(), s.metrics.DedupJoins.Load())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("simulation ran %d times, want exactly 1", got)
	}
	var nMiss, nDedup int
	for i := 0; i < M; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, statuses[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
		switch sources[i] {
		case "miss":
			nMiss++
		case "dedup":
			nDedup++
		default:
			t.Fatalf("request %d: unexpected cache disposition %q", i, sources[i])
		}
	}
	if nMiss != 1 || nDedup != M-1 {
		t.Fatalf("dispositions: %d miss / %d dedup, want 1 / %d", nMiss, nDedup, M-1)
	}

	// The result is now cached: one more identical request is a hit with
	// the same bytes and no new run.
	st, b, src := postJSON(t, ts.Client(), ts.URL+"/v1/simulate", body)
	if st != http.StatusOK || src != "hit" || !bytes.Equal(b, bodies[0]) {
		t.Fatalf("warm request: status=%d source=%q identical=%v", st, src, bytes.Equal(b, bodies[0]))
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("warm hit re-ran the simulation: %d runs", got)
	}
}

// TestDistinctRequestsDistinctKeys checks two different configs do not
// false-share a cache key or an in-flight run.
func TestDistinctRequestsDistinctKeys(t *testing.T) {
	var runs atomic.Int64
	s := New(Config{Workers: 2, QueueDepth: 8})
	defer s.Close()
	s.run = func(ctx context.Context, sp *runconfig.Spec) ([]byte, error) {
		runs.Add(1)
		return stubBody(sp), nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, b4, _ := postJSON(t, ts.Client(), ts.URL+"/v1/simulate", `{"task":"select","arch":"active","disks":4}`)
	_, b8, _ := postJSON(t, ts.Client(), ts.URL+"/v1/simulate", `{"task":"select","arch":"active","disks":8}`)
	if bytes.Equal(b4, b8) {
		t.Fatalf("distinct configs produced identical bodies: %s", b4)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("runs = %d, want 2", got)
	}
}

// TestQueueFullRejects fills the single worker and the single queue
// slot, then checks the next request is rejected immediately with 429
// and a Retry-After hint — admission control, not pile-up.
func TestQueueFullRejects(t *testing.T) {
	release := make(chan struct{})
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Close()
	s.run = func(ctx context.Context, sp *runconfig.Spec) ([]byte, error) {
		<-release
		return stubBody(sp), nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	results := make(chan int, 2)
	for _, disks := range []int{2, 4} {
		body := fmt.Sprintf(`{"task":"select","arch":"active","disks":%d}`, disks)
		go func() {
			st, _, _ := postJSON(t, ts.Client(), ts.URL+"/v1/simulate", body)
			results <- st
		}()
	}
	// Wait until one job occupies the worker and one sits in the queue.
	deadline := time.Now().Add(5 * time.Second)
	for s.pool.inFlight() != 1 || s.pool.queueDepth() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("pool never saturated: inflight=%d queue=%d", s.pool.inFlight(), s.pool.queueDepth())
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := ts.Client().Post(ts.URL+"/v1/simulate", "application/json",
		strings.NewReader(`{"task":"select","arch":"active","disks":16}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated service returned %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After header")
	}
	if got := s.metrics.Rejected.Load(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if st := <-results; st != http.StatusOK {
			t.Fatalf("admitted request finished with status %d", st)
		}
	}
}

// TestCancellationFreesWorker cancels the only client of an in-flight
// run and checks the run context is cancelled (the worker is
// reclaimed) and a later identical request starts a fresh run instead
// of joining the abandoned one.
func TestCancellationFreesWorker(t *testing.T) {
	var runs atomic.Int64
	started := make(chan struct{})
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Close()
	s.run = func(ctx context.Context, sp *runconfig.Spec) ([]byte, error) {
		if runs.Add(1) == 1 {
			close(started)
			<-ctx.Done() // first run blocks until cancellation reclaims it
			return nil, ctx.Err()
		}
		return stubBody(sp), nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/simulate",
		strings.NewReader(`{"task":"select","arch":"active","disks":8}`))
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	// Cancel only once the run is inside s.run: a worker counts a job
	// in flight before it checks the job's context, so cancelling
	// between the two skips the run, and the fresh request below would
	// then be the first run and block.
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatalf("run never started")
	}
	cancel()
	if err := <-errc; err == nil {
		t.Fatalf("cancelled request returned without error")
	}
	// The client returns as soon as it cancels, but the server sees the
	// closed connection a moment later; until then the call is still
	// joinable, and the fresh request below would wait on it as a
	// follower. Wait until no call is in flight.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		s.flight.mu.Lock()
		n := len(s.flight.m)
		s.flight.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the cancelled call is still in flight")
		}
	}

	// The worker must come free: a fresh identical request gets its own
	// run (the abandoned call is not joinable) and completes.
	st, _, src := postJSON(t, ts.Client(), ts.URL+"/v1/simulate", `{"task":"select","arch":"active","disks":8}`)
	if st != http.StatusOK {
		t.Fatalf("post-cancel request: status %d", st)
	}
	if src != "miss" {
		t.Fatalf("post-cancel request disposition %q, want a fresh miss", src)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("runs = %d, want 2 (one abandoned, one fresh)", got)
	}
	if got := s.metrics.Cancelled.Load(); got != 1 {
		t.Fatalf("cancelled counter = %d, want 1", got)
	}
}

// TestSweepComposesCache checks a sweep runs one simulation per size,
// computes speedups against the smallest size, and a repeat sweep is
// served entirely from cache.
func TestSweepComposesCache(t *testing.T) {
	var runs atomic.Int64
	s := New(Config{Workers: 2, QueueDepth: 8})
	defer s.Close()
	s.run = func(ctx context.Context, sp *runconfig.Spec) ([]byte, error) {
		runs.Add(1)
		return stubBody(sp), nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"task":"select","arch":"active","sizes":[2,4,8]}`
	st, b, _ := postJSON(t, ts.Client(), ts.URL+"/v1/sweep", body)
	if st != http.StatusOK {
		t.Fatalf("sweep: status %d, body %s", st, b)
	}
	var resp SweepResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatalf("decode sweep: %v", err)
	}
	if len(resp.Rows) != 3 || runs.Load() != 3 {
		t.Fatalf("rows=%d runs=%d, want 3/3", len(resp.Rows), runs.Load())
	}
	// stubBody's elapsed is 100/disks, so speedup at size n is n/2.
	for i, want := range []float64{1, 2, 4} {
		if resp.Rows[i].Speedup != want {
			t.Errorf("row %d speedup = %g, want %g", i, resp.Rows[i].Speedup, want)
		}
	}

	st, b2, _ := postJSON(t, ts.Client(), ts.URL+"/v1/sweep", body)
	if st != http.StatusOK {
		t.Fatalf("warm sweep: status %d", st)
	}
	if !bytes.Equal(b, b2) {
		t.Fatalf("warm sweep body differs from cold:\n%s\nvs\n%s", b, b2)
	}
	if got := runs.Load(); got != 3 {
		t.Fatalf("warm sweep re-ran simulations: %d runs", got)
	}
	var hits int64 = 3
	if got := s.metrics.CacheHits.Load(); got != hits {
		t.Fatalf("cache hits = %d, want %d", got, hits)
	}
}

// TestBadRequests checks malformed and over-budget requests are
// rejected before touching the pool.
func TestBadRequests(t *testing.T) {
	s := New(Config{MaxRingSpans: 2, MaxScale: 0.5})
	defer s.Close()
	s.run = func(ctx context.Context, sp *runconfig.Spec) ([]byte, error) {
		t.Errorf("run invoked for a rejected request: %s", sp.Canonical())
		return stubBody(sp), nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []string{
		`{"task":"select","arch":"warp"}`,          // unknown arch
		`{"task":"levitate"}`,                      // unknown task
		`{"task":"select","bogus":true}`,           // unknown field
		`not json`,                                 // malformed
		`{"task":"select","ring_spans":4}`,         // over the server's span budget
		`{"task":"select","scale":0.9}`,            // over the server's scale budget
		`{"task":"select","disks":-1}`,             // invalid disks
		`{"task":"select","procmode":"goroutine"}`, // retired exec mode
	} {
		st, _, _ := postJSON(t, ts.Client(), ts.URL+"/v1/simulate", tc)
		if st != http.StatusBadRequest {
			t.Errorf("request %s: status %d, want 400", tc, st)
		}
	}
	if got := s.metrics.BadRequests.Load(); got != 8 {
		t.Fatalf("bad request counter = %d, want 8", got)
	}
}

// TestDrain checks Close flips health, refuses new work, and lets
// admitted work finish.
func TestDrain(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	s.run = func(ctx context.Context, sp *runconfig.Spec) ([]byte, error) {
		return stubBody(sp), nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if st, _, _ := postJSON(t, ts.Client(), ts.URL+"/v1/simulate", `{"task":"select"}`); st != http.StatusOK {
		t.Fatalf("pre-drain simulate: status %d", st)
	}
	resp, _ := ts.Client().Get(ts.URL + "/healthz")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain healthz: %d", resp.StatusCode)
	}

	s.Close()
	resp, _ = ts.Client().Get(ts.URL + "/healthz")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: %d, want 503", resp.StatusCode)
	}
	// Cached results are still served during drain; new work is not.
	if st, _, src := postJSON(t, ts.Client(), ts.URL+"/v1/simulate", `{"task":"select"}`); st != http.StatusOK || src != "hit" {
		t.Fatalf("draining cached simulate: status %d source %q", st, src)
	}
	if st, _, _ := postJSON(t, ts.Client(), ts.URL+"/v1/simulate", `{"task":"sort"}`); st != http.StatusServiceUnavailable {
		t.Fatalf("draining fresh simulate: status %d, want 503", st)
	}
	s.Close() // idempotent
}

// TestLRUEviction checks the cache is bounded and evicts in LRU order.
func TestLRUEviction(t *testing.T) {
	c := newLRU(2)
	c.Add("a", []byte("A"))
	c.Add("b", []byte("B"))
	if _, ok := c.Get("a"); !ok { // promote a; b is now LRU
		t.Fatal("a missing")
	}
	c.Add("c", []byte("C"))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted out of LRU order")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
}

// TestMetricsRenderDeterministic checks /statsz output is stable:
// identical state renders identical bytes in a fixed line order.
func TestMetricsRenderDeterministic(t *testing.T) {
	m := &Metrics{}
	m.SimRequests.Store(5)
	m.CacheHits.Store(2)
	m.CacheMisses.Store(3)
	m.SimRuns.Store(3)
	m.observeSim(3 * time.Microsecond)   // ≤4µs bucket
	m.observeSim(3 * time.Microsecond)   // same bucket
	m.observeSim(100 * time.Microsecond) // ≤128µs bucket
	want := "requests_simulate 5\n" +
		"requests_sweep 0\n" +
		"bad_requests 0\n" +
		"rejected_busy 0\n" +
		"cache_hits 2\n" +
		"cache_misses 3\n" +
		"dedup_joins 0\n" +
		"sim_runs 3\n" +
		"run_errors 0\n" +
		"cancelled 0\n" +
		"cache_entries 3\n" +
		"queue_depth 0\n" +
		"inflight 1\n" +
		"latency_simulate_count 3\n" +
		"latency_simulate_sum_us 106\n" +
		"latency_simulate_le_us 4 2\n" +
		"latency_simulate_le_us 128 1\n" +
		"latency_sweep_count 0\n" +
		"latency_sweep_sum_us 0\n"
	got := m.Render(0, 1, 3)
	if got != want {
		t.Fatalf("render mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if again := m.Render(0, 1, 3); again != got {
		t.Fatalf("render is not stable across calls")
	}
}

// TestRealRunnerByteIdentity exercises the actual simulator through
// the service: a cold run, a warm hit, and a fresh server instance all
// produce byte-identical responses for the same config — the
// determinism contract that makes caching sound.
func TestRealRunnerByteIdentity(t *testing.T) {
	body := `{"task":"select","arch":"active","disks":4,"scale":0.002,"breakdown":true}`

	run := func() []byte {
		s := New(Config{Workers: 1, QueueDepth: 4, MaxScale: 1})
		defer s.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		stCold, cold, srcCold := postJSON(t, ts.Client(), ts.URL+"/v1/simulate", body)
		if stCold != http.StatusOK {
			t.Fatalf("cold run: status %d, body %s", stCold, cold)
		}
		if srcCold != "miss" {
			t.Fatalf("cold run disposition %q, want miss", srcCold)
		}
		stWarm, warm, srcWarm := postJSON(t, ts.Client(), ts.URL+"/v1/simulate", body)
		if stWarm != http.StatusOK || srcWarm != "hit" {
			t.Fatalf("warm run: status %d disposition %q", stWarm, srcWarm)
		}
		if !bytes.Equal(cold, warm) {
			t.Fatalf("warm body differs from cold:\n%s\nvs\n%s", cold, warm)
		}
		return cold
	}

	first := run()
	second := run()
	if !bytes.Equal(first, second) {
		t.Fatalf("fresh server produced different bytes for the same config:\n%s\nvs\n%s", first, second)
	}
	var resp SimResponse
	if err := json.Unmarshal(first, &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.ElapsedSeconds <= 0 || resp.Breakdown == "" {
		t.Fatalf("implausible response: elapsed=%g breakdown=%d bytes", resp.ElapsedSeconds, len(resp.Breakdown))
	}
}
