package service

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// histBuckets is the number of power-of-two latency buckets: bucket i
// counts observations with latency ≤ 2^i microseconds; the final
// bucket is unbounded. 2^25 µs ≈ 33 s, comfortably past any request
// timeout worth serving.
const histBuckets = 26

// hist is a lock-free log2 latency histogram.
type hist struct {
	buckets [histBuckets + 1]atomic.Int64
	count   atomic.Int64
	sumUS   atomic.Int64
}

func (h *hist) observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	i := 0
	for bound := int64(1); i < histBuckets && us > bound; i++ {
		bound <<= 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumUS.Add(us)
}

// render appends the histogram as deterministic text lines. Only
// populated buckets are emitted; bounds are exact powers of two so the
// output is stable across runs for the same observations.
func (h *hist) render(b *strings.Builder, name string) {
	fmt.Fprintf(b, "latency_%s_count %d\n", name, h.count.Load())
	fmt.Fprintf(b, "latency_%s_sum_us %d\n", name, h.sumUS.Load())
	for i := 0; i <= histBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		if i == histBuckets {
			fmt.Fprintf(b, "latency_%s_le_inf %d\n", name, n)
		} else {
			fmt.Fprintf(b, "latency_%s_le_us %d %d\n", name, int64(1)<<i, n)
		}
	}
}

// Metrics aggregates service counters and latency histograms. All
// fields are atomics; Render produces the /statsz text in a fixed
// order so tests can assert it byte-for-byte.
type Metrics struct {
	SimRequests   atomic.Int64 // POST /v1/simulate received
	SweepRequests atomic.Int64 // POST /v1/sweep received
	BadRequests   atomic.Int64 // malformed or rejected by validation
	Rejected      atomic.Int64 // admission control: queue full → 429

	CacheHits   atomic.Int64 // served from the result cache
	CacheMisses atomic.Int64 // led a fresh simulation
	DedupJoins  atomic.Int64 // piggybacked on an in-flight identical run

	SimRuns   atomic.Int64 // simulations that ran to completion
	RunErrors atomic.Int64 // simulations that failed
	Cancelled atomic.Int64 // runs abandoned by cancellation or timeout

	simLatency   hist
	sweepLatency hist
}

func (m *Metrics) observeSim(d time.Duration)   { m.simLatency.observe(d) }
func (m *Metrics) observeSweep(d time.Duration) { m.sweepLatency.observe(d) }

// Render returns the /statsz body: one "name value" line per counter
// and gauge, then the latency histograms. The order is fixed and the
// values are integers, so identical state renders identical bytes.
func (m *Metrics) Render(queueDepth, inFlight, cacheEntries int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "requests_simulate %d\n", m.SimRequests.Load())
	fmt.Fprintf(&b, "requests_sweep %d\n", m.SweepRequests.Load())
	fmt.Fprintf(&b, "bad_requests %d\n", m.BadRequests.Load())
	fmt.Fprintf(&b, "rejected_busy %d\n", m.Rejected.Load())
	fmt.Fprintf(&b, "cache_hits %d\n", m.CacheHits.Load())
	fmt.Fprintf(&b, "cache_misses %d\n", m.CacheMisses.Load())
	fmt.Fprintf(&b, "dedup_joins %d\n", m.DedupJoins.Load())
	fmt.Fprintf(&b, "sim_runs %d\n", m.SimRuns.Load())
	fmt.Fprintf(&b, "run_errors %d\n", m.RunErrors.Load())
	fmt.Fprintf(&b, "cancelled %d\n", m.Cancelled.Load())
	fmt.Fprintf(&b, "cache_entries %d\n", cacheEntries)
	fmt.Fprintf(&b, "queue_depth %d\n", queueDepth)
	fmt.Fprintf(&b, "inflight %d\n", inFlight)
	m.simLatency.render(&b, "simulate")
	m.sweepLatency.render(&b, "sweep")
	return b.String()
}
