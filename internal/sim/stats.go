package sim

// Breakdown accumulates named buckets of virtual time — the mechanism
// behind per-phase execution-time breakdowns such as the paper's
// Figure 3 (partitioner / append / sort / idle, merge / idle).
type Breakdown struct {
	buckets map[string]Time
	order   []string
}

// NewBreakdown returns an empty breakdown.
func NewBreakdown() *Breakdown {
	return &Breakdown{buckets: make(map[string]Time)}
}

// Add accumulates d into the named bucket.
func (b *Breakdown) Add(name string, d Time) {
	if _, ok := b.buckets[name]; !ok {
		b.order = append(b.order, name)
	}
	b.buckets[name] += d
}

// Get returns the accumulated time in a bucket (zero if absent).
func (b *Breakdown) Get(name string) Time { return b.buckets[name] }

// Total returns the sum over all buckets.
func (b *Breakdown) Total() Time {
	var t Time
	for _, v := range b.buckets {
		t += v
	}
	return t
}

// Names returns the bucket names in first-use order.
func (b *Breakdown) Names() []string {
	out := make([]string, len(b.order))
	copy(out, b.order)
	return out
}

// Fraction returns a bucket's share of the total (0 if the total is 0).
func (b *Breakdown) Fraction(name string) float64 {
	total := b.Total()
	if total == 0 {
		return 0
	}
	return float64(b.buckets[name]) / float64(total)
}
