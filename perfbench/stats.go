package main

import (
	"math"
	"sort"
)

// rng is a splitmix64 stream: seedable, no global state, and the same
// generator scripts/chaossweep uses, so a printed seed reproduces a run.
type rng struct{ s uint64 }

// Streams: each purpose draws from its own stream of the run's seed, so
// adding draws to one never shifts another.
const (
	streamOrder uint64 = iota + 1
	streamKeys
	streamFresh
	streamSample
)

func newRNG(seed, stream uint64) *rng {
	r := &rng{s: seed ^ (stream * 0xd1b54a32d192ed03)}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	x := r.s
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// float returns a uniform float64 in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / float64(1<<53) }

// intn returns a uniform int in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a uniform permutation of [0, n) (Fisher-Yates).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs, linearly
// interpolated between the closest ranks (numpy's default method). It
// leaves xs unchanged and returns 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	h := float64(len(s)-1) * p / 100
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// passPercentile returns the median over passes of each pass's p-th
// percentile.
func passPercentile(passes [][]float64, p float64) float64 {
	per := make([]float64, len(passes))
	for i, xs := range passes {
		per[i] = percentile(xs, p)
	}
	return median(per)
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(xs, n=4) with its default "exclusive" method:
// the statistic the benchmark's run-to-run stability is judged by. With
// fewer than two values it returns the lone value (or 0) three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio divides, giving 0 for a zero denominator so that no NaN reaches
// the JSON result.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
