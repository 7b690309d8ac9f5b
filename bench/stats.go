package main

import (
	"math"
	"sort"
	"time"
)

// segments is how many equal parts a timed phase is cut into; a rate
// or percentile is reported as the median of the per-part values.
const segments = 5

// quartiles returns the first quartile, median and third quartile of
// xs by the method of Python's statistics.quantiles(xs, n=4) — the
// method the benchmark driver applies to its runs — so a spread
// computed here reads the same as one computed there. One value is
// its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 { // k-th of 4 cut points, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(n-1)
	j := int(pos)
	if j >= n-1 {
		return sorted[n-1]
	}
	return sorted[j] + (pos-float64(j))*(sorted[j+1]-sorted[j])
}

// tailLadder lists the percentiles a latency report may quote, each
// with the k for which one sample in k lies beyond it.
var tailLadder = []struct {
	pct  float64
	oneK int
}{{50, 2}, {75, 4}, {90, 10}, {95, 20}, {99, 100}, {99.9, 1000}}

// supportedTail returns the highest percentile of tailLadder that has
// at least ten of n samples beyond it, or 0 when even the median has
// fewer: a percentile with a handful of samples above it is mostly
// the luck of the run.
func supportedTail(n int) float64 {
	best := 0.0
	for _, t := range tailLadder {
		if n/t.oneK >= 10 {
			best = t.pct
		}
	}
	return best
}

// opSample is one completed closed-loop operation, timed by the
// harness clock relative to the start of the timed phase.
type opSample struct {
	start, end time.Duration
	reads      int
}

func (s opSample) ms() float64 { return float64(s.end-s.start) / float64(time.Millisecond) }

// summary condenses a timed phase: each field group is the quartiles,
// over the segments, of that segment's rate or latency percentile.
type summary struct {
	ops, reads  int
	wall        time.Duration
	rate        [3]float64 // reads per second: q1, median, q3
	p50, p95    [3]float64 // operation latency in ms
	perSegment  int        // operations in the smallest segment
	tailPct     float64    // supportedTail over all operations
	tailMs      float64    // that percentile over all operations
	segmentUsed int
}

// summarize cuts the samples, in completion order, into up to
// `segments` consecutive groups of equal size. A group's rate is its
// reads over the time from the previous group's last completion to
// its own, so no operation is split across a boundary.
func summarize(samples []opSample) summary {
	s := append([]opSample(nil), samples...)
	sort.Slice(s, func(a, b int) bool { return s[a].end < s[b].end })
	n := len(s)
	var sum summary
	sum.ops = n
	if n == 0 {
		return sum
	}
	sum.wall = s[n-1].end
	k := min(segments, n)
	sum.segmentUsed = k
	sum.perSegment = n / k
	var rates, p50s, p95s, all []float64
	prevEnd := time.Duration(0)
	for g := 0; g < k; g++ {
		lo, hi := g*n/k, (g+1)*n/k
		reads := 0
		lat := make([]float64, 0, hi-lo)
		for _, op := range s[lo:hi] {
			reads += op.reads
			lat = append(lat, op.ms())
		}
		sum.reads += reads
		all = append(all, lat...)
		sort.Float64s(lat)
		end := s[hi-1].end
		rates = append(rates, float64(reads)/(end-prevEnd).Seconds())
		p50s = append(p50s, percentile(lat, 50))
		p95s = append(p95s, percentile(lat, 95))
		prevEnd = end
	}
	sum.rate[0], sum.rate[1], sum.rate[2] = quartiles(rates)
	sum.p50[0], sum.p50[1], sum.p50[2] = quartiles(p50s)
	sum.p95[0], sum.p95[1], sum.p95[2] = quartiles(p95s)
	sort.Float64s(all)
	sum.tailPct = supportedTail(n)
	sum.tailMs = percentile(all, sum.tailPct)
	return sum
}
