package obs

import (
	"sync"
	"time"
)

// Rolling-window estimators for the /v1/stats SLO surface. The
// Registry's counters and timers are cumulative since process start;
// SLOs are about the last minute. RollingQuantile and RollingCounter
// keep a ring of per-second slots covering the longest window of
// interest, so "p99 map latency over 1m" and "reads/s over 5m" are
// answerable at any instant without external tooling.

// rollingSlotSamples bounds the per-second reservoir. 64 samples per
// second over a 60-second window gives ~3840 merged samples per
// quantile query — enough for a stable p99 at serving rates, bounded
// regardless of load.
const rollingSlotSamples = 64

type rollingSlot struct {
	sec     int64 // unix second this slot currently represents
	count   int64
	sum     float64
	samples []float64 // reservoir, capacity rollingSlotSamples
}

// RollingQuantile estimates quantiles over trailing time windows from
// a reservoir-sampled ring of per-second slots. Safe for concurrent
// use. The zero value is not usable; call NewRollingQuantile.
type RollingQuantile struct {
	mu    sync.Mutex
	slots []rollingSlot
	buf   []float64 // a window's merged samples, reused under mu
	rng   uint64    // xorshift state; deterministic, no global rand
	now   func() time.Time
}

// NewRollingQuantile returns an estimator whose ring covers window
// (rounded up to whole seconds; at least 1s).
func NewRollingQuantile(window time.Duration) *RollingQuantile {
	n := int((window + time.Second - 1) / time.Second)
	if n < 1 {
		n = 1
	}
	return &RollingQuantile{
		slots: make([]rollingSlot, n),
		rng:   0x9e3779b97f4a7c15,
		now:   time.Now,
	}
}

func (r *RollingQuantile) xorshift() uint64 {
	r.rng ^= r.rng << 13
	r.rng ^= r.rng >> 7
	r.rng ^= r.rng << 17
	return r.rng
}

// Observe records one value at the current time.
func (r *RollingQuantile) Observe(v float64) {
	sec := r.now().Unix()
	r.mu.Lock()
	s := &r.slots[sec%int64(len(r.slots))]
	if s.sec != sec {
		s.sec = sec
		s.count = 0
		s.sum = 0
		s.samples = s.samples[:0]
	}
	s.count++
	s.sum += v
	if len(s.samples) < rollingSlotSamples {
		s.samples = append(s.samples, v)
	} else if i := int(r.xorshift() % uint64(s.count)); i < rollingSlotSamples {
		s.samples[i] = v
	}
	r.mu.Unlock()
}

// WindowStats summarizes one trailing window.
type WindowStats struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Window merges the slots inside the trailing window and returns
// count, sum, and the standard SLO quantiles. window is clamped to
// the ring's span.
func (r *RollingQuantile) Window(window time.Duration) WindowStats {
	var out WindowStats
	r.mu.Lock()
	defer r.mu.Unlock()
	out.Count, out.Sum = r.gather(window)
	if len(r.buf) == 0 {
		return out
	}
	out.P50 = selectQuantile(r.buf, 0.50)
	out.P95 = selectQuantile(r.buf, 0.95)
	out.P99 = selectQuantile(r.buf, 0.99)
	return out
}

// Quantile returns a single quantile q in [0,1] over the trailing
// window.
func (r *RollingQuantile) Quantile(window time.Duration, q float64) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gather(window)
	if len(r.buf) == 0 {
		return 0
	}
	return selectQuantile(r.buf, q)
}

// gather merges the samples of the slots inside the trailing window
// into r.buf and returns the slots' count and sum. The caller holds
// r.mu.
func (r *RollingQuantile) gather(window time.Duration) (count int64, sum float64) {
	nowSec := r.now().Unix()
	span := int64(window / time.Second)
	if span < 1 {
		span = 1
	}
	if span > int64(len(r.slots)) {
		span = int64(len(r.slots))
	}
	// The current second is still filling; include it anyway — SLO
	// windows care about recency more than exact second alignment.
	oldest := nowSec - span + 1
	r.buf = r.buf[:0]
	for i := range r.slots {
		s := &r.slots[i]
		if s.sec < oldest || s.sec > nowSec {
			continue
		}
		count += s.count
		sum += s.sum
		r.buf = append(r.buf, s.samples...)
	}
	return count, sum
}

// selectQuantile is quantileOf over v unsorted: it moves the order
// statistics quantileOf reads to the places sorting v would put them,
// by selection, and reads them there.
func selectQuantile(v []float64, q float64) float64 {
	n := len(v)
	switch {
	case n == 1:
	case q <= 0:
		selectNth(v, 0)
	case q >= 1:
		selectNth(v, n-1)
	default:
		i := int(q * float64(n-1)) // quantileOf's index
		selectNth(v, i)
		selectNth(v[i+1:], 0)
	}
	return quantileOf(v, q)
}

// selectNth reorders v so that v[k] holds the value sorting v would put
// there, with no greater value before it and no smaller one after it
// (Hoare's quickselect, median-of-three pivots).
func selectNth(v []float64, k int) {
	lo, hi := 0, len(v)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if v[mid] < v[lo] {
			v[mid], v[lo] = v[lo], v[mid]
		}
		if v[hi] < v[lo] {
			v[hi], v[lo] = v[lo], v[hi]
		}
		if v[hi] < v[mid] {
			v[hi], v[mid] = v[mid], v[hi]
		}
		p := v[mid]
		i, j := lo, hi
		for i <= j {
			for v[i] < p {
				i++
			}
			for v[j] > p {
				j--
			}
			if i <= j {
				v[i], v[j] = v[j], v[i]
				i++
				j--
			}
		}
		// v[lo:j+1] ≤ p ≤ v[i:hi+1], and what lies between equals p.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// quantileOf reads quantile q from sorted values (nearest-rank with
// linear interpolation): sorted[0] for q ≤ 0, the last value for
// q ≥ 1, else the values at index ⌊q·(n−1)⌋ and the next one.
func quantileOf(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	frac := pos - float64(i)
	return sorted[i] + frac*(sorted[i+1]-sorted[i])
}

// RollingCounter counts events in per-second slots for trailing-window
// rates (reads/s, errors/s). Safe for concurrent use.
type RollingCounter struct {
	mu    sync.Mutex
	slots []struct {
		sec   int64
		count int64
	}
	now func() time.Time
}

// NewRollingCounter returns a counter whose ring covers window.
func NewRollingCounter(window time.Duration) *RollingCounter {
	n := int((window + time.Second - 1) / time.Second)
	if n < 1 {
		n = 1
	}
	rc := &RollingCounter{now: time.Now}
	rc.slots = make([]struct {
		sec   int64
		count int64
	}, n)
	return rc
}

// Add counts n events at the current time.
func (r *RollingCounter) Add(n int64) {
	sec := r.now().Unix()
	r.mu.Lock()
	s := &r.slots[sec%int64(len(r.slots))]
	if s.sec != sec {
		s.sec = sec
		s.count = 0
	}
	s.count += n
	r.mu.Unlock()
}

// Inc counts one event.
func (r *RollingCounter) Inc() { r.Add(1) }

// Total returns the event count inside the trailing window.
func (r *RollingCounter) Total(window time.Duration) int64 {
	nowSec := r.now().Unix()
	span := int64(window / time.Second)
	if span < 1 {
		span = 1
	}
	if span > int64(len(r.slots)) {
		span = int64(len(r.slots))
	}
	oldest := nowSec - span + 1
	var total int64
	r.mu.Lock()
	for i := range r.slots {
		if r.slots[i].sec >= oldest && r.slots[i].sec <= nowSec {
			total += r.slots[i].count
		}
	}
	r.mu.Unlock()
	return total
}

// Rate returns events per second over the trailing window.
func (r *RollingCounter) Rate(window time.Duration) float64 {
	span := window.Seconds()
	if span < 1 {
		span = 1
	}
	if max := float64(len(r.slots)); span > max {
		span = max
	}
	return float64(r.Total(window)) / span
}
