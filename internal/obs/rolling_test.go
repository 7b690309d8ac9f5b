package obs

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// fakeClock drives the rolling estimators deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func TestRollingQuantileConvergesOnKnownDistribution(t *testing.T) {
	clk := newFakeClock()
	rq := NewRollingQuantile(time.Minute)
	rq.now = clk.now

	// A uniform 0..999 stream spread over 30 seconds: the true p50 is
	// ~500, p95 ~950, p99 ~990. Reservoir sampling over 64x30 slots
	// should land within a few percent.
	v := 0
	for sec := 0; sec < 30; sec++ {
		for i := 0; i < 100; i++ {
			rq.Observe(float64(v % 1000))
			v += 7 // coprime with 1000: full cycle, deterministic
		}
		clk.advance(time.Second)
	}

	st := rq.Window(time.Minute)
	if st.Count != 3000 {
		t.Fatalf("window count = %d, want 3000", st.Count)
	}
	wantSum := 0.0
	v = 0
	for i := 0; i < 3000; i++ {
		wantSum += float64(v % 1000)
		v += 7
	}
	if math.Abs(st.Sum-wantSum) > 1e-6 {
		t.Fatalf("window sum = %f, want %f", st.Sum, wantSum)
	}
	for _, q := range []struct {
		got, want, tol float64
	}{
		{st.P50, 500, 60},
		{st.P95, 950, 40},
		{st.P99, 990, 25},
	} {
		if math.Abs(q.got-q.want) > q.tol {
			t.Errorf("quantile = %.1f, want %.1f ± %.0f", q.got, q.want, q.tol)
		}
	}
}

func TestRollingQuantileWindowExpiry(t *testing.T) {
	clk := newFakeClock()
	rq := NewRollingQuantile(5 * time.Minute)
	rq.now = clk.now

	rq.Observe(100) // old observation
	clk.advance(2 * time.Minute)
	rq.Observe(1) // recent observation

	oneMin := rq.Window(time.Minute)
	if oneMin.Count != 1 {
		t.Fatalf("1m window count = %d, want 1 (old sample leaked in)", oneMin.Count)
	}
	if oneMin.P99 != 1 {
		t.Fatalf("1m p99 = %f, want 1", oneMin.P99)
	}
	fiveMin := rq.Window(5 * time.Minute)
	if fiveMin.Count != 2 {
		t.Fatalf("5m window count = %d, want 2", fiveMin.Count)
	}

	// Ring reuse: after the full span passes, old slots must not
	// resurface.
	clk.advance(6 * time.Minute)
	if got := rq.Window(5 * time.Minute); got.Count != 0 {
		t.Fatalf("expired window count = %d, want 0", got.Count)
	}
}

func TestRollingQuantileEmpty(t *testing.T) {
	rq := NewRollingQuantile(time.Minute)
	st := rq.Window(time.Minute)
	if st.Count != 0 || st.P50 != 0 || st.P99 != 0 {
		t.Fatalf("empty window = %+v", st)
	}
	if q := rq.Quantile(time.Minute, 0.99); q != 0 {
		t.Fatalf("empty quantile = %f", q)
	}
}

func TestRollingCounterRates(t *testing.T) {
	clk := newFakeClock()
	rc := NewRollingCounter(5 * time.Minute)
	rc.now = clk.now

	for sec := 0; sec < 60; sec++ {
		if sec > 0 {
			clk.advance(time.Second)
		}
		rc.Add(10)
	}
	if got := rc.Total(time.Minute); got != 600 {
		t.Fatalf("1m total = %d, want 600", got)
	}
	if got := rc.Rate(time.Minute); math.Abs(got-10) > 0.5 {
		t.Fatalf("1m rate = %f, want ~10", got)
	}

	clk.advance(4 * time.Minute)
	if got := rc.Total(time.Minute); got != 0 {
		t.Fatalf("1m total after idle = %d, want 0", got)
	}
	// The burst minute is still inside the trailing 5m window here
	// (burst seconds 0..59, now at 299)...
	if got := rc.Total(5 * time.Minute); got != 600 {
		t.Fatalf("5m total = %d, want 600", got)
	}
	// ...and fully outside it one minute later.
	clk.advance(time.Minute)
	if got := rc.Total(5 * time.Minute); got != 0 {
		t.Fatalf("expired 5m total = %d, want 0", got)
	}
}

func TestQuantileOfInterpolates(t *testing.T) {
	sorted := []float64{0, 10, 20, 30, 40}
	if q := quantileOf(sorted, 0.5); q != 20 {
		t.Fatalf("p50 = %f, want 20", q)
	}
	if q := quantileOf(sorted, 0); q != 0 {
		t.Fatalf("p0 = %f, want 0", q)
	}
	if q := quantileOf(sorted, 1); q != 40 {
		t.Fatalf("p100 = %f, want 40", q)
	}
	if q := quantileOf(sorted, 0.875); math.Abs(q-35) > 1e-9 {
		t.Fatalf("p87.5 = %f, want 35", q)
	}
}

// TestRollingQuantileMatchesSort holds Quantile and Window, which read
// their order statistics by selection in a reused buffer, bit-equal to
// sorting the window's samples and reading quantileOf: over random
// samples, heavy duplicates, a single sample and a window with expired
// slots, at q = 0, 0.5, 0.9, 0.99 and 1, and pins that a warm Quantile
// allocates nothing.
func TestRollingQuantileMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sorted := func(rq *RollingQuantile, window time.Duration) []float64 {
		oldest := rq.now().Unix() - int64(window/time.Second) + 1
		var v []float64
		for _, s := range rq.slots {
			if s.sec >= oldest && s.sec <= rq.now().Unix() {
				v = append(v, s.samples...)
			}
		}
		sort.Float64s(v)
		return v
	}
	for _, tc := range []struct {
		name    string
		secs    int
		perSec  int
		draw    func() float64
		advance time.Duration // after the samples, so older slots expire
	}{
		{"random", 60, 200, func() float64 { return rng.ExpFloat64() * 3 }, 0},
		{"duplicates", 20, 100, func() float64 { return float64(rng.Intn(4)) }, 0},
		{"single sample", 1, 1, func() float64 { return 7.25 }, 0},
		{"expired slots", 60, 50, func() float64 { return rng.Float64() * 100 }, 10 * time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := newFakeClock()
			rq := NewRollingQuantile(time.Minute)
			rq.now = clk.now
			for range tc.secs {
				for range tc.perSec {
					rq.Observe(tc.draw())
				}
				clk.advance(time.Second)
			}
			clk.advance(tc.advance)
			for _, window := range []time.Duration{time.Minute, 20 * time.Second} {
				want := sorted(rq, window)
				if len(want) == 0 {
					t.Fatalf("window %v holds no samples", window)
				}
				for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
					if got, w := rq.Quantile(window, q), quantileOf(want, q); math.Float64bits(got) != math.Float64bits(w) {
						t.Errorf("window %v: Quantile(%v) = %v, sorted %v", window, q, got, w)
					}
				}
				st := rq.Window(window)
				if st.P50 != quantileOf(want, 0.5) || st.P95 != quantileOf(want, 0.95) || st.P99 != quantileOf(want, 0.99) {
					t.Errorf("window %v: Window %+v, sorted p50 %v p95 %v p99 %v", window, st,
						quantileOf(want, 0.5), quantileOf(want, 0.95), quantileOf(want, 0.99))
				}
			}
			if n := testing.AllocsPerRun(20, func() { rq.Quantile(time.Minute, 0.9) }); n != 0 {
				t.Errorf("Quantile allocates %.1f times per call, want 0", n)
			}
		})
	}
}
