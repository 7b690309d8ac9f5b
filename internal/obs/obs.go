// Package obs is the engine's always-on observability layer: a
// process-wide, concurrency-safe registry of counters, gauges, timers,
// and histograms built on sync/atomic, a Chrome trace_event dump of
// the registry timers' intervals, an opt-in debug HTTP endpoint (pprof
// + expvar-style JSON + plain-text stage summary), and a
// machine-readable end-of-run report writer.
//
// The paper's whole evaluation is per-stage accounting — Figure 13's
// filtration/alignment runtime split, Figure 12's first-tile-score
// histogram, Table 4's seeds/hits/candidates counts. This package
// makes that accounting a property of the pipeline rather than of
// individual experiments: internal/dsoft, internal/gact, internal/core,
// and internal/olc update named metrics in the Default registry as a
// side effect of normal operation, every CLI can snapshot them into a
// stable JSON report, and perf work diffs those reports instead of
// hand-rolled timers.
//
// Metric naming convention: "<package>/<metric>" for counters and
// plain timers, and "stage/<stage>" for the disjoint pipeline-stage
// timers whose sum approximates wall clock on a single-worker run
// (load_input, index, filter, align, emit, layout, ...). Overlapping
// measurements stay out of the stage/ namespace so stage timings never
// double-count: olc/polish, for one, times each Assemble's polish stage
// as a whole, and the polish re-enters filter and align.
//
// A stage is timed once, by its registry Timer, and goes by that one
// name everywhere. The Chrome trace (-trace-out, /debug/chrome-trace)
// is a by-product: while Trace is enabled each timed interval also
// becomes one event named after its timer, on lane 0 or, for the
// worker loops' busy timers, on the worker's own lane. A request's
// span tree is another view: every child span is the interval of one
// timer (Timer.Start, Span.AddTimedChild), so only a root span names
// itself. Trace names and span names are therefore registry names.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (e.g. worker count).
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Timer accumulates durations: total elapsed time and observation
// count, both atomic. It carries the name its registry gave it. An
// interval is timed with Start or StartOn and Stage.End, which also
// append a Chrome trace event under that name while Trace is enabled;
// Observe records an interval measured elsewhere.
type Timer struct {
	name  string
	count atomic.Int64
	nanos atomic.Int64
}

// Observe records one duration and no trace event. It is for an
// interval measured elsewhere: a sub-account of an interval another
// timer already traces (gact/first_tile_reject within gact/first_tile),
// or an interval whose timer is chosen only once it has ended (index
// load vs build).
func (t *Timer) Observe(d time.Duration) {
	t.count.Add(1)
	t.nanos.Add(int64(d))
}

// Count returns the number of observations.
func (t *Timer) Count() int64 { return t.count.Load() }

// Total returns the accumulated duration.
func (t *Timer) Total() time.Duration { return time.Duration(t.nanos.Load()) }

// TimerSnapshot is a timer's state at snapshot time.
type TimerSnapshot struct {
	Count   int64   `json:"count"`
	Seconds float64 `json:"seconds"`
}

// Sub returns the change since prev.
func (s TimerSnapshot) Sub(prev TimerSnapshot) TimerSnapshot {
	return TimerSnapshot{Count: s.Count - prev.Count, Seconds: s.Seconds - prev.Seconds}
}

// Registry is a named collection of metrics. The zero value is not
// usable; call NewRegistry. All methods are safe for concurrent use;
// getters create the metric on first use and always return the same
// instance for a name.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	timers     map[string]*Timer
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		timers:     map[string]*Timer{},
		histograms: map[string]*Histogram{},
	}
}

// Default is the process-wide registry the pipeline packages
// instrument into.
var Default = NewRegistry()

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Timer returns (creating if needed) the named timer.
func (r *Registry) Timer(name string) *Timer {
	r.mu.RLock()
	t, ok := r.timers[name]
	r.mu.RUnlock()
	if ok {
		return t
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.timers[name]; ok {
		return t
	}
	t = &Timer{name: name}
	r.timers[name] = t
	return t
}

// Histogram returns (creating if needed) the named histogram over
// [min, max) with the given bin count. Creation parameters are fixed
// by the first caller; later callers get the existing instance.
func (r *Registry) Histogram(name string, minV, maxV float64, bins int) *Histogram {
	r.mu.RLock()
	h, ok := r.histograms[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	h = newHistogram(minV, maxV, bins)
	r.histograms[name] = h
	return h
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Timers     map[string]TimerSnapshot     `json:"timers"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Timers:     make(map[string]TimerSnapshot, len(r.timers)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, t := range r.timers {
		s.Timers[name] = TimerSnapshot{Count: t.Count(), Seconds: t.Total().Seconds()}
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// Sub returns the change since prev: a snapshot-diff covering exactly
// the work done between the two snapshots. Metrics absent from prev
// are treated as zero.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]int64, len(s.Counters)),
		Gauges:     make(map[string]int64, len(s.Gauges)),
		Timers:     make(map[string]TimerSnapshot, len(s.Timers)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
	}
	for name, v := range s.Counters {
		out.Counters[name] = v - prev.Counters[name]
	}
	// Gauges are instantaneous: keep the latest value, not a delta.
	for name, v := range s.Gauges {
		out.Gauges[name] = v
	}
	for name, v := range s.Timers {
		out.Timers[name] = v.Sub(prev.Timers[name])
	}
	for name, v := range s.Histograms {
		out.Histograms[name] = v.Sub(prev.Histograms[name])
	}
	return out
}

// StagePrefix marks the disjoint pipeline-stage timers whose summed
// durations approximate single-worker wall clock.
const StagePrefix = "stage/"

// Stages extracts the stage/ timers, sorted by descending time.
func (s Snapshot) Stages() []StageTiming {
	var out []StageTiming
	for name, t := range s.Timers {
		if len(name) > len(StagePrefix) && name[:len(StagePrefix)] == StagePrefix {
			out = append(out, StageTiming{Name: name[len(StagePrefix):], Seconds: t.Seconds, Count: t.Count})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Seconds != out[b].Seconds {
			return out[a].Seconds > out[b].Seconds
		}
		return out[a].Name < out[b].Name
	})
	return out
}

// StageTiming is one pipeline stage's cumulative time.
type StageTiming struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Count   int64   `json:"count"`
}

// Summary renders a human-readable view of the snapshot: stage
// timings, then counters, gauges, plain timers, and histogram means.
func (s Snapshot) Summary() string {
	var b []byte
	appendf := func(format string, args ...any) { b = fmt.Appendf(b, format, args...) }
	stages := s.Stages()
	if len(stages) > 0 {
		appendf("stages:\n")
		var total float64
		for _, st := range stages {
			appendf("  %-20s %10.3fs  (%d calls)\n", st.Name, st.Seconds, st.Count)
			total += st.Seconds
		}
		appendf("  %-20s %10.3fs\n", "total", total)
	}
	appendf("counters:\n")
	for _, name := range sortedKeys(s.Counters) {
		appendf("  %-32s %d\n", name, s.Counters[name])
	}
	if len(s.Gauges) > 0 {
		appendf("gauges:\n")
		for _, name := range sortedKeys(s.Gauges) {
			appendf("  %-32s %d\n", name, s.Gauges[name])
		}
	}
	var plain []string
	for name := range s.Timers {
		if len(name) < len(StagePrefix) || name[:len(StagePrefix)] != StagePrefix {
			plain = append(plain, name)
		}
	}
	if len(plain) > 0 {
		sort.Strings(plain)
		appendf("timers:\n")
		for _, name := range plain {
			t := s.Timers[name]
			appendf("  %-32s %.3fs  (%d calls)\n", name, t.Seconds, t.Count)
		}
	}
	if len(s.Histograms) > 0 {
		appendf("histograms:\n")
		for _, name := range sortedKeys(s.Histograms) {
			h := s.Histograms[name]
			appendf("  %-32s n=%d mean=%.2f range=[%g,%g)\n", name, h.Count, h.Mean(), h.Min, h.Max)
		}
	}
	return string(b)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
