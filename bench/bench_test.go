package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The cut points must be the ones Python's statistics.quantiles(xs,
// n=4) gives, since that is what the benchmark driver computes.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, m, q3v float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, m, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(m, c.m) || !near(q3, c.q3v) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3v)
		}
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for p, want := range map[float64]float64{0: 10, 50: 30, 75: 40, 95: 48, 100: 50} {
		if got := percentile(s, p); !near(got, want) {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
}

// The reported tail is the highest percentile with at least ten
// samples beyond it.
func TestSupportedTail(t *testing.T) {
	for n, want := range map[int]float64{9: 0, 19: 0, 20: 50, 39: 50, 40: 75, 100: 90, 199: 90, 200: 95, 999: 95, 1000: 99, 10000: 99.9} {
		if got := supportedTail(n); got != want {
			t.Errorf("supportedTail(%d) = %v, want %v", n, got, want)
		}
	}
}

// Self time is a span's duration minus the union of what its direct
// children cover inside it.
func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "parent", start: 0, end: 100 * ms, parent: -1},
		{name: "a", start: 10 * ms, end: 30 * ms, parent: 0},
		{name: "b overlaps a", start: 20 * ms, end: 50 * ms, parent: 0},
		{name: "c outlives the parent", start: 70 * ms, end: 120 * ms, parent: 0},
		{name: "grandchild", start: 12 * ms, end: 18 * ms, parent: 1},
	}
	want := []time.Duration{30 * ms, 14 * ms, 30 * ms, 50 * ms, 6 * ms}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// A rate is the median over equal-count segments, each timed from the
// previous segment's last completion to its own.
func TestSummarizeSegments(t *testing.T) {
	var samples []opSample
	// Ten operations of 2 reads; the k-th segment's pair takes k+1
	// seconds in all, so segment rates are 4/1, 4/2, ... 4/5 reads/s.
	at := time.Duration(0)
	for seg := 0; seg < 5; seg++ {
		for k := 0; k < 2; k++ {
			d := time.Duration(seg+1) * time.Second / 2
			samples = append(samples, opSample{start: at, end: at + d, reads: 2})
			at += d
		}
	}
	// Completion order, not slice order, defines the segments.
	samples[0], samples[9] = samples[9], samples[0]
	s := summarize(samples)
	if s.ops != 10 || s.reads != 20 || s.segmentUsed != 5 || s.perSegment != 2 {
		t.Fatalf("summary counts: %+v", s)
	}
	if !near(s.rate[1], 4.0/3) {
		t.Errorf("median rate = %v, want 4/3", s.rate[1])
	}
	if !near(s.p50[1], 1500) {
		t.Errorf("median of segment p50s = %v ms, want 1500", s.p50[1])
	}
	one := summarize(samples[:1])
	if one.segmentUsed != 1 || one.rate[0] != one.rate[2] {
		t.Errorf("one sample must be its own segment: %+v", one)
	}
}

// The loop performs every operation exactly once, whatever the number
// of clients: that is what fixes the work of a run.
func TestClosedLoopRunsEveryOperationOnce(t *testing.T) {
	seen := make([]int, 7)
	samples := closedLoop(3, len(seen), func(n int) int {
		seen[n]++ // n is unique per dispatch, so no two clients share a slot
		return n
	})
	if len(samples) != len(seen) {
		t.Fatalf("%d operations, want %d", len(samples), len(seen))
	}
	for n, c := range seen {
		if c != 1 || samples[n].reads != n || samples[n].end < samples[n].start {
			t.Errorf("operation %d ran %d times, sample %+v", n, c, samples[n])
		}
	}
}

// The work of a run follows from its command line: whole operations
// per segment, in proportion to the run's length, never fewer than one.
func TestOpCount(t *testing.T) {
	for _, c := range []struct {
		seconds, scale, perSecond float64
		want                      int
	}{
		{15, 1, 200, 3000}, {15, 1, 330, 4950}, {15, 1, 42, 630}, {15, 1, 1.0 / 3, 5},
		{30, 1, 1.0 / 3, 10}, {15, 0.02, 200, 60}, {0, 1, 200, 5},
	} {
		if got := opCount(options{seconds: c.seconds, scale: c.scale}, c.perSecond); got != c.want {
			t.Errorf("opCount(%g s, scale %g, %g/s) = %d, want %d", c.seconds, c.scale, c.perSecond, got, c.want)
		}
	}
}

func TestWithinBound(t *testing.T) {
	d := metricDef{name: "x", bound: 0.10}
	if !withinBound(d, 100, 109) || !withinBound(d, 109, 100) || withinBound(d, 100, 111) || withinBound(d, 0, 1) {
		t.Error("withinBound disagrees with a 10% bound")
	}
}

// BENCHMARK.json at the repo root must describe exactly what this
// program runs and prints.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %+v, want %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			better := "higher"
			if d.higherIsBad {
				better = "lower"
			}
			if g.Name != d.name || g.Unit != d.unit {
				t.Errorf("%s %d is %s [%s], want %s [%s]", kind, i, g.Name, g.Unit, d.name, d.unit)
			}
			if bounded && (g.Better != better || g.Bound == nil || *g.Bound != d.bound) {
				t.Errorf("%s: better %q bound %v, want %q %v", d.name, g.Better, g.Bound, better, d.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: a per-layer metric has no bound", d.name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}

// testScale keeps every workload to a second or two.
const testScale = 0.02

func runAt(t *testing.T, workload string, seed int64, traced bool) *outcome {
	t.Helper()
	def := findWorkload(workload)
	if def == nil {
		t.Fatalf("no workload %q", workload)
	}
	out, err := runWorkload(def, options{workload: workload, seed: seed, seconds: 15, scale: testScale, trace: traced})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if len(out.problems) > 0 {
		t.Fatalf("%s: incorrect output: %v", workload, out.problems)
	}
	return out
}

// countMetrics are the metrics that count work or outcomes rather
// than time: at a fixed seed they must repeat exactly.
var countMetrics = []string{
	"sensitivity", "precision",
	"dsoft.seeds", "dsoft.hits", "dsoft.candidates", "dsoft.cand_precision",
	"gact.extensions", "gact.htile_rejects", "gact.tiles", "gact.cells",
	"align.tiles_bitvector", "align.tiles_fallback", "align.tiles_lut", "align.cells_bitvector", "align.cells_lut",
	"seedtable.bytes", "olc.overlaps_found", "olc.contig_n50", "olc.contig_identity",
	"jobs.checkpoint_writes", "jobs.checkpoint_bytes",
}

func sameCounts(t *testing.T, what string, a, b *outcome) {
	t.Helper()
	for _, name := range countMetrics {
		if a.metrics[name] != b.metrics[name] {
			t.Errorf("%s: %s = %v then %v", what, name, a.metrics[name], b.metrics[name])
		}
	}
}

func TestCountsRepeatAtAFixedSeed(t *testing.T) {
	for _, w := range []string{"map_pacbio", "map_ont_sharded", "assemble_denovo"} {
		for _, traced := range []bool{false, true} {
			a, b := runAt(t, w, 7, traced), runAt(t, w, 7, traced)
			sameCounts(t, w, a, b)
			if !traced && (a.metrics["sensitivity"] == 0 || a.attempted == 0) {
				t.Errorf("%s: nothing mapped: %v", w, a.metrics)
			}
			if traced && a.metrics["gact.tiles"] == 0 {
				t.Errorf("%s: the traced run saw no tiles", w)
			}
		}
	}
}

// The two serving workloads send the same requests; both tiers must
// answer them with the same bytes, which fixes their accuracy too.
func TestServingPathsAgree(t *testing.T) {
	run := func(clustered bool) (*serveBench, *outcome) {
		b := newServeBench(clustered)
		b.perSecond = 200 // the same requests to both
		t.Cleanup(b.close)
		o := options{seed: 7, seconds: 15, scale: testScale, dir: t.TempDir()}
		if _, _, err := prepare(b, o); err != nil {
			t.Fatal(err)
		}
		b.timed()
		out := &outcome{metrics: map[string]float64{}}
		conf, err := b.verify(out)
		if err != nil || len(out.problems) > 0 {
			t.Fatalf("clustered=%v: %v %v", clustered, err, out.problems)
		}
		out.metrics["sensitivity"], out.metrics["precision"] = conf.Sensitivity(), conf.Precision()
		return b, out
	}
	direct, dOut := run(false)
	routed, rOut := run(true)
	sameCounts(t, "serve_direct vs serve_cluster", dOut, rOut)
	if dOut.metrics["sensitivity"] == 0 {
		t.Error("no read was mapped")
	}
	for i := range direct.responses {
		if !bytes.Equal(direct.responses[i], routed.responses[i]) {
			t.Fatalf("request %d: the router's response differs from the server's", i)
		}
	}
	// The traced run checks every response against in-process
	// server.RecordsFor and must emit the serving layers' metrics.
	traced, err := routed.layers(options{seed: 7, seconds: 15, scale: testScale}, newTracer())
	if err != nil || len(traced.problems) > 0 {
		t.Fatalf("traced: %v %v", err, traced.problems)
	}
	if traced.metrics["cluster.subreqs"] == 0 || traced.metrics["server.compute_p50_ms"] <= 0 {
		t.Errorf("traced serving metrics missing: %v", traced.metrics)
	}
}

func TestSeedChangesInputs(t *testing.T) {
	gen := func(seed int64) *mapBench {
		b := newMapPacbio().(*mapBench)
		if err := b.generate(options{seed: seed, seconds: 15, scale: testScale}); err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, again, other := gen(1), gen(1), gen(2)
	if !bytes.Equal(a.ref, again.ref) || !reflect.DeepEqual(a.seqs, again.seqs) {
		t.Error("the same seed gave different inputs")
	}
	if bytes.Equal(a.ref, other.ref) || reflect.DeepEqual(a.seqs, other.seqs) {
		t.Error("a different seed gave the same inputs")
	}
}

// Every metric in the tables is emitted, finite, by every workload's
// runs: the driver reads them all by name.
func TestResultLineCarriesEveryMetric(t *testing.T) {
	out := runAt(t, "map_pacbio", 3, true)
	res := out.result(true)
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics in the traced result, want %d", len(res.Metrics), len(perLayer))
	}
	for _, d := range perLayer {
		v, ok := res.Metrics[d.name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.unit {
			t.Errorf("%s: %+v", d.name, v)
		}
	}
	if _, err := json.Marshal(res); err != nil {
		t.Error(err)
	}
}
