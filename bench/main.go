// Command bench is the repository's one benchmark: five named
// workloads, each run in a fresh process, reporting end-to-end metrics
// with tracing off (-trace 0) or per-layer metrics from a traced run
// of the same inputs (-trace 1). README.md in this directory explains
// the workloads, the metrics and how they are expected to interact.
//
//	go run ./bench -workload map_pacbio -seed 1 -seconds 15 -trace 0
//	go run ./bench -workload map_pacbio -seed 1 -trace 1 -trace-out spans.json
//	go run ./bench -selfcheck
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"darwin/internal/metrics"
)

// metricDef names one reported metric. BENCHMARK.json at the repo root
// repeats these tables (a test keeps the two in step).
type metricDef struct {
	name, unit string
	// bound is the share of the parent's median an end-to-end metric
	// may worsen by; per-layer metrics have none.
	bound       float64
	higherIsBad bool
}

var endToEnd = []metricDef{
	{"setup_s", "s", 0.25, true},
	{"reads_per_s", "1/s", 0.20, false},
	{"req_p50_ms", "ms", 0.20, true},
	{"req_p95_ms", "ms", 0.25, true},
	{"sensitivity", "ratio", 0.10, false},
	{"precision", "ratio", 0.03, false},
	{"peak_rss_mib", "MiB", 0.10, true},
}

var perLayer = []metricDef{
	{name: "seedtable.build_s", unit: "s"},
	{name: "seedtable.bytes", unit: "bytes"},
	{name: "indexio.write_s", unit: "s"},
	{name: "indexio.open_s", unit: "s"},
	{name: "indexio.file_bytes", unit: "bytes"},
	{name: "dsoft.busy_s", unit: "s"},
	{name: "dsoft.seeds", unit: "count"},
	{name: "dsoft.hits", unit: "count"},
	{name: "dsoft.candidates", unit: "count"},
	{name: "dsoft.cand_precision", unit: "ratio"},
	{name: "gact.busy_s", unit: "s"},
	{name: "gact.reject_busy_s", unit: "s"},
	{name: "gact.extensions", unit: "count"},
	{name: "gact.htile_rejects", unit: "count"},
	{name: "gact.tiles", unit: "count"},
	{name: "gact.cells", unit: "count"},
	{name: "gact.mcells_per_s", unit: "Mcells/s"},
	{name: "align.tiles_bitvector", unit: "count"},
	{name: "align.tiles_fallback", unit: "count"},
	{name: "align.tiles_lut", unit: "count"},
	{name: "align.cells_bitvector", unit: "count"},
	{name: "align.cells_lut", unit: "count"},
	{name: "align.bitvector_share", unit: "ratio"},
	{name: "align.first_tile_us", unit: "us"},
	{name: "align.ext_tile_us", unit: "us"},
	{name: "core.map1_wall_s", unit: "s"},
	{name: "core.self_s", unit: "s"},
	{name: "core.scale_eff", unit: "ratio"},
	{name: "shard.overhead_ratio", unit: "ratio"},
	{name: "shard.scatter_s", unit: "s"},
	{name: "shard.merge_s", unit: "s"},
	{name: "shard.builds", unit: "count"},
	{name: "shard.resident_mib", unit: "MiB"},
	{name: "server.compute_p50_ms", unit: "ms"},
	{name: "server.self_p50_ms", unit: "ms"},
	{name: "server.http_p50_ms", unit: "ms"},
	{name: "server.req_p99_ms", unit: "ms"},
	{name: "server.batches", unit: "count"},
	{name: "server.batch_reads_mean", unit: "count"},
	{name: "server.shed", unit: "count"},
	{name: "cluster.hop_p50_ms", unit: "ms"},
	{name: "cluster.subreqs", unit: "count"},
	{name: "cluster.hedge_fired", unit: "count"},
	{name: "cluster.hedge_wins", unit: "count"},
	{name: "cluster.failovers", unit: "count"},
	{name: "cluster.hedge_share", unit: "ratio"},
	{name: "olc.overlap_s", unit: "s"},
	{name: "olc.layout_s", unit: "s"},
	{name: "olc.consensus_s", unit: "s"},
	{name: "olc.polish_s", unit: "s"},
	{name: "olc.overlaps_found", unit: "count"},
	{name: "olc.closure_share", unit: "ratio"},
	{name: "olc.contig_n50", unit: "count"},
	{name: "olc.contig_identity", unit: "ratio"},
	{name: "jobs.checkpoint_busy_s", unit: "s"},
	{name: "jobs.checkpoint_writes", unit: "count"},
	{name: "jobs.checkpoint_bytes", unit: "bytes"},
	{name: "trace.overhead_share", unit: "ratio"},
	{name: "harness.gen_s", unit: "s"},
	{name: "harness.samples", unit: "count"},
	{name: "harness.failed_share", unit: "ratio"},
}

// options is one run's command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	// scale shrinks every input size and operation count. It is 1 in
	// every run from the command line; only the tests, which run at
	// 1/50 to stay fast, set another value.
	scale    float64
	trace    bool
	traceOut string
	// dir is the run's scratch directory, made and removed by
	// runWorkload: everything the benchmark writes goes under it.
	dir string
}

// setups is how many times a run sets up: once before the timed phase
// and, for a steadier median, again and again after it.
const setups = 5

// workers is W, the number of mapping workers and load-generating
// clients: every workload runs with GOMAXPROCS = W.
var workers = min(runtime.NumCPU(), 4)

// outcome is what a timed or traced phase found.
type outcome struct {
	attempted, failed int
	// problems lists correctness violations; any makes the run
	// incorrect and the exit code non-zero.
	problems []string
	metrics  map[string]float64
	// notes are printed above the result: quartiles, sample counts.
	notes []string
}

func (o *outcome) problemf(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
	o.failed++
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// bench is one workload. runWorkload calls generate, setup, then either
// timed and verify or layers, then close.
type bench interface {
	// generate derives every input from the seed; the program under
	// test sees only these generated inputs.
	generate(o options) error
	// setup does everything between process start and the first timed
	// operation other than input generation. It may be called again
	// after close.
	setup() error
	// timed runs the timed phase with tracing off — a fixed number of
	// operations, divisible by segments — keeping what the program
	// returned.
	timed() []opSample
	// verify checks the outputs timed kept, recording violations and
	// the attempted and failed counts in out, and scores them against
	// ground truth.
	verify(out *outcome) (metrics.Confusion, error)
	// layers runs the traced phase: harness-side spans around calls
	// into each layer's public functions, registry counts by
	// snapshot-diff, and the same output checks.
	layers(o options, tr *tracer) (*outcome, error)
	// close releases what setup acquired.
	close()
}

type workloadDef struct {
	name, why string
	make      func() bench
}

var workloads = []workloadDef{
	{"map_pacbio", "long high-identity reads on a monolithic index: almost all time is GACT extension tiles on the bitvector tier", newMapPacbio},
	{"map_ont_sharded", "40%-error reads on a repeat-rich sharded index: time goes to first-tile rejects of false candidates, scatter/merge on the path", newMapOntSharded},
	{"serve_direct", "small /v1/map requests to one server over loopback: per-request cost (decode, batcher, encode) is comparable to compute", newServeDirect},
	{"serve_cluster", "the same requests through router and two workers: router hop, scatter endpoint and merge instead of the batcher", newServeCluster},
	{"assemble_denovo", "de novo overlap-layout-consensus with checkpoints: the single-threaded overlap stage dominates", newAssembleDenovo},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func main() {
	var o options
	var trace int
	var selfcheck bool
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is derived from")
	flag.Float64Var(&o.seconds, "seconds", 15, "length of the timed phase on the reference machine: it fixes how much work the run does")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1, write the spans to this file as Chrome trace_event JSON")
	flag.BoolVar(&selfcheck, "selfcheck", false, "measure every workload twice over, in two interleaved sets of runs in alternating order, and compare the sets' end-to-end metrics within their bounds")
	flag.Parse()
	o.trace = trace != 0
	o.scale = 1
	runtime.GOMAXPROCS(workers)

	if selfcheck {
		os.Exit(runSelfcheck(o))
	}
	def := findWorkload(o.workload)
	if def == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", o.workload, workloadNames())
		os.Exit(2)
	}
	fmt.Printf("workload=%s seed=%d seconds=%g trace=%d W=%d nproc=%d %s\n",
		o.workload, o.seed, o.seconds, trace, workers, runtime.NumCPU(), runtime.Version())
	out, err := runWorkload(def, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	printOutcome(out, o.trace)
	if len(out.problems) > 0 {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// prepare generates the inputs and sets up, timing each.
func prepare(b bench, o options) (genS, setupS float64, err error) {
	t := time.Now()
	if err := b.generate(o); err != nil {
		return 0, 0, fmt.Errorf("generating inputs: %w", err)
	}
	genS = time.Since(t).Seconds()
	forgetGeneration()
	t = time.Now()
	if err := b.setup(); err != nil {
		return 0, 0, fmt.Errorf("set-up: %w", err)
	}
	return genS, time.Since(t).Seconds(), nil
}

// runWorkload is one run of one workload in this process.
func runWorkload(def *workloadDef, o options) (*outcome, error) {
	// Everything the benchmark writes stays under the working
	// directory.
	dir, err := os.MkdirTemp(".", ".bench_tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	o.dir = dir
	b := def.make()
	defer b.close()
	genS, setupS, err := prepare(b, o)
	if err != nil {
		return nil, err
	}
	if o.trace {
		tr := newTracer()
		out, err := b.layers(o, tr)
		if err != nil {
			return nil, err
		}
		out.metrics["harness.gen_s"] = genS
		out.metrics["harness.samples"] = float64(tr.count())
		out.metrics["harness.failed_share"] = ratio(float64(out.failed), float64(out.attempted))
		if o.traceOut != "" {
			if err := tr.writeChrome(o.traceOut); err != nil {
				return nil, fmt.Errorf("writing spans: %w", err)
			}
		}
		return out, nil
	}
	samples := b.timed()
	// Memory is read as soon as the timed phase ends: what checking
	// the outputs allocates is the harness's, not the program's.
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{"peak_rss_mib": rss}}
	conf, err := b.verify(out)
	if err != nil {
		return nil, fmt.Errorf("checking outputs: %w", err)
	}
	fillTimedMetrics(out, summarize(samples), conf)
	// Set-up again, now that nothing measured can be disturbed by it.
	setupTimes := []float64{setupS}
	for len(setupTimes) < setups {
		b.close()
		t := time.Now()
		if err := b.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t).Seconds())
	}
	out.metrics["setup_s"] = median(setupTimes)
	out.notef("setup_s samples %v; input generation %.3f s", setupTimes, genS)
	return out, nil
}

// fillTimedMetrics turns a timed phase's summary and its confusion
// counts into the end-to-end metrics every workload shares.
func fillTimedMetrics(out *outcome, s summary, conf metrics.Confusion) {
	out.metrics["reads_per_s"] = s.rate[1]
	out.metrics["req_p50_ms"] = s.p50[1]
	out.metrics["req_p95_ms"] = s.p95[1]
	out.metrics["sensitivity"] = conf.Sensitivity()
	out.metrics["precision"] = conf.Precision()
	out.notef("timed phase: %d operations, %d reads in %.2f s; %d segments of %d operations",
		s.ops, s.reads, s.wall.Seconds(), s.segmentUsed, s.perSegment)
	out.notef("reads_per_s over segments: q1 %.2f median %.2f q3 %.2f", s.rate[0], s.rate[1], s.rate[2])
	out.notef("req_p50_ms over segments: q1 %.3f median %.3f q3 %.3f", s.p50[0], s.p50[1], s.p50[2])
	out.notef("req_p95_ms over segments: q1 %.3f median %.3f q3 %.3f", s.p95[0], s.p95[1], s.p95[2])
	if s.tailPct > 0 {
		out.notef("highest percentile with >= 10 samples beyond it: p%g = %.3f ms over %d operations", s.tailPct, s.tailMs, s.ops)
	} else {
		out.notef("%d operations: no percentile has 10 samples beyond it, so req_p50_ms and req_p95_ms say little more than the operation time", s.ops)
	}
	out.notef("against ground truth: TP %d FP %d FN %d", conf.TP, conf.FP, conf.FN)
	out.notef("failed_share: %d failed of %d attempted = %g", out.failed, out.attempted, ratio(float64(out.failed), float64(out.attempted)))
}

// forgetGeneration keeps what input generation allocated out of
// peak_rss_mib: it returns the garbage to the system and restarts the
// kernel's high-water mark, so that the peak is that of set-up and the
// timed phase — the program's, as a process handed ready-made inputs
// would show it. Where the mark cannot be restarted the peak simply
// includes generation.
func forgetGeneration() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads VmHWM, the process's peak resident set.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// resultLine is the JSON object printed last.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricsOf returns the metrics a run prints: end-to-end with tracing
// off, per-layer from a traced run.
func metricsOf(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

func (o *outcome) result(traced bool) resultLine {
	res := resultLine{
		Correct:   len(o.problems) == 0,
		Attempted: max(o.attempted, 1),
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range metricsOf(traced) {
		v := o.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// JSON has no such number, and no metric should be one.
			o.problemf("%s is %v", d.name, v)
			res.Correct, res.Failed, v = false, o.failed, 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res
}

func printOutcome(out *outcome, traced bool) {
	for _, n := range out.notes {
		fmt.Println(n)
	}
	res := out.result(traced)
	for _, d := range metricsOf(traced) {
		fmt.Printf("%-26s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	for _, p := range out.problems {
		fmt.Println("INCORRECT:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		panic(err) // resultLine holds only finite numbers and strings
	}
	fmt.Println(string(line))
}
