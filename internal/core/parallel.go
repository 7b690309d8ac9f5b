package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"darwin/internal/dna"
	"darwin/internal/dsoft"
	"darwin/internal/gact"
	"darwin/internal/obs"
)

// MapAll observability: the worker gauge plus a busy-time timer, so
// utilization = core/worker_busy seconds / (wall × core/workers) is
// derivable from any run report.
var (
	gWorkers    = obs.Default.Gauge("core/workers")
	tWorkerBusy = obs.Default.Timer("core/worker_busy")
	cReadPanics = obs.Default.Counter("core/read_panics")
	cReadExpiry = obs.Default.Counter("core/read_deadline_expired")
)

// Clone returns an engine sharing this one's (immutable) seed table
// but with private D-SOFT bin state, a private GACT kernel, and fresh
// scratch buffers, safe to use from another goroutine. This mirrors
// the hardware, where the seed tables are replicated read-only across
// DRAM channels while each query stream owns its bin-count SRAM and
// each GACT array its traceback SRAM.
//
// Clone reads only fields that are immutable after New (reference,
// seed table, config, build time) — never the mutable scratch — so it
// is safe to call even while another goroutine is still mapping on
// the receiver. The per-read deadline watchdog relies on this: an
// abandoned read's goroutine may keep mutating its engine's scratch,
// and the worker recovers by cloning a fresh engine from the original.
func (d *Darwin) Clone() (*Darwin, error) {
	stride := d.cfg.SeedStride
	if stride < 1 {
		stride = 1
	}
	filter, err := dsoft.New(d.table, dsoft.Config{
		N:       d.cfg.SeedN,
		H:       d.cfg.Threshold,
		BinSize: d.cfg.BinSize,
		Stride:  stride,
	})
	if err != nil {
		return nil, fmt.Errorf("core: cloning filter: %w", err)
	}
	engine, err := gact.NewEngine(&d.cfg.GACT)
	if err != nil {
		return nil, fmt.Errorf("core: cloning GACT engine: %w", err)
	}
	return &Darwin{
		ref:            d.ref,
		table:          d.table,
		filter:         filter,
		engine:         engine,
		cfg:            d.cfg,
		TableBuildTime: d.TableBuildTime,
	}, nil
}

// CloneMapper implements the Mapper interface over Clone.
func (d *Darwin) CloneMapper() (Mapper, error) { return d.Clone() }

// IndexBuildTime implements the Mapper interface (seed-table
// construction time).
func (d *Darwin) IndexBuildTime() time.Duration { return d.TableBuildTime }

// MapResult pairs one read's alignments with its index and statistics.
type MapResult struct {
	// Index is the read's position in the input slice.
	Index int
	// Alignments are sorted by descending score.
	Alignments []ReadAlignment
	// Stats instruments the read's mapping.
	Stats MapStats
	// Err is set when this read individually failed — it panicked
	// mid-pipeline, blew its per-read deadline (wraps
	// context.DeadlineExceeded), or hit an injected fault — while the
	// rest of the batch completed normally. A batch-level failure
	// (cancelled context, clone failure) is returned by Map itself.
	Err error
}

// MapSettings is the resolved option set for one Map call. Mapper
// implementations outside this package (internal/shard) interpret
// options through ResolveMapOptions, so the two engines read one
// option vocabulary.
type MapSettings struct {
	// Workers is the worker-goroutine count (0 = one per CPU).
	Workers int
	// DeadlinePerRead bounds one read's wall-clock mapping time
	// (0 = unbounded).
	DeadlinePerRead time.Duration
	// Progress, when non-nil, is invoked after each read completes.
	Progress func(done, total int)
}

// MapOption configures a Map call.
type MapOption func(*MapSettings)

// ResolveMapOptions folds options into a MapSettings.
func ResolveMapOptions(options []MapOption) MapSettings {
	var o MapSettings
	for _, opt := range options {
		opt(&o)
	}
	return o
}

// WithWorkers sets the number of worker goroutines. 1 runs inline on
// the receiver; <= 0 (and the default) uses one worker per CPU.
// Workers beyond len(reads) are not spawned.
func WithWorkers(n int) MapOption {
	return func(o *MapSettings) { o.Workers = n }
}

// DefaultWorkers resolves the de novo passes' worker-count setting
// (OverlapRun.Workers, olc.WithWorkers): n when positive, otherwise one
// worker per CPU the scheduler may use.
func DefaultWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// WithDeadlinePerRead bounds each individual read's wall-clock mapping
// time. A read that exceeds the budget gets MapResult.Err wrapping
// context.DeadlineExceeded while the rest of the batch proceeds: the
// stuck read's goroutine is abandoned (it cannot be interrupted
// mid-DP-tile) and its worker continues on a freshly cloned engine, so
// one pathological read costs one engine clone, never the batch. (The
// sharded mapper instead checks the budget cooperatively between
// candidate extensions — its deadline granularity is one GACT
// extension, not one tile.) Zero or negative disables the bound (the
// default).
func WithDeadlinePerRead(d time.Duration) MapOption {
	return func(o *MapSettings) { o.DeadlinePerRead = d }
}

// WithProgress registers a callback invoked after each read completes
// with (reads done so far, total reads). Calls are serialized; the
// callback must be fast — it runs on the mapping workers' critical
// path.
func WithProgress(fn func(done, total int)) MapOption {
	return func(o *MapSettings) { o.Progress = fn }
}

// ProgressSink serializes WithProgress callbacks across workers. A nil
// *ProgressSink is valid and does nothing, so callers can construct
// one only when a callback was given.
type ProgressSink struct {
	mu    sync.Mutex
	fn    func(done, total int)
	done  int
	total int
}

// NewProgressSink returns a sink for fn over total reads, or nil when
// fn is nil.
func NewProgressSink(fn func(done, total int), total int) *ProgressSink {
	if fn == nil {
		return nil
	}
	return &ProgressSink{fn: fn, total: total}
}

// Step records one completed read and invokes the callback.
func (p *ProgressSink) Step() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.done++
	p.fn(p.done, p.total)
	p.mu.Unlock()
}

// readOutcome is one guarded read's result.
type readOutcome struct {
	alns []ReadAlignment
	st   MapStats
	err  error
}

// finishReadSpan closes one read's trace span: work attributes from
// the read's MapStats, plus synthesized stage/filter and stage/align
// children carrying the same per-read durations the Registry's stage
// timers aggregate — so a captured tree splits one read's latency the
// same way the process-wide timers split the fleet's. The filter span
// is anchored at the read's start and the align span immediately
// after it, matching the pipeline's actual phase order.
func finishReadSpan(sp *obs.Span, busy time.Time, oc readOutcome) {
	st := oc.st
	sp.SetAttr("candidates", int64(st.Candidates))
	sp.SetAttr("passed_htile", int64(st.PassedHTile))
	sp.SetAttr("tiles", int64(st.Tiles))
	sp.SetAttr("cells", st.Cells)
	sp.SetAttr("alignments", int64(len(oc.alns)))
	if oc.err != nil {
		sp.SetAttr("failed", 1)
	}
	sp.AddTimedChild("stage/filter", busy, st.FiltrationTime)
	sp.AddTimedChild("stage/align", busy.Add(st.FiltrationTime), st.AlignmentTime)
	sp.End()
}

// mapReadRecovered maps one read with panic isolation: a panic
// anywhere in the filter/extend pipeline (or injected at the
// core/map_read fault point) becomes this read's Err instead of
// killing the worker. The fault point fires inside the recover scope
// so injected panics exercise the same containment as organic ones.
func mapReadRecovered(e *Darwin, q dna.Seq) (out readOutcome) {
	defer func() {
		if r := recover(); r != nil {
			cReadPanics.Inc()
			out = readOutcome{err: fmt.Errorf("core: read mapping panicked: %v", r)}
		}
	}()
	if err := fpMapRead.Fire(); err != nil {
		return readOutcome{err: err}
	}
	alns, st := e.MapRead(q)
	return readOutcome{alns: alns, st: st}
}

// runRead maps one read under an optional wall-clock budget. With no
// budget it runs inline. With a budget it runs under a watchdog: on
// expiry the read's goroutine is abandoned (reported via abandoned so
// the caller retires the engine — its scratch may still be mutated by
// the stray goroutine) and the read fails with a deadline error.
func runRead(e *Darwin, q dna.Seq, budget time.Duration) (out readOutcome, abandoned bool) {
	if budget <= 0 {
		return mapReadRecovered(e, q), false
	}
	ch := make(chan readOutcome, 1)
	go func() { ch <- mapReadRecovered(e, q) }()
	timer := time.NewTimer(budget)
	defer timer.Stop()
	select {
	case o := <-ch:
		return o, false
	case <-timer.C:
		cReadExpiry.Inc()
		return readOutcome{err: fmt.Errorf("core: read exceeded per-read deadline %v: %w", budget, context.DeadlineExceeded)}, true
	}
}

// cloneWorker is one goroutine of a clone pool and the private engine
// it maps on; work may replace e (Map retires an engine whose read was
// abandoned).
type cloneWorker struct {
	e   *Darwin
	tid int // 1-based, the worker's trace thread id
}

// startClones is the one clone-per-worker loop behind Darwin.Map and
// Overlapper.Run: n goroutines, each owning a Clone of d, call work for
// every index the caller sends on feed. queue is feed's buffer, so a
// caller that must not block while workers are busy (Run's merging
// goroutine) sizes it to its in-flight window; 0 hands indices over
// synchronously. All clones are made before any goroutine starts, so a
// Clone error leaves nothing running. join closes feed and returns
// once every index sent has been worked and every goroutine has
// exited; the caller sends nothing after calling it.
func (d *Darwin) startClones(n, queue int, work func(w *cloneWorker, i int)) (feed chan<- int, join func(), err error) {
	pool := make([]cloneWorker, n)
	for i := range pool {
		e, err := d.Clone()
		if err != nil {
			return nil, nil, err
		}
		pool[i] = cloneWorker{e: e, tid: i + 1}
	}
	next := make(chan int, queue)
	var wg sync.WaitGroup
	for i := range pool {
		wg.Add(1)
		go func(w *cloneWorker) {
			defer wg.Done()
			for i := range next {
				work(w, i)
			}
		}(&pool[i])
	}
	return next, func() {
		close(next)
		wg.Wait()
	}, nil
}

// Map maps every read, in input order, under ctx. It is the primary
// batch entrypoint; MapAll and MapAllContext are deprecated wrappers
// over it.
//
// Cancellation is checked between reads — a read that has entered the
// pipeline always completes (unless WithDeadlinePerRead abandons it),
// the granularity a served request can be dropped at without
// corrupting shared engine state. On cancellation Map returns
// ctx.Err() and no results.
//
// Per-read failures (panics, per-read deadline expiry, injected
// faults) are confined to that read's MapResult.Err; the rest of the
// batch completes normally.
func (d *Darwin) Map(ctx context.Context, reads []dna.Seq, options ...MapOption) ([]MapResult, error) {
	o := ResolveMapOptions(options)
	workers := o.Workers
	if workers <= 0 {
		// A zero or negative worker count is a configuration accident,
		// not a request for zero concurrency: default to one worker per
		// CPU rather than silently running single-threaded.
		workers = runtime.NumCPU()
	}
	if workers > len(reads) {
		workers = len(reads)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Trace hook: under a traced request the batch gets a core.map span
	// with one core.read child per read; untraced callers (CLIs,
	// benchmarks) pay one context lookup and per-read nil checks.
	_, cmSpan := obs.StartSpan(ctx, "core.map")
	defer cmSpan.End()
	cmSpan.SetAttr("reads", int64(len(reads)))
	cmSpan.SetAttr("workers", int64(workers))
	out := make([]MapResult, len(reads))
	prog := NewProgressSink(o.Progress, len(reads))
	if workers <= 1 || len(reads) <= 1 {
		gWorkers.Set(1)
		e := d
		for i, r := range reads {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			readSpan := cmSpan.StartChild("core.read")
			if readSpan != nil {
				readSpan.SetAttr("read", int64(i))
				e.engine.SetSpan(readSpan)
			}
			busy := time.Now()
			oc, abandoned := runRead(e, r, o.DeadlinePerRead)
			tWorkerBusy.Observe(time.Since(busy))
			if readSpan != nil {
				e.engine.SetSpan(nil)
				finishReadSpan(readSpan, busy, oc)
			}
			out[i] = MapResult{Index: i, Alignments: oc.alns, Stats: oc.st, Err: oc.err}
			if abandoned {
				ne, cerr := d.Clone()
				if cerr != nil {
					return nil, cerr
				}
				e = ne
			}
			prog.Step()
		}
		return out, nil
	}
	gWorkers.Set(int64(workers))
	workerErrs := make([]error, workers)
	next, join, err := d.startClones(workers, 0, func(w *cloneWorker, i int) {
		if ctx.Err() != nil || workerErrs[w.tid-1] != nil {
			return // drain remaining indices without mapping
		}
		endSpan := obs.Trace.StartTID("core.map_read.worker", w.tid)
		readSpan := cmSpan.StartChild("core.read")
		if readSpan != nil {
			readSpan.SetAttr("read", int64(i))
			readSpan.SetAttr("worker", int64(w.tid))
			w.e.engine.SetSpan(readSpan)
		}
		busy := time.Now()
		oc, abandoned := runRead(w.e, reads[i], o.DeadlinePerRead)
		tWorkerBusy.Observe(time.Since(busy))
		if readSpan != nil {
			w.e.engine.SetSpan(nil)
			finishReadSpan(readSpan, busy, oc)
		}
		endSpan()
		out[i] = MapResult{Index: i, Alignments: oc.alns, Stats: oc.st, Err: oc.err}
		if abandoned {
			ne, cerr := d.Clone()
			if cerr != nil {
				workerErrs[w.tid-1] = cerr
				return
			}
			w.e = ne
		}
		prog.Step()
	})
	if err != nil {
		return nil, err
	}
feed:
	for i := range reads {
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	join()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range workerErrs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// MapAll maps every read using the given number of worker goroutines
// (1 runs inline; <= 0 defaults to runtime.NumCPU()). Results are
// returned in input order; workers use cloned engines so bin state
// never races.
//
// Deprecated: use Map with WithWorkers.
func (d *Darwin) MapAll(reads []dna.Seq, workers int) ([]MapResult, error) {
	return d.Map(context.Background(), reads, WithWorkers(workers))
}

// MapAllContext is MapAll with cancellation between reads.
//
// Deprecated: use Map with WithWorkers.
func (d *Darwin) MapAllContext(ctx context.Context, reads []dna.Seq, workers int) ([]MapResult, error) {
	return d.Map(ctx, reads, WithWorkers(workers))
}
