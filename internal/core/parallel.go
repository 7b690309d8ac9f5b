package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"darwin/internal/dna"
	"darwin/internal/obs"
)

// Batch observability: the worker gauge plus a busy-time timer, so
// utilization = core/worker_busy seconds / (wall × core/workers) is
// derivable from any run report, whichever engine mapped the batch.
// core/map times a monolithic Map call; stage/filter and stage/align,
// recorded by dsoft and gact, name a read's span children.
var (
	gWorkers    = obs.Default.Gauge("core/workers")
	tMap        = obs.Default.Timer("core/map")
	tWorkerBusy = obs.Default.Timer("core/worker_busy")
	tFilter     = obs.Default.Timer("stage/filter")
	tAlign      = obs.Default.Timer("stage/align")
	cReadPanics = obs.Default.Counter("core/read_panics")
)

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
	// mid-pipeline or hit an injected fault — while the rest of the
	// batch completed normally. A batch-level failure (cancelled
	// context) is returned by Map itself.
	Err error
}

// MapSettings is the resolved option set for one Map call. Mapper
// implementations outside this package (internal/shard) interpret
// options through ResolveMapOptions, so the two engines read one
// option vocabulary.
type MapSettings struct {
	// Workers is the worker-goroutine count (0 = DefaultWorkers).
	Workers int
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
// the calling goroutine; <= 0 (and the default) uses DefaultWorkers.
// Workers beyond len(reads) are not spawned.
func WithWorkers(n int) MapOption {
	return func(o *MapSettings) { o.Workers = n }
}

// DefaultWorkers resolves every worker-count setting (WithWorkers,
// ScatterShards, OverlapRun.Workers, olc.WithWorkers): n when positive,
// otherwise one worker per CPU the scheduler may use — a zero or
// negative count is a configuration accident, not a request for zero
// concurrency.
func DefaultWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// startWorkers is the one worker loop behind every batch pass: n
// goroutines call work(tid, i), tid in 1..n, for every index the caller
// sends on feed. queue is feed's buffer, so a caller that must not
// block while workers are busy (Overlapper.Run's merging goroutine)
// sizes it to its in-flight window; 0 hands indices over synchronously.
// join closes feed and returns once every index sent has been worked
// and every goroutine has exited; the caller sends nothing after
// calling it.
func startWorkers(n, queue int, work func(tid, i int)) (feed chan<- int, join func()) {
	next := make(chan int, queue)
	var wg sync.WaitGroup
	for tid := 1; tid <= n; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := range next {
				work(tid, i)
			}
		}(tid)
	}
	return next, func() {
		close(next)
		wg.Wait()
	}
}

// ForEach calls work(tid, i) for every i in [0, n): inline as worker 1
// when workers <= 1, otherwise on that many goroutines, each index
// handed to whichever is free. It returns ctx.Err() if ctx was
// cancelled — checked between indices, so work already started always
// finishes — else the first error a worker returned; that worker stops
// at its error and the others drain the remaining indices.
func ForEach(ctx context.Context, workers, n int, work func(tid, i int) error) error {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := work(1, i); err != nil {
				return err
			}
		}
		return ctx.Err()
	}
	errs := make([]error, workers)
	feed, join := startWorkers(workers, 0, func(tid, i int) {
		if ctx.Err() == nil && errs[tid-1] == nil {
			errs[tid-1] = work(tid, i)
		}
	})
send:
	for i := 0; i < n; i++ {
		select {
		case feed <- i:
		case <-ctx.Done():
			break send
		}
	}
	join()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Batch is the state the reads of one Map call share: the workers they
// run on, taken from the engine's Pool, and the span their
// core/worker_busy spans hang under. Both engines' Map and
// Overlapper.Run build one with NewBatch, run every read through Read
// and give the workers back with Close.
type Batch struct {
	// Workers is the resolved worker count: DefaultWorkers of the
	// setting, at most one per read, at least 1.
	Workers int
	// Parent is the span each read's core/worker_busy span is opened
	// under (nil when the call is untraced).
	Parent *obs.Span

	pool *Pool
	ws   []*Worker
}

// NewBatch resolves o for a batch of n reads, takes that many workers
// from pool and records the count in the core/workers gauge.
func NewBatch(pool *Pool, n int, o MapSettings) *Batch {
	workers := max(min(DefaultWorkers(o.Workers), n), 1)
	gWorkers.Set(int64(workers))
	return &Batch{Workers: workers, pool: pool, ws: pool.Take(workers)}
}

// Worker returns the machinery of worker tid (1..Workers).
func (b *Batch) Worker(tid int) *Worker { return b.ws[tid-1] }

// Retire drops worker tid, whose state a panic may have left
// half-updated, and returns the fresh worker that replaces it.
func (b *Batch) Retire(tid int) *Worker {
	b.ws[tid-1] = b.pool.Get()
	return b.ws[tid-1]
}

// Close puts the batch's workers back in the pool. A caller that is
// unwinding from a panic skips it, so those workers are dropped.
func (b *Batch) Close() {
	b.pool.Put(b.ws...)
	b.ws = nil
}

// readOutcome is one guarded read's result; retire marks a read that
// panicked, so the worker it ran on may be mid-update.
type readOutcome struct {
	alns   []ReadAlignment
	st     MapStats
	err    error
	retire bool
}

// Read is the one guarded per-read body of every batch path: it maps
// read i on worker tid by calling mapRead inside the safety envelope
// and the per-read instrumentation, in this order — open the read's
// core/worker_busy stage on lane tid (the worker's GACT engine records
// its extensions into its span), run mapRead under panic recovery and
// the core/map_read fault point, end the stage, sort and publish the
// alignments, annotate the span. mapRead returns the read's alignments
// in any order; its error or a panic becomes the MapResult's Err and
// never leaves this read. A worker a panic ran through is retired.
func (b *Batch) Read(tid, i int, mapRead func(w *Worker) ([]ReadAlignment, MapStats, error)) MapResult {
	w := b.Worker(tid)
	busy := tWorkerBusy.StartOn(b.Parent, tid)
	sp := busy.Span()
	if sp != nil {
		sp.SetAttr("read", int64(i))
		sp.SetAttr("worker", int64(tid))
		w.Engine.SetSpan(sp)
	}
	oc := runRecovered(w, mapRead)
	elapsed := busy.End()
	if oc.err == nil {
		SortAlignments(oc.alns)
		publishRead(oc.alns, &oc.st, elapsed)
	}
	if sp != nil {
		w.Engine.SetSpan(nil)
		annotateReadSpan(sp, busy.Start(), oc)
	}
	if oc.retire {
		b.Retire(tid)
	}
	return MapResult{Index: i, Alignments: oc.alns, Stats: oc.st, Err: oc.err}
}

// annotateReadSpan fills in one read's closed span: work attributes
// from the read's MapStats, plus stage/filter and stage/align children
// carrying the same per-read durations the Registry's stage timers
// aggregate — so a captured tree splits one read's latency the same
// way the process-wide timers split the fleet's. The filter span is
// anchored at the read's start and the align span immediately after
// it: the pipeline's phase order in the monolithic engine, and where
// the read's time went, not when, in the sharded one (its filter passes
// ran earlier, interleaved with other reads').
func annotateReadSpan(sp *obs.Span, start time.Time, oc readOutcome) {
	st := oc.st
	sp.SetAttr("candidates", int64(st.Candidates))
	sp.SetAttr("passed_htile", int64(st.PassedHTile))
	sp.SetAttr("tiles", int64(st.Tiles))
	sp.SetAttr("cells", st.Cells)
	sp.SetAttr("alignments", int64(len(oc.alns)))
	if oc.err != nil {
		sp.SetAttr("failed", 1)
	}
	sp.AddTimedChild(tFilter, start, st.FiltrationTime)
	sp.AddTimedChild(tAlign, start.Add(st.FiltrationTime), st.AlignmentTime)
}

// PanicError turns a recovered panic value into a per-read error and
// counts it in core/read_panics; nil in, nil out. It must be handed
// recover()'s result from directly inside the deferred function:
//
//	defer func() {
//		if perr := core.PanicError(recover()); perr != nil { err = perr }
//	}()
func PanicError(r any) error {
	if r == nil {
		return nil
	}
	cReadPanics.Inc()
	return fmt.Errorf("core: read mapping panicked: %v", r)
}

// runRecovered runs one read on w with panic isolation: a panic
// anywhere in the filter/extend pipeline (or injected at the
// core/map_read fault point) becomes this read's error instead of
// killing the goroutine. The fault point fires inside the recover scope
// so injected panics exercise the same containment as organic ones.
func runRecovered(w *Worker, mapRead func(w *Worker) ([]ReadAlignment, MapStats, error)) (oc readOutcome) {
	defer func() {
		if err := PanicError(recover()); err != nil {
			oc = readOutcome{err: err, retire: true}
		}
	}()
	if err := fpMapRead.Fire(); err != nil {
		return readOutcome{err: err}
	}
	alns, st, err := mapRead(w)
	return readOutcome{alns: alns, st: st, err: err}
}

// Map maps every read, in input order, under ctx: the primary batch
// entrypoint. It may be called from any number of goroutines at once.
//
// Cancellation is checked between reads — a read that has entered the
// pipeline always completes, the granularity a served request can be
// dropped at without corrupting a worker's state. On cancellation Map
// returns ctx.Err() and no results.
//
// Per-read failures (panics, injected faults) are confined to that
// read's MapResult.Err; the rest of the batch completes normally.
func (d *Darwin) Map(ctx context.Context, reads []dna.Seq, options ...MapOption) ([]MapResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b := NewBatch(d.pool, len(reads), ResolveMapOptions(options))
	// Under a traced request the batch's core/map stage is a span with
	// one core/worker_busy child per read; untraced callers (CLIs,
	// benchmarks) pay one context lookup and per-read nil checks.
	stage := tMap.Start(obs.SpanFromContext(ctx))
	defer stage.End()
	b.Parent = stage.Span()
	b.Parent.SetAttr("reads", int64(len(reads)))
	b.Parent.SetAttr("workers", int64(b.Workers))
	out := make([]MapResult, len(reads))
	err := ForEach(ctx, b.Workers, len(reads), func(tid, i int) error {
		out[i] = b.Read(tid, i, func(w *Worker) ([]ReadAlignment, MapStats, error) {
			alns, st := d.mapRead(w, reads[i], nil)
			return alns, st, nil
		})
		return nil
	})
	b.Close()
	if err != nil {
		return nil, err
	}
	return out, nil
}
