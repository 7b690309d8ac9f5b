package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"darwin/internal/dna"
	"darwin/internal/gact"
	"darwin/internal/obs"
)

// Batch observability: the worker gauge plus a busy-time timer, so
// utilization = core/worker_busy seconds / (wall × core/workers) is
// derivable from any run report, whichever engine mapped the batch.
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
	return assemble(d.ref, d.table, d.cfg, d.TableBuildTime)
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
	// Workers is the worker-goroutine count (0 = DefaultWorkers).
	Workers int
	// DeadlinePerRead bounds one read's wall-clock mapping time
	// (0 = unbounded).
	DeadlinePerRead time.Duration
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
// the receiver; <= 0 (and the default) uses DefaultWorkers. Workers
// beyond len(reads) are not spawned.
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

// WithDeadlinePerRead bounds each individual read's wall-clock mapping
// time. A read that exceeds the budget gets MapResult.Err wrapping
// context.DeadlineExceeded while the rest of the batch proceeds: the
// stuck read's goroutine is abandoned (it cannot be interrupted
// mid-DP-tile) and its worker continues on fresh private state, so one
// pathological read costs one engine clone, never the batch. (The
// sharded mapper runs the same watchdog around a read's extension
// phase; its D-SOFT passes are interleaved with other reads' in
// shard-major order and are not charged.) Zero or negative disables
// the bound (the default).
func WithDeadlinePerRead(d time.Duration) MapOption {
	return func(o *MapSettings) { o.DeadlinePerRead = d }
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

// clonePool returns n clones of d, one per worker goroutine. All are
// made up front, so a Clone error leaves nothing running.
func (d *Darwin) clonePool(n int) ([]*Darwin, error) {
	pool := make([]*Darwin, n)
	for i := range pool {
		e, err := d.Clone()
		if err != nil {
			return nil, err
		}
		pool[i] = e
	}
	return pool, nil
}

// Batch is the state the reads of one Map call share: the resolved
// worker count, the span their core.read spans hang under and the
// per-read deadline. Both engines' Map build one and run every read
// through Read.
type Batch struct {
	// Workers is the resolved worker count: DefaultWorkers of the
	// setting, at most one per read, at least 1.
	Workers int
	// Parent is the span each read's core.read span is opened under
	// (nil when the call is untraced).
	Parent *obs.Span

	budget time.Duration
}

// NewBatch resolves o for a batch of n reads and records the worker
// count in the core/workers gauge.
func NewBatch(n int, o MapSettings) *Batch {
	workers := max(min(DefaultWorkers(o.Workers), n), 1)
	gWorkers.Set(int64(workers))
	return &Batch{Workers: workers, budget: o.DeadlinePerRead}
}

// readOutcome is one guarded read's result. retire marks the private
// state the read ran on as no longer trustworthy: it panicked
// mid-update, or its goroutine was abandoned at the deadline and may
// still be mutating it.
type readOutcome struct {
	alns   []ReadAlignment
	st     MapStats
	err    error
	retire bool
}

// Read is the one guarded per-read body of every batch path: it maps
// read i on worker tid by calling mapRead inside the safety envelope
// and the per-read instrumentation, in this order — open the core.read
// span (engine records its extensions into it), run mapRead under panic
// recovery, the core/map_read fault point and the per-read deadline,
// charge core/worker_busy, sort and publish the alignments, close the
// span. mapRead returns the read's alignments in any order; its error,
// a panic or a blown deadline all become the MapResult's Err and never
// leave this read.
//
// retire reports that the private state mapRead ran on can no longer be
// trusted (see readOutcome), so the caller must give worker tid fresh
// state before its next read.
func (b *Batch) Read(tid, i int, engine *gact.Engine, mapRead func() ([]ReadAlignment, MapStats, error)) (res MapResult, retire bool) {
	endTrace := obs.Trace.StartTID("core.map_read.worker", tid)
	sp := b.Parent.StartChild("core.read")
	if sp != nil {
		sp.SetAttr("read", int64(i))
		sp.SetAttr("worker", int64(tid))
		engine.SetSpan(sp)
	}
	busy := time.Now()
	oc := runGuarded(mapRead, b.budget)
	elapsed := time.Since(busy)
	tWorkerBusy.Observe(elapsed)
	if oc.err == nil {
		SortAlignments(oc.alns)
		publishRead(oc.alns, &oc.st, elapsed)
	}
	if sp != nil {
		engine.SetSpan(nil)
		finishReadSpan(sp, busy, oc)
	}
	endTrace()
	return MapResult{Index: i, Alignments: oc.alns, Stats: oc.st, Err: oc.err}, oc.retire
}

// finishReadSpan closes one read's trace span: work attributes from
// the read's MapStats, plus synthesized stage/filter and stage/align
// children carrying the same per-read durations the Registry's stage
// timers aggregate — so a captured tree splits one read's latency the
// same way the process-wide timers split the fleet's. The filter span
// is anchored at the read's start and the align span immediately after
// it: the pipeline's phase order in the monolithic engine, and where
// the read's time went, not when, in the sharded one (its filter passes
// ran earlier, interleaved with other reads').
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

// runRecovered runs one read with panic isolation: a panic anywhere in
// the filter/extend pipeline (or injected at the core/map_read fault
// point) becomes this read's error instead of killing the worker. The
// fault point fires inside the recover scope so injected panics
// exercise the same containment as organic ones.
func runRecovered(mapRead func() ([]ReadAlignment, MapStats, error)) (oc readOutcome) {
	defer func() {
		if err := PanicError(recover()); err != nil {
			oc = readOutcome{err: err, retire: true}
		}
	}()
	if err := fpMapRead.Fire(); err != nil {
		return readOutcome{err: err}
	}
	alns, st, err := mapRead()
	return readOutcome{alns: alns, st: st, err: err}
}

// runGuarded is runRecovered under an optional wall-clock budget. With
// no budget it runs inline. With a budget it runs under a watchdog: on
// expiry the read's goroutine is abandoned and the read fails with a
// deadline error.
func runGuarded(mapRead func() ([]ReadAlignment, MapStats, error), budget time.Duration) readOutcome {
	if budget <= 0 {
		return runRecovered(mapRead)
	}
	ch := make(chan readOutcome, 1)
	go func() { ch <- runRecovered(mapRead) }()
	timer := time.NewTimer(budget)
	defer timer.Stop()
	select {
	case oc := <-ch:
		return oc
	case <-timer.C:
		cReadExpiry.Inc()
		return readOutcome{
			err:    fmt.Errorf("core: read exceeded per-read deadline %v: %w", budget, context.DeadlineExceeded),
			retire: true,
		}
	}
}

// Map maps every read, in input order, under ctx: the primary batch
// entrypoint.
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
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b := NewBatch(len(reads), ResolveMapOptions(options))
	// Trace hook: under a traced request the batch gets a core.map span
	// with one core.read child per read; untraced callers (CLIs,
	// benchmarks) pay one context lookup and per-read nil checks.
	_, b.Parent = obs.StartSpan(ctx, "core.map")
	defer b.Parent.End()
	b.Parent.SetAttr("reads", int64(len(reads)))
	b.Parent.SetAttr("workers", int64(b.Workers))
	// One worker maps inline on the receiver; more map on clones so bin
	// state never races. So does a lone worker under a deadline: an
	// abandoned read's goroutine keeps mutating the engine it ran on,
	// which must then be one this call owns, not one the caller reuses.
	pool := []*Darwin{d}
	if b.Workers > 1 || b.budget > 0 {
		var err error
		if pool, err = d.clonePool(b.Workers); err != nil {
			return nil, err
		}
	}
	out := make([]MapResult, len(reads))
	err := ForEach(ctx, b.Workers, len(reads), func(tid, i int) error {
		e := pool[tid-1]
		var retire bool
		out[i], retire = b.Read(tid, i, e.engine, func() ([]ReadAlignment, MapStats, error) {
			alns, st := e.mapRead(reads[i], nil)
			return alns, st, nil
		})
		if retire {
			var err error
			pool[tid-1], err = d.Clone()
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
