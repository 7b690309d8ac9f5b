package shard

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/dsoft"
	"darwin/internal/obs"
	"darwin/internal/seedtable"
)

// Scatter/gather wall time is the shard-specific split on top of the
// stage/filter and stage/align timers the dsoft and gact packages
// record themselves; the per-read core/* roll-ups come from the shared
// per-read body (core.Batch.Read), so downstream tooling reads
// core/reads as "reads mapped" without caring which engine mapped them.
var (
	tScatter = obs.Default.Timer("shard/scatter")
	tGather  = obs.Default.Timer("shard/gather")
)

// gcand is a D-SOFT candidate lifted into global reference coordinates.
type gcand struct {
	RefPos   int
	QueryPos int
}

// worker is one goroutine's mutable machinery: a D-SOFT filter rebound
// across shard tables (bin arrays sized once to the largest extent), a
// private GACT kernel, and a candidate scratch buffer.
type worker struct {
	core.Parts
	buf []dsoft.Candidate
}

// perRead accumulates one read's scatter output across shards.
type perRead struct {
	strand [2][]gcand // forward, reverse
	stats  core.MapStats
	// err poisons this read only: a panic in its scatter work fails the
	// read, never the batch.
	err error
}

// ScatterMapper implements core.Mapper over a shard Set. Batch mapping
// is shard-major: the outer loop walks shards, so each shard's table is
// built at most once per batch no matter how small the residency
// budget, and reads are spread across workers within a shard. The
// gather phase then merges each read's core-owned candidates in global
// coordinates, reproduces the monolithic engine's candidate order and
// MaxCandidates truncation exactly, and GACT-extends against the full
// resident reference — making alignments bit-identical to core.Darwin.
//
// A ScatterMapper is not safe for concurrent use (its workers are
// private to a running call); use Clone for additional goroutines.
// Clones share the Set, so concurrent clones also share the residency
// budget.
type ScatterMapper struct {
	set     *Set
	cfg     core.Config
	workers []*worker
}

// New builds a ScatterMapper over ref. The reference is partitioned
// and masked now; shard seed tables are built lazily during mapping.
func New(ref dna.Seq, cfg core.Config, scfg Config) (*ScatterMapper, error) {
	if len(ref) == 0 {
		return nil, fmt.Errorf("shard: empty reference")
	}
	m := &ScatterMapper{cfg: cfg}
	// The first worker doubles as up-front validation of the filter and
	// kernel configuration, as core.New does, so a bad config fails at
	// construction rather than mid-batch.
	if err := m.ensureWorkers(1); err != nil {
		return nil, err
	}
	set, err := NewSet(ref, cfg, scfg)
	if err != nil {
		return nil, err
	}
	m.set = set
	return m, nil
}

// FromSet builds a ScatterMapper over an existing Set — the
// persistent-index path, where the Set was constructed by
// NewSetPrebuilt around a mapped file's geometry and table loader.
// The configuration is validated exactly as New does.
func FromSet(set *Set, cfg core.Config) (*ScatterMapper, error) {
	if set == nil {
		return nil, fmt.Errorf("shard: nil set")
	}
	m := &ScatterMapper{set: set, cfg: cfg}
	if err := m.ensureWorkers(1); err != nil {
		return nil, err
	}
	return m, nil
}

// NewMulti is New over a multi-sequence reference, concatenated with
// the same N padding the monolithic engine uses.
func NewMulti(recs []dna.Record, cfg core.Config, scfg Config) (*ScatterMapper, *core.Reference, error) {
	ref, err := core.NewReference(recs, cfg.BinSize)
	if err != nil {
		return nil, nil, err
	}
	m, err := New(ref.Seq(), cfg, scfg)
	if err != nil {
		return nil, nil, err
	}
	return m, ref, nil
}

// Set returns the underlying shard set (residency snapshots, budgets).
func (m *ScatterMapper) Set() *Set { return m.set }

// Ref returns the concatenated reference.
func (m *ScatterMapper) Ref() dna.Seq { return m.set.ref }

// Config returns the engine configuration.
func (m *ScatterMapper) Config() core.Config { return m.cfg }

// IndexBuildTime reports cumulative shard index construction time
// (global mask pass plus all shard builds so far).
func (m *ScatterMapper) IndexBuildTime() time.Duration { return m.set.BuildTime() }

// Clone returns a mapper sharing the shard set (and its budget) with
// private scratch state.
func (m *ScatterMapper) Clone() (*ScatterMapper, error) {
	return &ScatterMapper{set: m.set, cfg: m.cfg}, nil
}

// CloneMapper implements core.Mapper.
func (m *ScatterMapper) CloneMapper() (core.Mapper, error) { return m.Clone() }

// newWorker builds one worker's private state; table (nil in the
// gather phase) is the shard table its filter starts bound to.
func (m *ScatterMapper) newWorker(table *seedtable.Table) (*worker, error) {
	parts, err := core.NewParts(nil, m.cfg)
	if err != nil {
		return nil, err
	}
	return &worker{Parts: parts}, parts.Filter.SetTable(table)
}

// ensureWorkers grows the worker pool to n states.
func (m *ScatterMapper) ensureWorkers(n int) error {
	for len(m.workers) < n {
		w, err := m.newWorker(nil)
		if err != nil {
			return err
		}
		m.workers = append(m.workers, w)
	}
	return nil
}

// MapRead maps one read through the sharded pipeline. Equivalent to
// core.Darwin.MapRead up to instrumentation: alignments and candidate
// counts are bit-identical; DSOFT work stats count per-shard work (a
// read's seeds are issued against every shard's table), so SeedsIssued
// and friends scale with the shard count.
func (m *ScatterMapper) MapRead(q dna.Seq) ([]core.ReadAlignment, core.MapStats) {
	res, err := m.Map(context.Background(), []dna.Seq{q}, core.WithWorkers(1))
	if err != nil || len(res) != 1 || res[0].Err != nil {
		// Background context never cancels; shard builds were validated
		// at construction. Treat any residual failure as unmapped.
		return nil, core.MapStats{}
	}
	return res[0].Alignments, res[0].Stats
}

// Map maps a batch with cancellation between reads and between shards.
// Results are in input order and deterministic for any worker count
// and any shard geometry: each read's merged candidates are sorted
// into the monolithic engine's emission order before truncation, and
// alignments pass through core.SortAlignments.
//
// Per-read failures — a panic in a read's filter or extension work, an
// injected core/map_read fault, or a core.WithDeadlinePerRead budget
// blown — land in that read's MapResult.Err while the rest of the
// batch completes. The per-read deadline bounds a read's extension
// phase (core's watchdog around the gather of that read); its D-SOFT
// passes run interleaved with every other read's, shard by shard, and
// are not charged to it.
func (m *ScatterMapper) Map(ctx context.Context, reads []dna.Seq, options ...core.MapOption) ([]core.MapResult, error) {
	ids := make([]int, len(m.set.shards))
	for i := range ids {
		ids[i] = i
	}
	return m.run(ctx, "shard.map", reads, ids, m.cfg.MaxCandidates, core.ResolveMapOptions(options), nil)
}

// run is the sharded executor behind Map and ScatterShards, which
// differ only in the shard subset and the truncation point: scatter
// D-SOFT over the shards in ids (ascending), then per read order the
// core-owned candidates, keep the first limit per strand (0 = all),
// GACT-extend them and fold the outcomes into a MapResult. When wire
// is non-nil each extended candidate's outcome is also recorded in
// wire[read] — the sub-response form, which the in-process path never
// pays for.
func (m *ScatterMapper) run(ctx context.Context, span string, reads []dna.Seq, ids []int, limit int, o core.MapSettings, wire []ReadScatter) ([]core.MapResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b := core.NewBatch(len(reads), o)
	if err := m.ensureWorkers(b.Workers); err != nil {
		return nil, err
	}
	// Trace hook: under a traced request the batch gets a span with
	// scatter/gather phase children; untraced callers pay one context
	// lookup and nil checks.
	_, mSpan := obs.StartSpan(ctx, span)
	defer mSpan.End()
	mSpan.SetAttr("reads", int64(len(reads)))
	mSpan.SetAttr("workers", int64(b.Workers))
	mSpan.SetAttr("shards", int64(len(ids)))

	// Reverse-complement every read once; both phases reuse them.
	revs := make([]dna.Seq, len(reads))
	for i, r := range reads {
		revs[i] = dna.RevComp(r)
	}
	acc := make([]perRead, len(reads))

	scatterStart := time.Now()
	scSpan := mSpan.StartChild("shard.scatter")
	defer scSpan.End() // idempotent; covers the error return
	hits0, builds0 := cAcquireHits.Value(), cBuilds.Value()
	if err := m.scatter(ctx, b.Workers, reads, revs, ids, acc); err != nil {
		return nil, err
	}
	tScatter.Observe(time.Since(scatterStart))
	// Process-wide counter deltas, so concurrent clones sharing the Set
	// blur each other's numbers slightly; per-call exactness is not
	// worth threading counters through Acquire.
	scSpan.SetAttr("shard_hits", cAcquireHits.Value()-hits0)
	scSpan.SetAttr("shard_builds", cBuilds.Value()-builds0)
	scSpan.End()

	// Gather: per-read candidate merge, truncation, GACT extension
	// against the full resident reference at global anchors.
	gatherStart := time.Now()
	b.Parent = mSpan.StartChild("shard.gather")
	defer b.Parent.End()
	out := make([]core.MapResult, len(reads))
	err := core.ForEach(ctx, b.Workers, len(reads), func(tid, i int) error {
		w := m.workers[tid-1]
		var retire bool
		out[i], retire = b.Read(tid, i, w.Engine, func() ([]core.ReadAlignment, core.MapStats, error) {
			var sub *ReadScatter
			if wire != nil {
				sub = &wire[i]
			}
			return m.gather(w, &acc[i], reads[i], revs[i], limit, sub)
		})
		if retire {
			var err error
			m.workers[tid-1], err = m.newWorker(nil)
			return err
		}
		return nil
	})
	tGather.Observe(time.Since(gatherStart))
	if err != nil {
		return nil, err
	}
	return out, nil
}

// scatter is the shard-major D-SOFT phase: for each shard in ids, bind
// every worker's filter to its table (acquired once per batch) and
// query every read, appending the core-owned candidates to the read's
// accumulator in global coordinates. Each accumulator has one writer at
// a time, and the gather sorts, so the result does not depend on which
// worker took which read.
func (m *ScatterMapper) scatter(ctx context.Context, workers int, reads, revs []dna.Seq, ids []int, acc []perRead) error {
	for _, si := range ids {
		if err := ctx.Err(); err != nil {
			return err
		}
		table, err := m.set.Acquire(si)
		if err != nil {
			return err
		}
		part := m.set.shards[si].part
		for _, w := range m.workers[:workers] {
			if err := w.Filter.SetTable(table); err != nil {
				return err
			}
		}
		err = core.ForEach(ctx, workers, len(reads), func(tid, i int) error {
			pr := &acc[i]
			if pr.err != nil {
				return nil // poisoned by an earlier shard's pass; skip
			}
			if pr.err = scatterRead(m.workers[tid-1], pr, reads[i], revs[i], part); pr.err != nil {
				// The filter's bin state may be mid-update after a
				// panic; replace the worker before its next read.
				var err error
				m.workers[tid-1], err = m.newWorker(table)
				return err
			}
			return nil
		})
		// Unpin the shard table from every worker before the next
		// shard (or an early return) so eviction can reclaim it.
		for _, w := range m.workers[:workers] {
			w.Filter.SetTable(nil)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// scatterRead runs one read's D-SOFT pass over one shard with panic
// isolation: a panic (a poisoned read crashing the filter) fails the
// read, never the batch or the worker.
func scatterRead(w *worker, pr *perRead, fwd, rev dna.Seq, part Part) (err error) {
	defer func() {
		if perr := core.PanicError(recover()); perr != nil {
			err = perr
		}
	}()
	for strand, query := range []dna.Seq{fwd, rev} {
		start := time.Now()
		cands, dst := w.Filter.QueryInto(query, w.buf[:0])
		w.buf = cands
		pr.stats.DSOFT.Add(dst)
		for _, c := range cands {
			gpos := c.RefPos + part.Extent.Start
			if part.Core.Contains(gpos) {
				pr.strand[strand] = append(pr.strand[strand], gcand{RefPos: gpos, QueryPos: c.QueryPos})
			}
		}
		pr.stats.FiltrationTime += time.Since(start)
	}
	return nil
}

// sortCandidates orders one strand's candidates the way the monolithic
// filter emits them: ascending (QueryPos, RefPos) — seeds advance
// through the query and each seed's hit list is position-sorted — and
// no two candidates share a (QueryPos, RefPos) pair. Sorting per-shard
// lists merged in any order by that key therefore reproduces the
// monolithic order exactly, so a MaxCandidates cut keeps the same
// prefix.
func sortCandidates[T any](cs []T, anchor func(T) (queryPos, refPos int)) {
	slices.SortFunc(cs, func(a, b T) int {
		aq, ar := anchor(a)
		bq, br := anchor(b)
		return cmp.Or(cmp.Compare(aq, bq), cmp.Compare(ar, br))
	})
}

// truncate applies the per-strand candidate limit (0 = none).
func truncate[T any](cs []T, limit int) []T {
	if limit > 0 && len(cs) > limit {
		return cs[:limit]
	}
	return cs
}

// gather is one read's gather phase: per strand, order the scattered
// candidates, keep the first limit, GACT-extend each against the full
// reference at its global anchor and fold the outcome into the read's
// alignments and statistics. It runs inside core.Batch.Read, which
// supplies panic isolation, the fault point and the deadline.
func (m *ScatterMapper) gather(w *worker, pr *perRead, fwd, rev dna.Seq, limit int, sub *ReadScatter) ([]core.ReadAlignment, core.MapStats, error) {
	if pr.err != nil {
		return nil, core.MapStats{}, pr.err
	}
	var alns []core.ReadAlignment
	stats := pr.stats
	for strand, query := range []dna.Seq{fwd, rev} {
		cs := pr.strand[strand]
		sortCandidates(cs, func(c gcand) (int, int) { return c.QueryPos, c.RefPos })
		stats.Candidates += len(cs)
		cs = truncate(cs, limit)
		if sub != nil {
			sub.Strand[strand] = make([]CandExt, 0, len(cs))
		}
		start := time.Now()
		for _, c := range cs {
			res, gst, err := w.Engine.Extend(m.set.ref, query, c.RefPos, c.QueryPos)
			if err == nil { // else invalid anchor geometry; candidate is unusable
				alns = stats.AddExtension(alns, res, gst, strand == 1)
			}
			if sub != nil {
				sub.Strand[strand] = append(sub.Strand[strand], wireForm(c, res, gst, err))
			}
		}
		stats.AlignmentTime += time.Since(start)
	}
	return alns, stats, nil
}
