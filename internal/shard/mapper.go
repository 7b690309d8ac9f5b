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
	"darwin/internal/gact"
	"darwin/internal/obs"
)

// Scatter/gather wall time is the shard-specific split on top of the
// stage/filter and stage/align timers the dsoft and gact packages
// record themselves; the per-read core/* roll-ups come from the shared
// per-read body (core.Batch.Read), so downstream tooling reads
// core/reads as "reads mapped" without caring which engine mapped them.
// shard/map and shard/scatter_shards time whole Map and ScatterShards
// calls, the two entries to run.
var (
	tMap           = obs.Default.Timer("shard/map")
	tScatterShards = obs.Default.Timer("shard/scatter_shards")
	tScatter       = obs.Default.Timer("shard/scatter")
	tGather        = obs.Default.Timer("shard/gather")
)

// gcand is a D-SOFT candidate lifted into global reference coordinates.
type gcand struct {
	RefPos   int
	QueryPos int
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
// is pass-major: the outer loop walks D-SOFT passes (one over every
// requested shard on the whole-reference table, one per shard under a
// budget), so each shard's table is built at most once per batch no
// matter how small the residency budget, and reads are spread across
// workers within a pass. The gather phase then merges each read's
// core-owned candidates in global coordinates, reproduces the
// monolithic engine's candidate order and MaxCandidates truncation
// exactly, and GACT-extends against the full resident reference —
// making alignments bit-identical to core.Darwin.
//
// A ScatterMapper is safe for concurrent use: its calls take their
// workers from one core.Pool, and all of them share the Set and so its
// residency budget.
type ScatterMapper struct {
	set  *Set
	cfg  core.Config
	pool *core.Pool
}

// New builds a ScatterMapper over ref. The reference is partitioned
// and indexed now (NewSet); under a residency budget only its mask is,
// and the shard seed tables are built lazily during mapping.
func New(ref dna.Seq, cfg core.Config, scfg Config) (*ScatterMapper, error) {
	if len(ref) == 0 {
		return nil, fmt.Errorf("shard: empty reference")
	}
	// The pool's first worker doubles as up-front validation of the
	// filter and kernel configuration, as core.New's does, so a bad
	// config fails at construction rather than mid-batch.
	pool, err := core.NewPool(nil, cfg)
	if err != nil {
		return nil, err
	}
	set, err := NewSet(ref, cfg, scfg)
	if err != nil {
		return nil, err
	}
	return &ScatterMapper{set: set, cfg: cfg, pool: pool}, nil
}

// FromSet builds a ScatterMapper over an existing Set — the
// persistent-index path, where NewSetFrom built the Set around a
// mapped file's table or mask. The configuration is validated exactly
// as New does.
func FromSet(set *Set, cfg core.Config) (*ScatterMapper, error) {
	if set == nil {
		return nil, fmt.Errorf("shard: nil set")
	}
	pool, err := core.NewPool(nil, cfg)
	if err != nil {
		return nil, err
	}
	return &ScatterMapper{set: set, cfg: cfg, pool: pool}, nil
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
// (Set.BuildTime).
func (m *ScatterMapper) IndexBuildTime() time.Duration { return m.set.BuildTime() }

// Map maps a batch with cancellation between reads and between passes.
// Results are in input order and deterministic for any worker count
// and any shard geometry: each read's merged candidates are sorted
// into the monolithic engine's emission order before truncation, and
// alignments pass through core.SortAlignments.
//
// Per-read failures — a panic in a read's filter or extension work, or
// an injected core/map_read fault — land in that read's MapResult.Err
// while the rest of the batch completes.
func (m *ScatterMapper) Map(ctx context.Context, reads []dna.Seq, options ...core.MapOption) ([]core.MapResult, error) {
	ids := make([]int, len(m.set.shards))
	for i := range ids {
		ids[i] = i
	}
	return m.run(ctx, tMap, reads, ids, m.cfg.MaxCandidates, core.ResolveMapOptions(options), nil)
}

// run is the sharded executor behind Map and ScatterShards, which
// differ only in the shard subset and the truncation point: scatter
// D-SOFT over the shards in ids (ascending), then per read order the
// core-owned candidates, keep the first limit per strand (0 = all),
// GACT-extend them and fold the outcomes into a MapResult. When wire
// is non-nil each extended candidate's outcome is also recorded in
// wire[read] — the sub-response form, which the in-process path never
// pays for. timer times the whole call.
func (m *ScatterMapper) run(ctx context.Context, timer *obs.Timer, reads []dna.Seq, ids []int, limit int, o core.MapSettings, wire []ReadScatter) ([]core.MapResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b := core.NewBatch(m.pool, len(reads), o)
	// Under a traced request the call's stage is a span with
	// scatter/gather phase children; untraced callers pay one context
	// lookup and nil checks.
	stage := timer.Start(obs.SpanFromContext(ctx))
	defer stage.End()
	mSpan := stage.Span()
	mSpan.SetAttr("reads", int64(len(reads)))
	mSpan.SetAttr("workers", int64(b.Workers))
	mSpan.SetAttr("shards", int64(len(ids)))

	// Reverse-complement every read once; both phases reuse them.
	revs := make([]dna.Seq, len(reads))
	for i, r := range reads {
		revs[i] = dna.RevComp(r)
	}
	acc := make([]perRead, len(reads))

	sc := tScatter.Start(mSpan)
	hits0, builds0 := cAcquireHits.Value(), cBuilds.Value()
	err := m.scatter(ctx, b, reads, revs, ids, acc)
	// Process-wide counter deltas, so concurrent calls sharing the Set
	// blur each other's numbers slightly; per-call exactness is not
	// worth threading counters through Acquire.
	sc.Span().SetAttr("shard_hits", cAcquireHits.Value()-hits0)
	sc.Span().SetAttr("shard_builds", cBuilds.Value()-builds0)
	sc.End()
	if err != nil {
		b.Close()
		return nil, err
	}

	// Gather: per-read candidate merge, truncation, GACT extension
	// against the full resident reference at global anchors.
	gather := tGather.Start(mSpan)
	b.Parent = gather.Span()
	out := make([]core.MapResult, len(reads))
	err = core.ForEach(ctx, b.Workers, len(reads), func(tid, i int) error {
		out[i] = b.Read(tid, i, func(w *core.Worker) ([]core.ReadAlignment, core.MapStats, error) {
			var sub *ReadScatter
			if wire != nil {
				sub = &wire[i]
			}
			return m.gather(w, &acc[i], reads[i], revs[i], limit, sub)
		})
		return nil
	})
	gather.End()
	b.Close()
	if err != nil {
		return nil, err
	}
	return out, nil
}

// scatter is the D-SOFT phase: for each pass over the shards in ids
// (ascending; Set.passes), bind the filter of each of b's workers to
// the pass's table, windowed to the span from its first shard's extent
// to its last's (acquired once per batch), and query every read,
// appending the candidates whose global position lies in one of the
// pass's cores to the read's accumulator. Each accumulator has one
// writer at a time, and the gather sorts, so the result does not
// depend on which worker took which read.
func (m *ScatterMapper) scatter(ctx context.Context, b *core.Batch, reads, revs []dna.Seq, ids []int, acc []perRead) error {
	set := m.set
	for _, pass := range set.passes(ids) {
		if err := ctx.Err(); err != nil {
			return err
		}
		table, err := set.Acquire(pass[0])
		if err != nil {
			return err
		}
		first, last := set.shards[pass[0]].part, set.shards[pass[len(pass)-1]].part
		// A shard's own table holds its extent at offset 0; the whole
		// table holds every position where it lies.
		offset := 0
		if set.whole == nil {
			offset = first.Extent.Start
		}
		window := Span{Start: first.Extent.Start - offset, End: last.Extent.End - offset}
		inPass := make([]bool, len(set.shards))
		for _, id := range pass {
			inPass[id] = true
		}
		owned := func(pos int) bool { return inPass[set.geo.OwnerOf(pos)] }
		// bind points a worker's filter at the pass's table and window.
		bind := func(f *dsoft.Filter) error {
			if err := f.SetTable(table); err != nil {
				return err
			}
			f.SetWindow(window.Start, window.End)
			return nil
		}
		for tid := 1; tid <= b.Workers; tid++ {
			if err := bind(b.Worker(tid).Filter); err != nil {
				return err
			}
		}
		err = core.ForEach(ctx, b.Workers, len(reads), func(tid, i int) error {
			pr := &acc[i]
			if pr.err != nil {
				return nil // poisoned by an earlier pass; skip
			}
			if pr.err = scatterRead(b.Worker(tid), pr, reads[i], revs[i], offset, owned); pr.err != nil {
				// The filter's bin state may be mid-update after a
				// panic; replace the worker before its next read.
				return bind(b.Retire(tid).Filter)
			}
			return nil
		})
		// Unpin the pass's table so eviction can reclaim it.
		for tid := 1; tid <= b.Workers; tid++ {
			b.Worker(tid).Filter.SetTable(nil)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// passes groups ids (ascending) into the D-SOFT passes a scatter runs:
// all of them in one pass when every shard maps on the whole-reference
// table — its window spans every requested extent, so each requested
// core's candidates come out exactly, and a seed is ranked once however
// the shards interleave — or one pass per shard over its own table.
func (s *Set) passes(ids []int) [][]int {
	if s.whole != nil {
		return [][]int{ids}
	}
	out := make([][]int, len(ids))
	for i := range ids {
		out[i] = ids[i : i+1]
	}
	return out
}

// scatterRead runs one read's D-SOFT pass with panic isolation: a panic
// (a poisoned read crashing the filter) fails the read, never the batch
// or the worker. offset lifts the table's positions to global
// coordinates, and owned says which of those the pass keeps.
func scatterRead(w *core.Worker, pr *perRead, fwd, rev dna.Seq, offset int, owned func(pos int) bool) (err error) {
	defer func() {
		if perr := core.PanicError(recover()); perr != nil {
			err = perr
		}
	}()
	for strand, query := range []dna.Seq{fwd, rev} {
		start := time.Now()
		cands, dst := w.Query(query)
		pr.stats.DSOFT.Add(dst)
		for _, c := range cands {
			if gpos := c.RefPos + offset; owned(gpos) {
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
// candidates and keep the first limit; then GACT-extend both strands'
// candidates in one batch against the full reference at their global
// anchors and fold each outcome, in order, into the read's alignments
// and statistics. It runs inside core.Batch.Read, which supplies panic
// isolation and the fault point.
func (m *ScatterMapper) gather(w *core.Worker, pr *perRead, fwd, rev dna.Seq, limit int, sub *ReadScatter) ([]core.ReadAlignment, core.MapStats, error) {
	if pr.err != nil {
		return nil, core.MapStats{}, pr.err
	}
	stats := pr.stats
	ext := w.Extensions()
	var kept [2][]gcand
	for strand, query := range []dna.Seq{fwd, rev} {
		cs := pr.strand[strand]
		sortCandidates(cs, func(c gcand) (int, int) { return c.QueryPos, c.RefPos })
		stats.Candidates += len(cs)
		kept[strand] = truncate(cs, limit)
		for _, c := range kept[strand] {
			ext = append(ext, gact.Candidate{R: m.set.ref, Q: query, ISeed: c.RefPos, JSeed: c.QueryPos})
		}
	}
	start := time.Now()
	outs := w.Extend(ext)
	var alns []core.ReadAlignment
	for strand, cs := range kept {
		if sub != nil {
			sub.Strand[strand] = make([]CandExt, 0, len(cs))
		}
		for _, c := range cs {
			o := outs[0]
			outs = outs[1:]
			if o.Err == nil { // else invalid anchor geometry; candidate is unusable
				alns = stats.AddExtension(alns, o.Res, o.Stats, strand == 1)
			}
			if sub != nil {
				sub.Strand[strand] = append(sub.Strand[strand], wireForm(c, o.Res, o.Stats, o.Err))
			}
		}
	}
	stats.AlignmentTime += time.Since(start)
	return alns, stats, nil
}
