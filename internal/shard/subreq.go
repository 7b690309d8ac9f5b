package shard

// Sub-request contract for distributed scatter-gather. A cluster
// router splits one read batch into per-shard sub-requests served by
// shard-owning workers; each worker runs ScatterShards over the shards
// it owns and returns every core-owned candidate in global reference
// coordinates together with its GACT extension outcome. The router
// then recombines the per-shard results with MergeReadScatters, which
// reproduces the monolithic engine's candidate order, MaxCandidates
// truncation, and alignment sort exactly — so the distributed answer
// is bit-identical to core.Darwin no matter how the shards were
// assigned to workers.
//
// Worker and in-process mapping are one executor (ScatterMapper.run);
// the one structural difference is where truncation happens. A worker sees only its own
// shards' candidates, so it cannot know which of them survive the
// global per-strand MaxCandidates cut; it therefore extends all of
// them and ships the outcomes, and the router applies the global
// truncation after the merge, discarding extensions of truncated
// candidates. That is sound because a candidate's GACT extension is a
// pure function of (reference, query, anchor) — independent of every
// other candidate — and shard cores partition the reference, so no
// candidate appears twice.

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"darwin/internal/align"
	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/gact"
)

// CandExt is one D-SOFT candidate in global reference coordinates
// plus its GACT extension outcome. JSON tags are deliberately short:
// a sub-response carries one CandExt per candidate per read.
type CandExt struct {
	// QueryPos, RefPos anchor the candidate (RefPos is global).
	QueryPos int `json:"q"`
	RefPos   int `json:"r"`
	// Ext reports that GACT extension ran without error. A false Ext
	// mirrors the monolithic engine skipping a candidate whose anchor
	// geometry is invalid: the candidate still occupies a truncation
	// slot but contributes no work stats and no alignment.
	Ext bool `json:"x,omitempty"`
	// Aligned reports the extension survived the first-tile filter and
	// produced an alignment (the fields below are then meaningful).
	Aligned    bool   `json:"a,omitempty"`
	Score      int    `json:"s,omitempty"`
	RefStart   int    `json:"rs,omitempty"`
	RefEnd     int    `json:"re,omitempty"`
	QueryStart int    `json:"qs,omitempty"`
	QueryEnd   int    `json:"qe,omitempty"`
	Cigar      string `json:"c,omitempty"`
	// FirstTileScore and the tile/cell counts are recorded whenever
	// Ext is true, aligned or not, so the merge can rebuild the
	// monolithic MapStats for the surviving candidate set.
	FirstTileScore int   `json:"ft,omitempty"`
	Tiles          int   `json:"t,omitempty"`
	Cells          int64 `json:"cl,omitempty"`
}

// wireForm records one candidate's Engine.Extend outcome.
func wireForm(c gcand, res *align.Result, gst gact.Stats, err error) CandExt {
	ce := CandExt{QueryPos: c.QueryPos, RefPos: c.RefPos}
	if err != nil {
		return ce
	}
	ce.Ext = true
	ce.FirstTileScore = gst.FirstTileScore
	ce.Tiles = gst.Tiles
	ce.Cells = gst.Cells
	if res != nil {
		ce.Aligned = true
		ce.Score = res.Score
		ce.RefStart = res.RefStart
		ce.RefEnd = res.RefEnd
		ce.QueryStart = res.QueryStart
		ce.QueryEnd = res.QueryEnd
		ce.Cigar = res.Cigar.String()
	}
	return ce
}

// outcome is wireForm's inverse for a candidate whose extension ran:
// the alignment (nil when the first tile rejected it) and work stats.
// A CIGAR that does not consume exactly the reported spans, or a
// negative or reversed span, is an error: the sub-response is
// malformed, and its SAM line would disagree with its POS and clips.
func (c *CandExt) outcome() (*align.Result, gact.Stats, error) {
	gst := gact.Stats{Tiles: c.Tiles, Cells: c.Cells, FirstTileScore: c.FirstTileScore}
	if !c.Aligned {
		return nil, gst, nil
	}
	cig, err := align.ParseCigar(c.Cigar)
	if err != nil {
		return nil, gst, fmt.Errorf("shard: candidate (q=%d r=%d): %w", c.QueryPos, c.RefPos, err)
	}
	if c.RefStart < 0 || c.QueryStart < 0 || cig.RefLen() != c.RefEnd-c.RefStart || cig.QueryLen() != c.QueryEnd-c.QueryStart {
		return nil, gst, fmt.Errorf("shard: candidate (q=%d r=%d): cigar %s does not span ref [%d,%d) × query [%d,%d)",
			c.QueryPos, c.RefPos, c.Cigar, c.RefStart, c.RefEnd, c.QueryStart, c.QueryEnd)
	}
	return &align.Result{
		Score:      c.Score,
		RefStart:   c.RefStart,
		RefEnd:     c.RefEnd,
		QueryStart: c.QueryStart,
		QueryEnd:   c.QueryEnd,
		Cigar:      cig,
	}, gst, nil
}

// ReadScatter is one read's sub-response from one worker: all of the
// worker's core-owned candidates for the read, split by strand
// (forward, reverse-complement), each with its extension outcome.
type ReadScatter struct {
	// Read is the read's index within the originating batch.
	Read int `json:"read"`
	// Strand holds forward (0) and reverse-complement (1) candidates.
	Strand [2][]CandExt `json:"strand"`
	// Err poisons this read only (panic containment, injected fault);
	// the rest of the sub-response remains valid.
	Err string `json:"err,omitempty"`
}

// ScatterShards maps a batch against a subset of shards and returns
// per-read candidate/extension lists instead of merged alignments —
// the worker half of the distributed scatter-gather contract. Every
// core-owned candidate is extended (no MaxCandidates truncation; see
// the package comment) and reported, including failed extensions, so
// the caller can apply the global truncation and still account every
// candidate. Results are deterministic for any worker count (<= 0 =
// core.DefaultWorkers): each strand's candidates are sorted into
// (QueryPos, RefPos) order.
//
// Per-read failures (panics, the core/map_read fault point) land in
// that read's ReadScatter.Err; batch-level failures (cancelled
// context, shard build errors, shard IDs out of range) return an
// error.
func (m *ScatterMapper) ScatterShards(ctx context.Context, reads []dna.Seq, shardIDs []int, workers int) ([]ReadScatter, error) {
	ids := slices.Clone(shardIDs)
	slices.Sort(ids)
	for i, id := range ids {
		if id < 0 || id >= len(m.set.shards) {
			return nil, fmt.Errorf("shard: scatter shard %d out of range [0,%d)", id, len(m.set.shards))
		}
		if i > 0 && ids[i-1] == id {
			return nil, fmt.Errorf("shard: scatter shard %d listed twice", id)
		}
	}
	out := make([]ReadScatter, len(reads))
	res, err := m.run(ctx, tScatterShards, reads, ids, 0, core.MapSettings{Workers: workers}, out)
	if err != nil {
		return nil, err
	}
	for i := range out {
		out[i].Read = i
		if res[i].Err != nil {
			out[i] = ReadScatter{Read: i, Err: res[i].Err.Error()}
		}
	}
	return out, nil
}

// MergeReadScatters recombines one read's sub-responses from disjoint
// shard groups into the monolithic engine's result. parts must all
// carry the same Read index and come from non-overlapping shard sets;
// maxCandidates is the engine's per-strand truncation limit (0 = no
// limit), which must match the configuration the monolithic engine
// would have used.
//
// The merge reproduces the monolithic pipeline stage by stage: per
// strand, concatenate and sort candidates by (QueryPos, RefPos) —
// recovering the filter's emission order — count them, truncate to
// maxCandidates, then fold the recorded extension outcomes of the
// survivors exactly as the in-process gather folds live ones, and sort
// alignments with core.SortAlignments. MapStats work fields
// (Candidates, PassedHTile, Tiles, Cells, FirstTileScores) are rebuilt
// exactly; D-SOFT filter stats and stage timings stay zero (they
// describe per-worker work, which scales with the shard count and is
// reported by the workers' own metrics).
func MergeReadScatters(maxCandidates int, parts []ReadScatter) (core.MapResult, error) {
	if len(parts) == 0 {
		return core.MapResult{}, fmt.Errorf("shard: merge of zero sub-responses")
	}
	read := parts[0].Read
	for _, p := range parts {
		if p.Read != read {
			return core.MapResult{}, fmt.Errorf("shard: merging mismatched reads %d and %d", read, p.Read)
		}
		if p.Err != "" {
			// Verbatim: the read's error line must read the same through
			// a router as from the engine that failed it.
			return core.MapResult{Index: read, Err: errors.New(p.Err)}, nil
		}
	}
	var alns []core.ReadAlignment
	var stats core.MapStats
	for strand := 0; strand < 2; strand++ {
		n := 0
		for _, p := range parts {
			n += len(p.Strand[strand])
		}
		cs := make([]CandExt, 0, n)
		for _, p := range parts {
			cs = append(cs, p.Strand[strand]...)
		}
		sortCandidates(cs, func(c CandExt) (int, int) { return c.QueryPos, c.RefPos })
		// Disjoint shard cores mean no candidate can arrive twice; a
		// duplicate is a double-merge (the exactly-one-merge property
		// violated upstream) and must fail loudly rather than skew
		// truncation.
		for i := 1; i < len(cs); i++ {
			if cs[i].QueryPos == cs[i-1].QueryPos && cs[i].RefPos == cs[i-1].RefPos {
				return core.MapResult{}, fmt.Errorf("shard: duplicate candidate (q=%d r=%d) in merge: sub-responses overlap", cs[i].QueryPos, cs[i].RefPos)
			}
		}
		stats.Candidates += len(cs)
		cs = truncate(cs, maxCandidates)
		for i := range cs {
			if !cs[i].Ext {
				continue
			}
			res, gst, err := cs[i].outcome()
			if err != nil {
				return core.MapResult{}, err
			}
			alns = stats.AddExtension(alns, res, gst, strand == 1)
		}
	}
	core.SortAlignments(alns)
	return core.MapResult{Index: read, Alignments: alns, Stats: stats}, nil
}
