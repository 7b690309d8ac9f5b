// Package wga implements whole-genome alignment on top of D-SOFT and
// GACT — the Section 11 extension the paper sketches: "D-SOFT
// parameters can be tuned to mimic the seeding stage of LASTZ,
// single-tile GACT filter replaces the bottleneck stage of ungapped
// extension, and GACT [aligns] arbitrarily large genomes with small
// on-chip memory."
//
// Align produces local alignment blocks between two genomes (both
// query strands), each anchored by a D-SOFT candidate, filtered by the
// first-tile score, extended by GACT, and deduplicated by span
// overlap — the LASTZ-style chained-blocks output comparative
// genomics consumes.
package wga

import (
	"fmt"
	"sort"

	"darwin/internal/align"
	"darwin/internal/dna"
	"darwin/internal/dsoft"
	"darwin/internal/gact"
	"darwin/internal/seedtable"
)

// Config parameterizes whole-genome alignment.
type Config struct {
	// SeedK is the seed size.
	SeedK int
	// Stride is the query seed sampling stride (whole-genome queries
	// use sparse seeding; LASTZ's seeding is similarly sparse).
	Stride int
	// Threshold is the D-SOFT base-count threshold h.
	Threshold int
	// BinSize is the D-SOFT band width.
	BinSize int
	// HTile is the first-tile score threshold (the ungapped-extension
	// replacement).
	HTile int
	// GACT holds tile parameters and scoring.
	GACT gact.Config
	// MinBlockLen discards blocks shorter than this on the query.
	MinBlockLen int
	// MaxCandidates bounds extension work.
	MaxCandidates int
	// ResetGap lets a diagonal band fire again after this many query
	// bases without hits, so several collinear blocks on one band
	// (e.g. segments flanking an inversion) are all seeded.
	ResetGap int
}

// DefaultConfig returns parameters suitable for megabase genomes at a
// few percent divergence.
//
// Scoring is blastn-like (match +2, mismatch −3, gap open 5, extend 2)
// rather than the read-mapping (1, −1, 1) scheme: whole-genome queries
// are unbounded, and (1, −1, 1) is supercritical for random DNA —
// local alignment scores drift upward even between unrelated
// sequences, so extension would creep indefinitely. Genome aligners
// like LASTZ use strong substitution/gap penalties for the same
// reason.
func DefaultConfig() Config {
	g := gact.DefaultConfig()
	g.Scoring = align.Simple(2, 3, 5)
	g.Scoring.GapExtend = 2
	return Config{
		SeedK:         12,
		Stride:        8,
		Threshold:     24,
		BinSize:       128,
		HTile:         90,
		GACT:          g,
		MinBlockLen:   300,
		MaxCandidates: 4096,
		ResetGap:      2048,
	}
}

// Block is one local alignment block between the genomes.
type Block struct {
	// Result is the alignment; query coordinates refer to the
	// reverse-complemented query when QueryRev is set.
	Result align.Result
	// QueryRev marks blocks on the query's reverse strand (e.g.
	// inversions).
	QueryRev bool
}

// Stats summarizes the work performed.
type Stats struct {
	Candidates  int
	PassedHTile int
	Tiles       int
	Blocks      int
}

// Align aligns query against ref and returns deduplicated blocks
// sorted by reference start.
func Align(ref, query dna.Seq, cfg Config) ([]Block, Stats, error) {
	var stats Stats
	if len(ref) == 0 || len(query) == 0 {
		return nil, stats, fmt.Errorf("wga: empty genome (ref %d, query %d)", len(ref), len(query))
	}
	table, err := seedtable.Build(ref, cfg.SeedK, seedtable.Options{})
	if err != nil {
		return nil, stats, err
	}
	if cfg.Stride < 1 {
		cfg.Stride = 1
	}
	nSeeds := len(query)/cfg.Stride + 1
	filter, err := dsoft.New(table, dsoft.Config{
		N:        nSeeds,
		H:        cfg.Threshold,
		BinSize:  cfg.BinSize,
		Stride:   cfg.Stride,
		ResetGap: cfg.ResetGap,
	})
	if err != nil {
		return nil, stats, err
	}
	g := cfg.GACT
	g.MinFirstTile = cfg.HTile
	engine, err := gact.NewEngine(&g)
	if err != nil {
		return nil, stats, err
	}

	var blocks []Block
	for _, rev := range []bool{false, true} {
		q := query
		if rev {
			q = dna.RevComp(q)
		}
		cands, st := filter.Query(q)
		stats.Candidates += st.Candidates
		if cfg.MaxCandidates > 0 && len(cands) > cfg.MaxCandidates {
			cands = cands[:cfg.MaxCandidates]
		}
		// Skip candidates already covered by an accepted block on this
		// strand: whole-genome alignments are long, so this prunes the
		// bulk of redundant extensions cheaply.
		var accepted []Block
		for _, c := range cands {
			if coveredBy(accepted, c.RefPos, c.QueryPos) {
				continue
			}
			res, gst, err := engine.Extend(ref, q, c.RefPos, c.QueryPos)
			if err != nil {
				continue
			}
			stats.Tiles += gst.Tiles
			if res == nil {
				continue
			}
			stats.PassedHTile++
			if res.QueryEnd-res.QueryStart < cfg.MinBlockLen {
				continue
			}
			accepted = append(accepted, Block{Result: *res, QueryRev: rev})
		}
		blocks = append(blocks, accepted...)
	}
	blocks = dedupe(blocks)
	stats.Blocks = len(blocks)
	sort.Slice(blocks, func(a, b int) bool { return blocks[a].Result.RefStart < blocks[b].Result.RefStart })
	return blocks, stats, nil
}

// coveredBy reports whether the candidate point lies inside an
// accepted block (with its diagonal within the block's indel budget).
func coveredBy(blocks []Block, refPos, queryPos int) bool {
	for i := range blocks {
		r := &blocks[i].Result
		if refPos < r.RefStart || refPos > r.RefEnd || queryPos < r.QueryStart || queryPos > r.QueryEnd {
			continue
		}
		// Same diagonal neighbourhood?
		dCand := refPos - queryPos
		dBlock := r.RefStart - r.QueryStart
		drift := (r.RefEnd - r.RefStart) / 10
		if dCand >= dBlock-drift-256 && dCand <= dBlock+drift+256 {
			return true
		}
	}
	return false
}

// dedupe keeps the best-scoring block among groups that overlap more
// than half on both sequences (same strand).
func dedupe(blocks []Block) []Block {
	sort.Slice(blocks, func(a, b int) bool { return blocks[a].Result.Score > blocks[b].Result.Score })
	var out []Block
	for _, b := range blocks {
		dup := false
		for i := range out {
			o := &out[i]
			if o.QueryRev != b.QueryRev {
				continue
			}
			if overlapFrac(o.Result.RefStart, o.Result.RefEnd, b.Result.RefStart, b.Result.RefEnd) > 0.5 &&
				overlapFrac(o.Result.QueryStart, o.Result.QueryEnd, b.Result.QueryStart, b.Result.QueryEnd) > 0.5 {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, b)
		}
	}
	return out
}

func overlapFrac(aLo, aHi, bLo, bHi int) float64 {
	lo, hi := max(aLo, bLo), min(aHi, bHi)
	if hi <= lo {
		return 0
	}
	span := min(aHi-aLo, bHi-bLo)
	if span <= 0 {
		return 0
	}
	return float64(hi-lo) / float64(span)
}

// Coverage returns the fraction of the reference covered by blocks.
func Coverage(refLen int, blocks []Block) float64 {
	type iv struct{ lo, hi int }
	ivs := make([]iv, 0, len(blocks))
	for i := range blocks {
		ivs = append(ivs, iv{blocks[i].Result.RefStart, blocks[i].Result.RefEnd})
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	covered, end := 0, 0
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		lo := max(v.lo, end)
		covered += v.hi - lo
		end = v.hi
	}
	return float64(covered) / float64(refLen)
}
