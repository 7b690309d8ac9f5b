package gact

import (
	"fmt"

	"darwin/internal/align"
	"darwin/internal/dna"
)

// The free functions in this file are GACT's reference implementation:
// Algorithm 2 written plainly, allocating per tile, on the reference
// align.AlignTile (no kernel tiers, no reuse, right extension on
// dna.Reverse copies). Production extends candidates only through
// Engine; these are its oracle (TestEngineMatchesExtend,
// FuzzEngineExtend) and the subject of the algorithm-level tests.

// Extend aligns Q against R around the D-SOFT candidate position
// (iSeed, jSeed) — the seed-hit position of a candidate bin. The first
// tile (size FirstTileT, default T) spans forward from the candidate,
// R[iSeed:iSeed+T'] × Q[jSeed:jSeed+T'], so a candidate near the start
// of the query (where D-SOFT draws its seeds) still sees a full tile
// of context — the geometry the h_tile filter of Figure 12 assumes.
// Traceback starts at the tile's highest-scoring cell; left and then
// right extension tiles follow per Algorithm 2.
//
// It returns the alignment (global coordinates, forward order) and
// tile statistics. The candidate must satisfy 0 ≤ iSeed < len(R),
// 0 ≤ jSeed < len(Q). A nil result with nil error means the candidate
// was rejected: the first tile was empty or scored below MinFirstTile.
func Extend(R, Q dna.Seq, iSeed, jSeed int, cfg *Config) (*align.Result, *Stats, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	if iSeed < 0 || iSeed >= len(R) || jSeed < 0 || jSeed >= len(Q) {
		return nil, nil, fmt.Errorf("gact: seed position (%d,%d) outside R[0,%d) × Q[0,%d)", iSeed, jSeed, len(R), len(Q))
	}
	defer tAlign.Start(nil).End()
	stats := &Stats{}

	// First tile, spanning forward from the candidate. Traceback
	// starts at the highest-scoring cell.
	fT := cfg.firstT()
	iEnd, jEnd := min(len(R), iSeed+fT), min(len(Q), jSeed+fT)
	ft := tFirstTile.Start(nil)
	first := align.AlignTile(R[iSeed:iEnd], Q[jSeed:jEnd], true, fT-cfg.O, &cfg.Scoring)
	ftTime := ft.End()
	stats.add(iEnd-iSeed, jEnd-jSeed)
	stats.FirstTileScore = first.Score
	if first.Score <= 0 || len(first.Cigar) == 0 || first.Score < cfg.MinFirstTile {
		tFirstReject.Observe(ftTime)
		stats.publish(true)
		return nil, stats, nil
	}

	// Global coordinates of the alignment's right end (the first
	// tile's max cell) and of the running left end.
	rightI := iSeed + first.MaxI
	rightJ := jSeed + first.MaxJ
	curI := rightI - first.IOff
	curJ := rightJ - first.JOff
	cigar := first.Cigar

	// Left extension (Algorithm 2 with t already consumed).
	leftCigar, leftI, leftJ := extendLeft(R, Q, curI, curJ, cfg, stats)
	cigar = leftCigar.Concat(cigar)

	// Right extension: Algorithm 2 on reversed sequences from the
	// mirrored right end.
	rR, rQ := dna.Reverse(R), dna.Reverse(Q)
	revCigar, revI, revJ := extendLeft(rR, rQ, len(R)-rightI, len(Q)-rightJ, cfg, stats)
	rightI = len(R) - revI
	rightJ = len(Q) - revJ
	cigar = cigar.Concat(revCigar.Reverse())

	res := &align.Result{
		RefStart:   leftI,
		RefEnd:     rightI,
		QueryStart: leftJ,
		QueryEnd:   rightJ,
		Cigar:      cigar,
	}
	res.Score = res.Rescore(R, Q, &cfg.Scoring)
	stats.publish(false)
	return res, stats, nil
}

// extendLeft runs the non-first-tile loop of Algorithm 2 from
// (iCurr, jCurr) until a tile consumes nothing or a sequence start is
// reached, returning the prepended path and the final left-end
// coordinates.
func extendLeft(R, Q dna.Seq, iCurr, jCurr int, cfg *Config, stats *Stats) (align.Cigar, int, int) {
	var cigar align.Cigar
	for iCurr > 0 && jCurr > 0 {
		iStart, jStart := max(0, iCurr-cfg.T), max(0, jCurr-cfg.T)
		res := align.AlignTile(R[iStart:iCurr], Q[jStart:jCurr], false, cfg.T-cfg.O, &cfg.Scoring)
		stats.add(iCurr-iStart, jCurr-jStart)
		if res.IOff == 0 && res.JOff == 0 {
			break
		}
		cigar = res.Cigar.Concat(cigar)
		iCurr -= res.IOff
		jCurr -= res.JOff
	}
	return cigar, iCurr, jCurr
}

// ExtendLeftOnly runs pure left extension per Algorithm 2 from
// (iSeed, jSeed), first tile included — useful for validating the
// algorithm in isolation (Figure 4's example is a left extension).
func ExtendLeftOnly(R, Q dna.Seq, iSeed, jSeed int, cfg *Config) (*align.Result, *Stats, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	if iSeed <= 0 || iSeed > len(R) || jSeed <= 0 || jSeed > len(Q) {
		return nil, nil, fmt.Errorf("gact: seed position (%d,%d) outside R[0,%d] × Q[0,%d]", iSeed, jSeed, len(R), len(Q))
	}
	defer tAlign.Start(nil).End()
	stats := &Stats{}
	fT := cfg.firstT()
	iStart, jStart := max(0, iSeed-fT), max(0, jSeed-fT)
	first := align.AlignTile(R[iStart:iSeed], Q[jStart:jSeed], true, fT-cfg.O, &cfg.Scoring)
	stats.add(iSeed-iStart, jSeed-jStart)
	stats.FirstTileScore = first.Score
	if first.Score <= 0 || len(first.Cigar) == 0 || first.Score < cfg.MinFirstTile {
		stats.publish(true)
		return nil, stats, nil
	}
	rightI := iStart + first.MaxI
	rightJ := jStart + first.MaxJ
	curI := rightI - first.IOff
	curJ := rightJ - first.JOff
	leftCigar, leftI, leftJ := extendLeft(R, Q, curI, curJ, cfg, stats)
	cigar := leftCigar.Concat(first.Cigar)
	res := &align.Result{
		RefStart:   leftI,
		RefEnd:     rightI,
		QueryStart: leftJ,
		QueryEnd:   rightJ,
		Cigar:      cigar,
	}
	res.Score = res.Rescore(R, Q, &cfg.Scoring)
	stats.publish(false)
	return res, stats, nil
}
