// Package gact implements GACT (Section 4, Algorithm 2): near-optimal
// alignment of arbitrarily long sequences by following the optimal path
// within overlapping tiles of size T, each computed with constant
// O(T²) traceback memory — the property that lets Darwin put the
// compute-intensive Align step entirely in hardware.
//
// A full candidate alignment (Figure 6) anchors a first tile at the
// D-SOFT candidate position, traces back from the tile's
// highest-scoring cell, then extends left and right with further tiles
// whose traceback starts at the bottom-right cell, each tile consuming
// at most T−O bases so that successive tiles overlap by at least O.
package gact

import (
	"fmt"
	"time"

	"darwin/internal/align"
	"darwin/internal/dna"
	"darwin/internal/obs"
)

// Pipeline observability (package obs): every Extend publishes its
// tile/cell counts — the "alignment" half of the paper's Figure 13
// split — under the disjoint stage/align timer, with the first-tile
// filter (Figure 12) broken out as a sub-timer, score histogram, and
// reject counter; gact/first_tile_reject is the part of
// gact/first_tile spent on tiles the filter then discarded, so
// first_tile_reject ÷ stage/align is the share of alignment time that
// bought nothing. Per-tile spans go to the tracer when enabled.
var (
	cExtensions   = obs.Default.Counter("gact/extensions")
	cTiles        = obs.Default.Counter("gact/tiles")
	cCells        = obs.Default.Counter("gact/cells")
	cHTileRejects = obs.Default.Counter("gact/htile_rejects")
	tAlign        = obs.Default.Timer("stage/align")
	tFirstTile    = obs.Default.Timer("gact/first_tile")
	tFirstReject  = obs.Default.Timer("gact/first_tile_reject")
	hFirstScore   = obs.Default.Histogram("gact/first_tile_score", 0, 384, 48)
	hTilesPerExt  = obs.Default.Histogram("gact/tiles_per_extension", 0, 128, 32)

	// Kernel-tier split (Engine only; the free functions use the
	// reference AlignTile, which has no tiers): tiles and actually
	// filled DP cells per path. tile_lut counts every full-LUT fill,
	// fallbacks included; tile_fallback is the subset that attempted
	// the bitvector tier and hit its profit gate, so the fallback
	// rate is tile_fallback / (tile_bitvector + tile_fallback). Note
	// gact/cells stays the *geometric* tile area — the work a
	// cell-at-a-time kernel would do — so cells/s measures effective
	// throughput across kernel generations; cells_bitvector/cells_lut
	// count filled cells only.
	cTileBitvector  = obs.Default.Counter("gact/tile_bitvector")
	cTileFallback   = obs.Default.Counter("gact/tile_fallback")
	cTileLUT        = obs.Default.Counter("gact/tile_lut")
	cCellsBitvector = obs.Default.Counter("gact/cells_bitvector")
	cCellsLUT       = obs.Default.Counter("gact/cells_lut")
)

// Config holds GACT parameters. The paper's operating point for all
// three read types is T=320, O=128, with a larger first tile (T=384)
// for the h_tile filter (Figure 12).
type Config struct {
	// T is the tile size.
	T int
	// O is the minimum overlap between successive tiles (O < T).
	O int
	// FirstTileT is the first tile's size; zero means T.
	FirstTileT int
	// MinFirstTile is the h_tile threshold (Section 5, Figure 12):
	// candidates whose first tile scores below it are discarded before
	// any extension tiles run. Zero disables the filter.
	MinFirstTile int
	// Scoring configures the PE array's 18 scoring parameters.
	Scoring align.Scoring
	// Kernel selects the Engine's tile-kernel tier (the zero value,
	// align.KernelAuto, runs the bitvector fast path, with its provable
	// bit-identical fallback, only on tiles the vector fill does not
	// take; see align.KernelMode).
	Kernel align.KernelMode
	// KernelDivergence adds a fallback threshold to the auto tier's
	// profit gate: the maximum allowed gap, in score units, between a
	// tile's perfect-score bound and the bitvector path's rescored
	// bound. Zero sets no cap.
	KernelDivergence int
}

// DefaultConfig returns the paper's chosen operating point
// (T=320, O=128, first tile 384, match=+1 mismatch=−1 gap=1).
func DefaultConfig() Config {
	return Config{T: 320, O: 128, FirstTileT: 384, Scoring: align.GACTEval()}
}

func (c *Config) validate() error {
	if c.T <= 0 {
		return fmt.Errorf("gact: tile size T=%d must be positive", c.T)
	}
	if c.O < 0 || c.O >= c.T {
		return fmt.Errorf("gact: overlap O=%d must satisfy 0 ≤ O < T=%d", c.O, c.T)
	}
	if c.FirstTileT < 0 || (c.FirstTileT > 0 && c.FirstTileT <= c.O) {
		return fmt.Errorf("gact: first tile size %d must exceed overlap %d", c.FirstTileT, c.O)
	}
	if c.Kernel > align.KernelBitvector {
		return fmt.Errorf("gact: unknown kernel mode %d", c.Kernel)
	}
	if c.KernelDivergence < 0 {
		return fmt.Errorf("gact: kernel divergence %d must be ≥ 0", c.KernelDivergence)
	}
	return c.Scoring.Validate()
}

func (c *Config) firstT() int {
	if c.FirstTileT > 0 {
		return c.FirstTileT
	}
	return c.T
}

// Stats instruments one extension for the performance model: the
// hardware cost of a GACT alignment is cycles per tile × tiles
// (Section 8), and the software cost tracks DP cells.
type Stats struct {
	// Tiles is the number of Align calls (first tile included).
	Tiles int
	// Cells is the total number of DP cells filled.
	Cells int64
	// FirstTileScore is the score of the first tile (the h_tile
	// filter input, Figure 12).
	FirstTileScore int
}

func (s *Stats) add(rLen, qLen int) {
	s.Tiles++
	s.Cells += int64(rLen) * int64(qLen)
}

// publish folds one extension's counts into the process-wide registry.
func (s *Stats) publish(rejected bool) {
	cExtensions.Inc()
	cTiles.Add(int64(s.Tiles))
	cCells.Add(s.Cells)
	hFirstScore.Observe(float64(s.FirstTileScore))
	hTilesPerExt.Observe(float64(s.Tiles))
	if rejected {
		cHTileRejects.Inc()
	}
}

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
	defer tAlign.Time()()
	stats := &Stats{}

	// First tile, spanning forward from the candidate. Traceback
	// starts at the highest-scoring cell.
	fT := cfg.firstT()
	iEnd, jEnd := min(len(R), iSeed+fT), min(len(Q), jSeed+fT)
	ftStart := time.Now()
	endSpan := obs.Trace.Start("gact.first_tile")
	first := align.AlignTile(R[iSeed:iEnd], Q[jSeed:jEnd], true, fT-cfg.O, &cfg.Scoring)
	endSpan()
	ftTime := time.Since(ftStart)
	tFirstTile.Observe(ftTime)
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
		endSpan := obs.Trace.Start("gact.tile")
		res := align.AlignTile(R[iStart:iCurr], Q[jStart:jCurr], false, cfg.T-cfg.O, &cfg.Scoring)
		endSpan()
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
	defer tAlign.Time()()
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
