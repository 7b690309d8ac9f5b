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

	"darwin/internal/align"
	"darwin/internal/obs"
)

// Pipeline observability (package obs): every Engine.Extend publishes
// its tile/cell counts — the "alignment" half of the paper's Figure 13
// split — under the disjoint stage/align timer, with the first-tile
// filter (Figure 12) broken out as a sub-timer, score histogram, and
// reject counter; gact/first_tile_reject is the part of
// gact/first_tile spent on tiles the filter then discarded, so
// first_tile_reject ÷ stage/align is the share of alignment time that
// bought nothing, and gact/extend (record-only), the stage/align time
// of accepted candidates, is about the rest. stage/align and
// gact/first_tile record one interval (one observation, and with
// tracing on one trace event) per Extend call and one per first-tile
// batch call (ExtendBatch), which covers up to align.BatchLanes first
// tiles: their counts are calls, not candidates or tiles, so their
// time over their count is not a time per tile. gact/first_tile_reject
// records one observation per rejected tile, a batch's rejected lanes
// each taking their share of its interval. Extension tiles have no
// timer and no event of their own — their time is stage/align less its
// gact/first_tile child (and BenchmarkAlignTile measures one tile).
var (
	cExtensions   = obs.Default.Counter("gact/extensions")
	cTiles        = obs.Default.Counter("gact/tiles")
	cCells        = obs.Default.Counter("gact/cells")
	cHTileRejects = obs.Default.Counter("gact/htile_rejects")
	tAlign        = obs.Default.Timer("stage/align")
	tFirstTile    = obs.Default.Timer("gact/first_tile")
	tFirstReject  = obs.Default.Timer("gact/first_tile_reject")
	tExtend       = obs.Default.Timer("gact/extend")
	hFirstScore   = obs.Default.Histogram("gact/first_tile_score", 0, 384, 48)
	hTilesPerExt  = obs.Default.Histogram("gact/tiles_per_extension", 0, 128, 32)

	// Kernel-tier split: tiles and actually filled DP cells per path
	// of the Engine's TileAligner. tile_bitvector counts every banded
	// fill — accepted first tiles, and extension tiles whose band a
	// Myers pass or (on the vector fill) a certified guess proved;
	// tile_lut counts every full-LUT fill, fallbacks included;
	// tile_fallback is the subset that tried a band first — the
	// bitvector tier's profit gate rejected it, or a guessed band
	// failed its check, in which case cells_lut also holds the cells
	// of the discarded banded fill — so the fallback rate of the
	// extension tiles that tried a band is tile_fallback /
	// (tile_bitvector + tile_fallback). Note
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
	// align.KernelAuto, bands extension tiles with a provable
	// bit-identical fallback: by a certified guess on tiles the vector
	// fill takes, by the bitvector fast path on the others; see
	// align.KernelMode). Every binary runs the zero value; tests and
	// benchmarks set the others.
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
	if max(c.T, c.FirstTileT) > align.MaxTileSide {
		return fmt.Errorf("gact: tile size T=%d, first tile size %d: the tile kernel takes sides up to %d", c.T, c.FirstTileT, align.MaxTileSide)
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
