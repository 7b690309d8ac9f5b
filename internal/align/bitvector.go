package align

import (
	"bytes"
	"fmt"

	"darwin/internal/dna"
)

// This file is the TileAligner's bit-parallel tier: a Myers/GenASM
// bitvector pass over the tile (64 DP cells per machine word, reusing
// the MyersState recurrence) whose edit-distance path, rescored under
// the affine-gap LUT, yields a *provable* lower bound S_bv on the
// affine DP's bottom-right score H(n,m) — the global edit path is one
// of the local paths ending at (n,m). From that bound follows a band:
// any path ending at (n,m) scoring ≥ S_bv has at most
//
//	g ≤ (wmax·(n+m) − 2·S_bv) / (wmax + 2·e)
//
// gap bases (each aligned pair contributes ≤ wmax, each gap base costs
// ≥ e, and a path with g gap bases has ≤ (n+m−g)/2 aligned pairs), so
// the optimal traceback path from (n,m) never strays more than g
// anti-diagonal offsets from the (n,m) back-diagonal. Filling only
// that band reproduces the full kernel's Score, IOff, JOff, and Cigar
// *exactly*: every cell the traceback visits — and every cell in the
// value/gap chains those cells' pointers encode — lies strictly inside
// the band, in-band values are computed from in-band or boundary
// values, and out-of-band reads see lower bounds (0-initialized H,
// negInf gap rows) that cannot displace the true winner under the
// kernel's fixed tie order. The band says nothing about cells outside
// it, so a banded tile is always one whose traceback starts at its
// bottom-right cell: an extension tile — or the sub-tile a first tile's
// score pass cut out for it (kernel.go, firstTile), which ends at the
// tile's best cell. There the score pass has computed H(n,m) itself,
// the tightest S the bound admits, so first tiles band without a
// bitvector pass and without the gate below.
//
// The profit gate makes the tier a *fast path* rather than a wager:
// when the band the rescored bound proves reaches across the tile
// (low-identity or unrelated tiles), the tile falls back to the full
// LUT fill and is counted in KernelStats.FallbackTiles. A tile the
// vector pointer fill takes (maxcell_amd64.go) skips the tier under
// KernelAuto altogether: that fill does a whole 320² tile in about the
// time of the Myers pass, rescore and banded fill at ≈ 10 % error, so
// the tier pays only on tiles more similar than that, and the mapping
// workloads' tiles are not (EXPERIMENTS.md, BenchmarkProfitGate).

// KernelMode selects the TileAligner's tile-kernel tier.
type KernelMode uint8

const (
	// KernelAuto (the default) runs the bitvector fast path on
	// extension tiles the vector fill does not take, falling back to
	// the full LUT kernel when the profit gate rejects, the tile
	// contains N codes, or the geometry is unfriendly; a first tile
	// that passes its score pass is refilled inside the band its exact
	// score proves, or in full when that band spans the sub-tile.
	// Results are bit-identical to KernelLUT on every field GACT
	// consumes (Score, IOff, JOff, Cigar; plus MaxI/MaxJ on first
	// tiles, which come from the score pass in every mode).
	KernelAuto KernelMode = iota
	// KernelLUT always runs the full branchless LUT fill (over the score
	// pass's sub-tile, for a first tile) — the reference the property
	// tests pin.
	KernelLUT
	// KernelBitvector forces the bitvector tier on every extension tile
	// that can express it (no profit fallback; the band is clamped
	// to the tile instead). Same bit-identical results — the band bound
	// stays provable — but divergent tiles pay bitvector + full-width
	// fill, so this mode exists for benchmarking and diagnostics. First
	// tiles run as under KernelAuto.
	KernelBitvector
)

// String returns the flag spelling of the mode.
func (k KernelMode) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelLUT:
		return "lut"
	case KernelBitvector:
		return "bitvector"
	}
	return fmt.Sprintf("KernelMode(%d)", uint8(k))
}

// ParseKernelMode parses a -tile-kernel flag value.
func ParseKernelMode(s string) (KernelMode, error) {
	switch s {
	case "auto", "":
		return KernelAuto, nil
	case "lut":
		return KernelLUT, nil
	case "bitvector", "bv":
		return KernelBitvector, nil
	}
	return KernelAuto, fmt.Errorf("align: unknown kernel mode %q (want auto, bitvector, or lut)", s)
}

const (
	// bitvecMinSide: tiles with a side below this skip the bitvector
	// pass — the fixed cost of the Myers pass plus rescore is not worth
	// amortizing over a tiny fill (boundary tiles at sequence ends).
	bitvecMinSide = 48
	// bitvecMaxBlocks bounds the query's 64-bit block count for the
	// tier ("one-word-friendly geometry"): GACT tiles are ≤ 384 bases
	// (6 blocks); anything past 16 blocks is not a tile workload.
	bitvecMaxBlocks = 16
)

// KernelStats counts tiles and DP cells per kernel path, one tile per
// AlignTile call. LUTTiles covers every tile whose pointer matrix came
// from a full LUT fill — fallbacks included — and every first tile
// rejected on its score pass; BitvectorTiles the banded ones.
// FallbackTiles is the subset of LUTTiles that attempted the bitvector
// pass first and hit the profit gate (or a divergence cap). The cell
// counts are the cells actually filled, so cells-per-second can be
// compared per path: BitvectorCells the banded fills, LUTCells the full
// fills plus the n·m cells of every first tile's score pass.
type KernelStats struct {
	LUTTiles       int64
	LUTCells       int64
	BitvectorTiles int64
	BitvectorCells int64
	FallbackTiles  int64
}

// SetKernel selects the aligner's kernel tier (KernelAuto default).
func (a *TileAligner) SetKernel(mode KernelMode) { a.mode = mode }

// Kernel returns the aligner's kernel tier.
func (a *TileAligner) Kernel() KernelMode { return a.mode }

// SetKernelDivergence adds a fallback threshold to the auto tier's
// profit gate: the maximum allowed gap, in score units, between the
// tile's perfect-score bound wmax·(n+m)/2 and the bitvector path's
// rescored bound S_bv. Zero (the default) sets no cap. Negative values
// are treated as zero.
func (a *TileAligner) SetKernelDivergence(d int) {
	if d < 0 {
		d = 0
	}
	a.maxDiv = d
}

// KernelStats returns the aligner's cumulative per-path counts.
func (a *TileAligner) KernelStats() KernelStats { return a.ks }

// bitvectorBand runs the bit-parallel pass on a precoded extension tile
// and returns the band its bound proves sufficient, or −1 — leaving no
// trace beyond FallbackTiles when the gate fired — if the
// tile must take the full LUT fill.
func (a *TileAligner) bitvectorBand(rc, qc []byte) int {
	n, m := len(rc), len(qc)
	if a.mode == KernelAuto && a.vectorOK(n, m) {
		return -1 // the full vector fill costs about what the pass does
	}
	if n < bitvecMinSide || m < bitvecMinSide || (m+63)/64 > bitvecMaxBlocks {
		return -1
	}
	// The edit model cannot express the LUT's N-scores-zero columns.
	if bytes.IndexByte(rc, dna.CodeN) >= 0 || bytes.IndexByte(qc, dna.CodeN) >= 0 {
		return -1
	}

	er, err := a.bv.alignCodes(rc, qc, EditGlobal)
	if err != nil {
		return -1
	}
	sbv := a.rescoreCodes(rc, qc, er.Cigar)
	band := a.gapBand(n, m, sbv)
	if a.mode == KernelBitvector {
		return min(band, n+m) // clamp: the banded fill degenerates to the full fill
	}
	// By default only the profit gate: a band reaching across the tile
	// fills it whole, with the bitvector work as pure overhead. Below
	// that the banded fill wins — on 320² tiles with the scalar
	// linear-gap fill it costs 0.82–0.95 of a full fill at bands 131–159
	// and breaks even near 175 (EXPERIMENTS.md), and the tile has
	// already paid its Myers pass. A divergence cap set with
	// SetKernelDivergence also compares twice (perfect bound − S_bv)
	// against twice the cap.
	diverged := a.maxDiv > 0 && int(a.wmax)*(n+m)-2*sbv > 2*a.maxDiv
	if diverged || 2*band+1 >= min(n, m) {
		a.ks.FallbackTiles++
		return -1
	}
	return band
}

// gapBand is the band that provably holds the traceback from (n, m) of
// a tile whose bottom-right cell scores at least s: the gap-base bound
// of the file comment, plus 2 slack.
func (a *TileAligner) gapBand(n, m, s int) int {
	wmax := int(a.wmax)
	return (wmax*(n+m)-2*s)/(wmax+2*int(a.ext)) + 2
}

// rescoreCodes scores an edit-path cigar over precoded tiles under the
// aligner's affine LUT — Result.Rescore's logic on codes, giving the
// bound S_bv the band derivation needs.
func (a *TileAligner) rescoreCodes(rc, qc []byte, cig Cigar) int {
	score := 0
	i, j := 0, 0
	open, ext := int(a.open), int(a.ext)
	for _, s := range cig {
		switch s.Op {
		case OpMatch:
			for k := 0; k < s.Len; k++ {
				score += int(a.lut[(int(qc[j+k])&7)*LUTStride+int(rc[i+k])&7])
			}
			i += s.Len
			j += s.Len
		case OpIns:
			score -= open + (s.Len-1)*ext
			j += s.Len
		case OpDel:
			score -= open + (s.Len-1)*ext
			i += s.Len
		}
	}
	return score
}
