package align

import (
	"bytes"

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
// LUT fill and is counted in KernelStats.FallbackTiles.
//
// Under KernelAuto a tile the vector pointer fill takes
// (maxcell_amd64.go) skips the Myers pass: on 32 lanes the pass and
// rescore alone cost more than a whole 320² fill (BenchmarkProfitGate).
// Such a tile certifies its own band instead (certifiedFill). It is
// filled in the band proved by a score guessed from the previous
// tile's, and that fill's H(n,m), a real path's score and so a lower
// bound, stands in for S_bv: when the band it proves fits inside the
// one filled, the fill is exact. Otherwise the tile is refilled in
// full and counted as a fallback. On map_pacbio that bands ≈ 92 % of
// the tiles and fails the check on ≈ 3 % (EXPERIMENTS.md
// "Self-certifying bands").

// KernelMode selects the TileAligner's tile-kernel tier. Production
// runs KernelAuto, the zero value; the other two modes exist for the
// tests and benchmarks that pin and measure it.
type KernelMode uint8

const (
	// KernelAuto (the default) fills an extension tile the vector fill
	// takes in the band a score guessed from the previous tile proves,
	// and keeps it when the banded fill's own H(n,m) certifies the band,
	// else refills it in full (certifiedFill). It runs the bitvector
	// fast path on the other extension tiles, falling back to the full
	// LUT kernel when the profit gate rejects, the tile contains N
	// codes, or the geometry is unfriendly. A first tile that passes
	// its score pass is refilled inside the band its exact score
	// proves, or in full when that band spans the sub-tile. Results are
	// bit-identical to KernelLUT on every field GACT consumes (Score,
	// IOff, JOff, Cigar; plus MaxI/MaxJ on first tiles, which come from
	// the score pass in every mode).
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
// rejected on its score pass; BitvectorTiles the banded ones, however
// their band was proven (Myers pass, first-tile score, or certified
// guess). FallbackTiles is the subset of LUTTiles that tried a band
// first: the bitvector pass hit the profit gate (or a divergence cap),
// or a guessed band failed its check. The cell counts are the cells
// actually filled, so cells-per-second can be compared per path:
// BitvectorCells the banded fills, LUTCells the full fills, the banded
// fills a failed check threw away, and the n·m cells of every first
// tile's score pass.
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

const (
	// rateShift is the fixed-point scale of the aligner's score-per-base
	// rate: 16 fraction bits.
	rateShift = 16
	// guessSlack is how far, in score units, certifiedFill's guess sits
	// below the previous tile's rate: wider bands fail fewer checks but
	// fill more cells (EXPERIMENTS.md "Self-certifying bands").
	guessSlack = 20
)

// certifiedFill aligns an extension tile the vector fill takes under
// KernelAuto. It fills the tile in the band a guessed score proves
// (guessBand) and keeps that fill when its own H(n, m) certifies it:
// the banded fill's H(n, m) is a real path's score, so a lower bound on
// the full fill's, and if its gapBand fits the filled band, the band
// theorem makes Score, IOff, JOff and Cigar exact. A tile that fails the
// check is refilled in full, never in the wider band its banded H(n, m)
// proves: that value depends on the lane width, while the verdict does
// not. If the band holds gapBand of the true H(n, m), every width
// computes H(n, m) itself and passes; if not, no lower bound can pass.
// So the counters match across widths. A failed tile counts as a
// FallbackTiles LUT tile with both fills' cells.
func (a *TileAligner) certifiedFill(n, m, maxOff int) TileResult {
	// A whole tile is laid out for the vector passes exactly where they
	// are exact on it (align).
	vec := a.vectorOK(n, m)
	band := a.guessBand(n, m)
	if band < 0 {
		return a.fillTrace(n, m, -1, maxOff, vec)
	}
	cells, score := a.fill(n, m, band, traceTop(m, maxOff), vec)
	if a.gapBand(n, m, score) <= band {
		a.ks.BitvectorTiles++
		a.ks.BitvectorCells += cells
		return a.trace(n, m, score, maxOff, vec)
	}
	a.ks.FallbackTiles++
	a.ks.LUTCells += cells
	return a.fillTrace(n, m, -1, maxOff, vec)
}

// guessBand is the band gapBand gives an n×m tile scoring guessSlack
// below the last traced tile's rate, or −1 when the aligner has traced
// no tile with a positive score or the band spans the tile. Engine.Extend
// traces its first tile before any extension tile, so a guess never
// reaches across reads.
func (a *TileAligner) guessBand(n, m int) int {
	if a.rate <= 0 {
		return -1
	}
	band := a.gapBand(n, m, a.rate*min(n, m)>>rateShift-guessSlack)
	if 2*band+1 >= min(n, m) {
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
		n := s.Len()
		switch s.Op() {
		case OpMatch:
			for k := 0; k < n; k++ {
				score += int(a.lut[(int(qc[j+k])&7)*LUTStride+int(rc[i+k])&7])
			}
			i += n
			j += n
		case OpIns:
			score -= open + (n-1)*ext
			j += n
		case OpDel:
			score -= open + (n-1)*ext
			i += n
		}
	}
	return score
}
