package align

import (
	"math"

	"darwin/internal/dna"
)

// negInf32 is the int32 "minus infinity" for the tile kernel's gap
// rows, chosen (like gactsim's negInf16) so that subtracting a
// Validated gap penalty cannot wrap: −2^29 − maxAbsParam > −2^31.
const negInf32 = int32(-1) << 29

// MaxTileSide is the largest tile side the int32 kernel accepts;
// beyond it the aligner falls back to the int-width reference
// implementation (see maxAbsParam for the overflow arithmetic). GACT
// tiles are two orders of magnitude smaller, and gact.Config refuses
// larger ones, so the fallback is a safety net, not a working path.
const MaxTileSide = 1 << 15

// TileAligner is the allocation-free production kernel behind GACT's
// Align step. It computes exactly what the free function AlignTile
// computes — that reference implementation is retained as the oracle a
// property test compares against — but owns its DP state so the steady
// state allocates nothing:
//
//   - the pointer buffer (one byte per cell, in gactsim's per-PE bank
//     layout, ptrIndex), score rows, precoded tile buffers, and
//     traceback path grow monotonically and are reused across tiles;
//   - each tile's sequences are converted once, to the vector lanes'
//     bytes or to base codes for the scalar passes, and the inner loops
//     read substitution scores from a table (an int8 VPSHUFB table, a
//     flat int16 LUT) — no method calls, byte decodes, or N branches
//     per DP cell (the software analogue of the hardware's ASCII→3-bit
//     converter feeding the PE array, Section 7);
//   - DP rows are int32, not int; Scoring.Validate bounds the
//     parameters so int32 cannot overflow for any tile the kernel
//     accepts.
//
// A TileAligner is not safe for concurrent use; each core.Worker owns
// one (mirroring the hardware, where each GACT array has private
// traceback SRAM).
type TileAligner struct {
	sc        Scoring
	lut       SubLUT
	open, ext int32
	maxSide   int // kernel side limit; a test knob, MaxTileSide in production

	// Kernel-tier state (see bitvector.go): the selected mode, the
	// optional divergence cap, the scoring's maximum substitution
	// score (the band derivation's wmax), the score per base of the
	// last traced tile (in 1/2^rateShift units, 0 before the first),
	// the embedded bitvector scratch, and the per-path counters.
	mode   KernelMode
	maxDiv int
	wmax   int32
	rate   int
	bv     MyersState
	ks     KernelStats

	// Reusable state, grown monotonically.
	ptr        []byte // pointer bytes, at ptrIndex
	hRow, vRow []int32
	rCode      []byte // precoded reference tile, where a scalar pass reads it
	qCode      []byte // precoded query tile, likewise
	cig        Cigar  // traceback path buffer

	// The best cell of the current first tile, written by the score
	// pass (maxCellScalar, maxCellVector, maxCellScreened) alone; the
	// pointer fills track no maximum.
	maxScore   int32
	maxI, maxJ int

	// The vector passes (maxcell_amd64.go): their substitution table,
	// nil where they cannot run; laneW, the same table over every byte
	// a reference lane ORed with a query lane makes (an N, a byte
	// ≥ 0x80, scores 0, as VPSHUFB scores it); their width in int16
	// lanes (vectorLanes; tests set 16 to run the AVX2 kernels on an
	// AVX-512 host) and whether the pointer fill and every first
	// tile's score pass run on byte lanes first (fillBytes, screenOK;
	// on AVX-512BW); their int16 H row, the padded
	// reversed reference they stream, the padded shifted query codes,
	// and the int8 H row of the first-tile screen and the byte fill,
	// and the two input rows it saves.
	vecSub    *[16]byte
	laneW     [256]int8
	lanes     int
	byteLanes bool
	h16       []int16
	rRev      []byte
	qVec      []byte
	h8        []int8
	h8In      []int8

	// The first-tile batch's lane-major rows (batch.go): reference and
	// query lane bytes and the int8 H row, grown to the widest batch.
	bR, bQ []byte
	bH     []int8
}

// NewTileAligner validates sc and returns an aligner with empty
// buffers; they grow on first use (or via Preallocate).
func NewTileAligner(sc *Scoring) (*TileAligner, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	wmax := 0
	for i := range sc.W {
		for j := range sc.W[i] {
			if sc.W[i][j] > wmax {
				wmax = sc.W[i][j]
			}
		}
	}
	a := &TileAligner{
		sc:        *sc,
		lut:       sc.LUT(),
		open:      int32(sc.GapOpen),
		ext:       int32(sc.GapExtend),
		maxSide:   MaxTileSide,
		wmax:      int32(wmax), // > 0: Validate requires a positive match
		vecSub:    vectorSub(sc),
		lanes:     vectorLanes,
		byteLanes: vectorLanes == 32,
	}
	if a.vecSub != nil {
		for x, w := range a.vecSub {
			a.laneW[x] = int8(w)
		}
	}
	return a, nil
}

// Scoring returns the aligner's scoring parameters.
func (a *TileAligner) Scoring() *Scoring { return &a.sc }

// Preallocate sizes the buffers for tiles up to side×side, so the
// first tiles of a fresh engine don't pay growth allocations either.
func (a *TileAligner) Preallocate(side int) {
	if side > 0 && side <= a.maxSide {
		a.grow(side+1, side+1)
	}
}

// AlignTile is the stateful equivalent of the package-level AlignTile:
// identical arguments, identical result, except that the Cigar comes
// last step first — the order the traceback walks it in, without the
// reversal a forward path costs; gact.Engine assembles a candidate's
// path from its tiles' walks. The returned Cigar aliases the aligner's
// internal buffer and is only valid until the next call; callers that
// retain it across tiles must copy it first.
func (a *TileAligner) AlignTile(rTile, qTile dna.Seq, firstTile bool, maxOff int) TileResult {
	return a.align(rTile, qTile, firstMin(firstTile), maxOff, false)
}

// AlignTileReversed aligns the reversed tile — the tile whose contents
// are rTile and qTile read back-to-front — directly from the forward
// slices, with the same result as AlignTile(Reverse(rTile),
// Reverse(qTile), ...). GACT's right extension runs on reversed
// sequences (Section 4); precoding the reversal per tile replaces the
// per-extension full-sequence reversal copies. The same Cigar aliasing
// rule as AlignTile applies.
func (a *TileAligner) AlignTileReversed(rTile, qTile dna.Seq, firstTile bool, maxOff int) TileResult {
	return a.align(rTile, qTile, firstMin(firstTile), maxOff, true)
}

// AlignFirstTile is AlignTile(rTile, qTile, true, maxOff) for a caller
// that discards tiles scoring below minScore (GACT's h_tile filter,
// Figure 12): such a tile comes back with its exact Score, MaxI and
// MaxJ but no path (zero IOff and JOff, empty Cigar), at the cost of
// the score pass alone — no pointer matrix is written and no
// traceback runs.
func (a *TileAligner) AlignFirstTile(rTile, qTile dna.Seq, maxOff, minScore int) TileResult {
	return a.align(rTile, qTile, max(1, minScore), maxOff, false)
}

// firstMin is the minScore of a first tile whose caller set no
// threshold: every tile with a non-empty path has one.
func firstMin(firstTile bool) int {
	if firstTile {
		return 1
	}
	return 0
}

// align runs one tile: an extension tile when minFirst is 0, else a
// first tile whose path is wanted only at a score of minFirst or more.
func (a *TileAligner) align(rTile, qTile dna.Seq, minFirst, maxOff int, reversed bool) TileResult {
	n, m := len(rTile), len(qTile)
	if n == 0 || m == 0 {
		return TileResult{}
	}
	if n > a.maxSide || m > a.maxSide {
		// Outside the int32 overflow bound: use the int-width reference
		// implementation (allocating — acceptable for a path no real
		// tile configuration reaches).
		if reversed {
			rTile, qTile = dna.Reverse(rTile), dna.Reverse(qTile)
		}
		a.ks.LUTTiles++
		a.ks.LUTCells += int64(n) * int64(m)
		res := AlignTile(rTile, qTile, minFirst > 0, maxOff, &a.sc)
		if res.Score < minFirst {
			res = TileResult{Score: res.Score, MaxI: res.MaxI, MaxJ: res.MaxJ}
		}
		res.Cigar.Reverse()
		return res
	}
	if maxOff <= 0 {
		maxOff = max(n, m)
	}
	a.grow(n+1, m+1)
	// The tile's bases are converted once, for the passes that will
	// read them: the vector passes' lanes straight from ASCII where they
	// run, and the base codes where a scalar pass does — every pass where
	// the vector ones cannot run, and an extension tile's bitvector
	// tier.
	vec := a.vectorOK(n, m)
	if vec {
		a.vectorTile(rTile, qTile, reversed)
	}
	if !vec || (minFirst == 0 && a.mode != KernelAuto) {
		if reversed {
			a.rCode = dna.AppendCodesReversed(a.rCode[:0], rTile)
			a.qCode = dna.AppendCodesReversed(a.qCode[:0], qTile)
		} else {
			a.rCode = dna.AppendCodes(a.rCode[:0], rTile)
			a.qCode = dna.AppendCodes(a.qCode[:0], qTile)
		}
	}

	switch {
	case minFirst > 0:
		return a.firstTile(n, m, minFirst, maxOff)
	case a.mode == KernelAuto && vec:
		return a.certifiedFill(n, m, maxOff)
	case a.mode != KernelLUT:
		return a.fillTrace(n, m, a.bitvectorBand(a.rCode, a.qCode), maxOff, vec)
	}
	return a.fillTrace(n, m, -1, maxOff, vec)
}

// firstTile composes a first tile from the two things it is: a score
// pass that locates the best cell (maxI, maxJ) — all the h_tile filter
// reads — and, for a tile that passes, an extension tile over the
// sub-tile of its first maxI columns and maxJ rows, which ends at that
// cell. H(i, j) depends only on the first i reference and j query
// bases, so the sub-tile's matrix is the full matrix's top-left
// corner, cell for cell and pointer for pointer, and the traceback from
// its bottom-right cell is the traceback from the full tile's best
// cell. The score pass has already computed that cell's score exactly,
// so the band bound of bitvector.go applies with S = maxScore and no
// bitvector pass.
//
// Where byte lanes can score it (screenOK), the vector score pass runs
// on them first (maxCellScreened): the same result, with a rejected
// tile, and on AVX-512BW any tile scoring below 255, scored on bytes
// alone. The sub-tile is filled on whichever passes the tile was laid
// out for, even where the vector ones would be exact on it alone: a
// tile past their int16 bound has no lanes.
func (a *TileAligner) firstTile(n, m, minScore, maxOff int) TileResult {
	vec := a.vectorOK(n, m)
	switch {
	case !vec:
		a.maxCellScalar(a.rCode, a.qCode, a.open == a.ext)
	case a.screenOK(minScore):
		a.maxCellScreened(n, m)
	default:
		a.maxCellVector(n, m)
	}
	score, maxI, maxJ := int(a.maxScore), a.maxI, a.maxJ
	if score < minScore {
		a.CountRejectedFirstTile(n, m)
		return TileResult{Score: score, MaxI: maxI, MaxJ: maxJ}
	}
	a.ks.LUTCells += int64(n) * int64(m) // the score pass's
	band := -1
	if a.mode != KernelLUT {
		if b := a.gapBand(maxI, maxJ, score); 2*b+1 < min(maxI, maxJ) {
			band = b
		}
	}
	if vec {
		a.trimVector(n, maxI)
	}
	// The sub-tile's rate, which trace keeps too, predicts its fill's
	// scores (fillBytes): no cell of it scores above its last.
	a.rate = score << rateShift / min(maxI, maxJ)
	res := a.fillTrace(maxI, maxJ, band, maxOff, vec)
	res.MaxI, res.MaxJ = maxI, maxJ
	return res
}

// screenOK reports whether a first tile wanted at a score of minScore
// or more takes the byte-lane score pass (maxCellScreened): on AVX2
// lanes, which hold H, under a threshold they decide, 1 < minScore ≤
// 127; on AVX-512BW, which hold H − 128, whatever the threshold where
// the byte-lane fills run, else under one of 2–127 — in both cases for
// a gap a signed byte holds.
func (a *TileAligner) screenOK(minScore int) bool {
	threshold := 1 < minScore && minScore <= math.MaxInt8
	if a.lanes == 16 {
		return threshold
	}
	return a.open <= math.MaxInt8 && (threshold || a.byteLanes)
}

// CountRejectedFirstTile counts an n×m first tile rejected below its
// h_tile threshold in KernelStats: one LUT tile of n·m cells, its score
// pass. AlignFirstTile counts the tiles it rejects so; a caller that
// rejects a tile ScoreFirstTiles scored calls it.
func (a *TileAligner) CountRejectedFirstTile(n, m int) {
	a.ks.LUTTiles++
	a.ks.LUTCells += int64(n) * int64(m)
}

// fillTrace fills the n×m tile — the full matrix when band < 0, else
// the diagonal band bandCols describes — and traces back from the
// bottom-right cell, counting the tile under the tier that filled it.
// vec says the tile was laid out for the vector passes (fill).
func (a *TileAligner) fillTrace(n, m, band, maxOff int, vec bool) TileResult {
	cells, score := a.fill(n, m, band, traceTop(m, maxOff), vec)
	if band < 0 {
		a.ks.LUTTiles++
		a.ks.LUTCells += cells
	} else {
		a.ks.BitvectorTiles++
		a.ks.BitvectorCells += cells
	}
	return a.trace(n, m, score, maxOff, vec)
}

// trace traces back from the bottom-right cell of the filled n×m tile,
// whose H(n, m) is score, and keeps the tile's score per base for the
// next tile's guess (certifiedFill). vec says the tile was laid out for
// the vector passes.
func (a *TileAligner) trace(n, m, score, maxOff int, vec bool) TileResult {
	a.rate = score << rateShift / min(n, m)
	cigar, iOff, jOff, path := a.traceback(n, m, maxOff, vec)
	return TileResult{Score: score, IOff: iOff, JOff: jOff, Cigar: cigar, PathScore: path}
}

// traceTop is the first query row of an m-row tile whose pointer bytes
// a traceback clipped to maxOff reads: traceback stops once it has
// consumed maxOff query bases, so it reads no row above m − maxOff + 1.
func traceTop(m, maxOff int) int { return m - maxOff + 1 }

// fill writes the n×m tile's pointers in query rows top … m and
// returns the cells it counts and H(n, m), exact in-band. With vec —
// the tile was laid out for the vector passes, which vectorOK admits
// for it — it runs on the lanes (fillVector), which give the rows above
// top H alone, else on the scalar rows over the base codes (fillCoded),
// which write every row's pointers; both leave the same traceback.
func (a *TileAligner) fill(n, m, band, top int, vec bool) (cells int64, score int) {
	if vec {
		return a.fillVector(n, m, band, top)
	}
	cells = a.fillCoded(a.rCode[:n], a.qCode[:m], band, a.open == a.ext)
	return cells, int(a.hRow[n])
}

// The pointer buffer is laid out as gactsim's traceback memory: the
// tile's query rows run through a 16-PE array in blocks of 16, one row
// per PE, and each PE writes its pointers into its own bank at (block,
// step). pad = (−m) mod 16 N rows are prepended, so that the last block
// ends at row m. In block b, lane r holds query row j = 16b + r − pad + 1
// and at step t (0 ≤ t ≤ n+14) is at column i = t − r + 1; its pointer
// byte is at (b·(n+15) + t)·16 + r, which makes one step of the array
// one 16-byte store (fillVector), and one query row a stride-16 run
// (fillCoded). Row 0 and column 0 have no bytes: they are hNull.

// ptrIndex is the buffer position of cell (i, j), 1 ≤ i ≤ n and
// 1 ≤ j ≤ m, of an n×m tile's pointers.
func ptrIndex(n, m, i, j int) int {
	p := j - 1 + (-m & 15) // row j's row in the padded tile, from 0
	r := p & 15
	return ((p>>4)*(n+15)+i+r-1)*16 + r
}

// ptrLen is the size of an n×m tile's pointer buffer.
func ptrLen(n, m int) int { return (m + 15) / 16 * (n + 15) * 16 }

// grow ensures the buffers cover a w×h DP grid, an (w−1)×(h−1) tile.
func (a *TileAligner) grow(w, h int) {
	if need := ptrLen(w-1, h-1); cap(a.ptr) < need {
		a.ptr = make([]byte, need)
	}
	if cap(a.hRow) < w {
		a.hRow = make([]int32, w)
		a.vRow = make([]int32, w)
	}
	if cap(a.rCode) < w {
		a.rCode = make([]byte, 0, w)
	}
	if cap(a.qCode) < h {
		a.qCode = make([]byte, 0, h)
	}
	// The vector passes' padding (vectorTile, maxCellScreened): 63
	// columns either side of the reversed reference, 64 rows above the
	// query and 64 below it, each rounded up to the 32 bytes lane
	// conversion takes at a time, and the H rows' slack either side.
	if a.vecSub != nil && cap(a.h16) < w+95 {
		a.h16 = make([]int16, w+95)
		a.rRev = make([]byte, w+156)
		a.h8 = make([]int8, w+191)
		a.h8In = make([]int8, 2*w)
	}
	if a.vecSub != nil && cap(a.qVec) < h+158 {
		a.qVec = make([]byte, h+158)
	}
}

// bandCols is the column range [lo, hi] of query row j in an n×m tile:
// the whole row when band < 0, else the columns within ±band of the
// back-diagonal through (n, m). Both bounds never decrease as j grows,
// and hi < lo (the row misses the band) only where hi < 1.
func bandCols(n, m, j, band int) (lo, hi int) {
	if band < 0 {
		return 1, n
	}
	return max(1, j+(n-m)-band), min(n, j+(n-m)+band)
}

// bandCells is the number of cells of an n×m tile inside band
// (bandCols), the count a fill reports: the band is the 2·band + 1
// diagonals i − j = n − m ± band. Diagonal d's cells are (i, i − d),
// 1 ≤ i ≤ n and 1 ≤ i − d ≤ m, min(c, m + d, n − d) of them for
// c = min(n, m) and 1 − m ≤ d ≤ n − 1: m + d up to d = c − m − 1, c
// up to n − c, then n − d. The band's diagonals are summed as those
// three arithmetic series.
func bandCells(n, m, band int) int64 {
	if band < 0 {
		return int64(n) * int64(m)
	}
	lo, hi := max(n-m-band, 1-m), min(n-m+band, n-1)
	c := min(n, m)
	return diagSeries(lo, min(hi, c-m-1), m, 1) +
		diagSeries(max(lo, c-m), min(hi, n-c), c, 0) +
		diagSeries(max(lo, n-c+1), hi, n, -1)
}

// diagSeries is the sum of base + sign·d over a ≤ d ≤ b, 0 when b < a.
func diagSeries(a, b, base, sign int) int64 {
	if b < a {
		return 0
	}
	k := int64(b - a + 1)
	return k*int64(base) + int64(sign)*(int64(a+b)*k/2)
}

// fillCoded computes the local affine-gap DP matrix exactly as
// fillLocal does, over precoded sequences with the int16 LUT and int32
// rows, and returns the number of cells filled. After it returns, hRow
// holds H over the final query row. It tracks no maximum: its tiles
// trace back from their bottom-right cell (a first tile's best cell
// comes from the score pass, maxcell.go). With linear set it advances
// rows by the collapsed recurrence of linearRow, which open == ext
// makes valid and which writes the same pointer bytes and the same
// hRow; the affine one is valid always.
//
// band < 0 fills the full matrix. band ≥ 0 restricts row j to the
// columns bandCols gives, the bitvector tier's provably sufficient
// window (see bitvector.go). Out-of-band cells keep their
// initialization (hRow 0, vRow negInf), which are valid lower bounds
// of the true values: bands only move right as j grows, so a cell
// first entering the band has never been written this tile. The
// traceback path and hRow[n] are exact.
func (a *TileAligner) fillCoded(rc, qc []byte, band int, linear bool) int64 {
	n, m := len(rc), len(qc)
	hRow := a.hRow[:n+1]
	clear(hRow)
	if !linear {
		vRow := a.vRow[:n+1]
		for i := range vRow {
			vRow[i] = negInf32
		}
	}
	// Every in-band pointer byte is written for the current tile, and
	// traceback reads no other, so a reused buffer needs no clear.
	var cells int64
	for j := 1; j <= m; j++ {
		lo, hi := bandCols(n, m, j, band)
		if hi < lo {
			continue // row entirely outside the band
		}
		diag := hRow[lo-1] // H(j-1, lo-1)
		// H(j, lo-1): 0 on the column-0 boundary, otherwise out of band
		// (the traceback provably never crosses a band edge, so the
		// underestimate only weakens candidates that cannot win).
		leftH := negInf32
		if lo == 1 {
			leftH = 0
		}
		p := a.ptr[ptrIndex(n, m, lo, j):]
		lut := [LUTStride]int16(a.lut.Row(qc[j-1]))
		if linear {
			linearRow(hRow[lo:hi+1], p, rc[lo-1:hi], lut, diag, leftH, a.open)
		} else {
			affineRow(hRow[lo:hi+1], a.vRow[lo:hi+1], p, rc[lo-1:hi], lut, diag, leftH, a.open, a.ext)
		}
		cells += int64(hi - lo + 1)
	}
	return cells
}

// affineRow advances h and v, the H and vertical-gap rows over one
// query row's in-band columns, and writes the columns' pointer bytes to
// p. rc holds their reference codes, lut the row's substitution
// scores; diag and left are H diagonally above and left of the first
// column; column k's pointer byte is p[16k] (the layout of ptrIndex).
// The row loops are their own functions, never inlined, so
// that their live values stay in registers — inside fillCoded's row
// loop the compiler spills and reloads a dozen of the outer loop's per
// cell — and lut comes by value so that indexing it needs no nil check.
//
// The selection logic is the reference fillLocal's, rewritten as
// single-assignment conditionals and max() so the compiler emits
// conditional moves instead of branches — on noisy-read tiles the
// per-cell branches are data-dependent and mispredict heavily, which
// dominated the fill's runtime.
//
//go:noinline
func affineRow(h, v []int32, p, rc []byte, lut [LUTStride]int16, diag, left, open, ext int32) {
	h, v = h[:len(rc)], v[:len(rc)]
	hPrev := negInf32 // horizontal gap score at the column to the left
	for k, c := range rc {
		// Horizontal gap (consumes reference): depends on (j, i-1).
		hOpen := left - open
		hExt := hPrev - ext
		hGap := max(hOpen, hExt)
		var bits byte
		if hOpen >= hExt {
			bits = horizOpenBit
		}

		// Vertical gap (consumes query): depends on (j-1, i).
		up := h[k]
		vOpen := up - open
		vExt := v[k] - ext
		vGap := max(vOpen, vExt)
		if vOpen >= vExt {
			bits |= vertOpenBit
		}

		// H source selection, earliest-wins on ties (strict >
		// against the running best, as in the reference).
		diagScore := diag + int32(lut[c&7])
		best := int32(0)
		src := int32(hNull)
		if diagScore > best {
			src = hDiag
		}
		best = max(best, diagScore)
		if hGap > best {
			src = hHoriz
		}
		best = max(best, hGap)
		if vGap > best {
			src = hVert
		}
		best = max(best, vGap)
		p[16*k] = bits | byte(src)

		diag = up
		h[k] = best
		left = best
		v[k] = vGap
		hPrev = hGap
	}
}

// linearRow is affineRow under open == ext == g (the paper's GACT
// scoring), at about half the work per cell. H is the maximum over its
// cell's gap scores, so a gap never scores more extended than
// reopened. Horizontally, H(j, i−1) ≥ hGap(j, i−1), and at a row's
// first cell both are negInf32 or H is the column-0 zero; vertically,
// h[k] ≥ v[k] where row j−1 wrote them and 0 ≥ negInf32 where nothing
// has. So both of affineRow's open-vs-extend comparisons come out
// "open" (they are ≥) at every cell: the gap scores are
// H(neighbour) − g, both open bits are always set, and the gap rows
// drop out of the recurrence — v is neither read nor written.
//
//go:noinline
func linearRow(h []int32, p, rc []byte, lut [LUTStride]int16, diag, left, g int32) {
	h = h[:len(rc)]
	const open = horizOpenBit | vertOpenBit
	for k, c := range rc {
		up := h[k]
		hGap := left - g
		vGap := up - g
		// affineRow's selection, tie order included.
		diagScore := diag + int32(lut[c&7])
		best := int32(0)
		src := int32(open | hNull)
		if diagScore > best {
			src = open | hDiag
		}
		best = max(best, diagScore)
		if hGap > best {
			src = open | hHoriz
		}
		best = max(best, hGap)
		if vGap > best {
			src = open | hVert
		}
		best = max(best, vGap)
		p[16*k] = byte(src)

		diag = up
		h[k] = best
		left = best
	}
}

// traceback walks the pointers of an n×m tile from its bottom-right
// cell exactly like tracebackFrom, appending into the aligner's reused
// path buffer, and returns the path last step first, the bases it
// consumes and its score, as Result.Rescore scores a path, reading the
// bases as vec says the tile was laid out. It reads no cell
// more than maxOff rows or columns from (n, m), which is what lets fill
// leave the rows above traceTop without pointer bytes. It takes each
// run of one operation in an inner loop and appends the run once.
func (a *TileAligner) traceback(n, m, maxOff int, vec bool) (cig Cigar, iOff, jOff, score int) {
	cig = a.cig[:0]
	// The bases a diagonal step scores (Result.Rescore's sum): the lanes
	// vectorTile laid out, through laneW, when vec, else the codes.
	lw, rv, qv := &a.laneW, a.rRev, a.qVec
	lut, rc, qc := &a.lut, a.rCode, a.qCode
	// Gap runs opened and gap bases: a run appendRun merges into the
	// one before opens nothing.
	opens, gapBases := 0, 0
	ptr := a.ptr
	// Cell (i, j)'s byte is ptr[x], x = ptrIndex(n, m, i, j), with row j
	// in lane r of its 16-row block (row m in lane 15). A step left is
	// x − 16; a step up x − 17, or from lane 0 to lane 15 of the block
	// above, x + 15 − 16n.
	x, r := ptrIndex(n, m, n, m), 15
	wrap := 32 - 16*n
	i, j := n, m
	// The walk is in the H matrix at the top of each iteration. It ends
	// at an hNull byte, on row 0 or column 0 (hNull for tracebackFrom;
	// a gap run stops on the one it consumes towards and leaves the
	// other unchanged), or after maxOff bases of either sequence.
walk:
	for i > 0 && j > 0 && n-i < maxOff && m-j < maxOff {
		p := ptr[x]
		k := 0
		switch p & hMask {
		case hNull:
			break walk
		case hDiag:
			steps := min(i, j, maxOff-(n-i), maxOff-(m-j))
			for {
				// Cell (i−k, j−k): a step up the diagonal moves its lanes
				// one forward in rv and one back in qv, its codes one back.
				if vec {
					score += int(lw[qv[63+j-k]|rv[n+63-i+k]])
				} else {
					score += int(lut[int(qc[j-k-1])&7*LUTStride+int(rc[i-k-1])&7])
				}
				k++
				x -= 33
				if r == 0 {
					x += wrap
				}
				r = (r - 1) & 15
				if k == steps || ptr[x]&hMask != hDiag {
					break
				}
			}
			i -= k
			j -= k
			cig = cig.appendRun(OpMatch, k)
		case hHoriz: // consuming reference bases (OpDel)
			for {
				k++
				i--
				x -= 16
				if p&horizOpenBit != 0 || i == 0 || n-i >= maxOff {
					break
				}
				p = ptr[x]
			}
			if len(cig) == 0 || cig[len(cig)-1].Op() != OpDel {
				opens++
			}
			gapBases += k
			cig = cig.appendRun(OpDel, k)
		case hVert: // consuming query bases (OpIns)
			for {
				k++
				j--
				x -= 17
				if r == 0 {
					x += wrap
				}
				r = (r - 1) & 15
				if p&vertOpenBit != 0 || j == 0 || m-j >= maxOff {
					break
				}
				p = ptr[x]
			}
			if len(cig) == 0 || cig[len(cig)-1].Op() != OpIns {
				opens++
			}
			gapBases += k
			cig = cig.appendRun(OpIns, k)
		}
	}
	a.cig = cig
	score -= opens*int(a.open) + (gapBases-opens)*int(a.ext)
	return cig, n - i, m - j, score
}
