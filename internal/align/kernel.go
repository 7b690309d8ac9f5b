package align

import "darwin/internal/dna"

// negInf32 is the int32 "minus infinity" for the tile kernel's gap
// rows, chosen (like gactsim's negInf16) so that subtracting a
// Validated gap penalty cannot wrap: −2^29 − maxAbsParam > −2^31.
const negInf32 = int32(-1) << 29

// maxKernelSide is the largest tile side the int32 kernel accepts;
// beyond it the aligner falls back to the int-width reference
// implementation (see maxAbsParam for the overflow arithmetic). GACT
// tiles are two orders of magnitude smaller, so the fallback is a
// safety net, not a working path.
const maxKernelSide = 1 << 15

// TileAligner is the allocation-free production kernel behind GACT's
// Align step. It computes exactly what the free function AlignTile
// computes — that reference implementation is retained as the oracle a
// property test compares against — but owns its DP state so the steady
// state allocates nothing:
//
//   - the pointer buffer (one byte per cell, in gactsim's per-PE bank
//     layout, ptrIndex), score rows, precoded tile buffers, and
//     traceback path grow monotonically and are reused across tiles;
//   - each tile's sequences are pre-encoded to base codes once, and the
//     inner loop reads substitution scores from a flat int16 LUT — no
//     method calls, byte decodes, or N branches per DP cell (the
//     software analogue of the hardware's ASCII→3-bit converter feeding
//     the PE array, Section 7);
//   - DP rows are int32, not int; Scoring.Validate bounds the
//     parameters so int32 cannot overflow for any tile the kernel
//     accepts.
//
// A TileAligner is not safe for concurrent use; each engine clone owns
// one (mirroring the hardware, where each GACT array has private
// traceback SRAM).
type TileAligner struct {
	sc        Scoring
	lut       SubLUT
	open, ext int32
	maxSide   int // kernel side limit; a test knob, maxKernelSide in production

	// Kernel-tier state (see bitvector.go): the selected mode, the
	// optional divergence cap, the scoring's maximum substitution
	// score (the band derivation's wmax), the embedded bitvector
	// scratch, and the per-path counters.
	mode   KernelMode
	maxDiv int
	wmax   int32
	bv     MyersState
	ks     KernelStats

	// Reusable state, grown monotonically.
	ptr        []byte // pointer bytes, at ptrIndex
	hRow, vRow []int32
	rCode      []byte // precoded reference tile
	qCode      []byte // precoded query tile
	cig        Cigar  // traceback path buffer

	// The best cell of the current first tile, written by the score
	// pass (maxCell) alone; the pointer fills track no maximum.
	maxScore   int32
	maxI, maxJ int

	// The vector passes (maxcell_amd64.go): their substitution table,
	// nil where they cannot run, their int16 H row and the padded
	// reversed reference they stream.
	vecSub *[16]byte
	h16    []int16
	rRev   []byte
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
	return &TileAligner{
		sc:      *sc,
		lut:     sc.LUT(),
		open:    int32(sc.GapOpen),
		ext:     int32(sc.GapExtend),
		maxSide: maxKernelSide,
		wmax:    int32(wmax), // > 0: Validate requires a positive match
		vecSub:  vectorSub(sc),
	}, nil
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
// identical arguments, identical result. The returned Cigar aliases
// the aligner's internal buffer and is only valid until the next call;
// callers that retain it across tiles must copy it first.
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
		return res
	}
	if maxOff <= 0 {
		maxOff = max(n, m)
	}
	a.grow(n+1, m+1)
	var rc, qc []byte
	if reversed {
		rc = dna.AppendCodesReversed(a.rCode[:0], rTile)
		qc = dna.AppendCodesReversed(a.qCode[:0], qTile)
	} else {
		rc = dna.AppendCodes(a.rCode[:0], rTile)
		qc = dna.AppendCodes(a.qCode[:0], qTile)
	}
	a.rCode, a.qCode = rc, qc

	if minFirst > 0 {
		return a.firstTile(rc, qc, minFirst, maxOff)
	}
	band := -1
	if a.mode != KernelLUT {
		band = a.bitvectorBand(rc, qc)
	}
	return a.fillTrace(rc, qc, band, maxOff)
}

// firstTile composes a first tile from the two things it is: a score
// pass that locates the best cell (maxI, maxJ) — all the h_tile filter
// reads — and, for a tile that passes, an extension tile over the
// sub-tile rc[:maxI] × qc[:maxJ], which ends at that cell. H(i, j)
// depends only on rc[:i] and qc[:j], so the sub-tile's matrix is the
// full matrix's top-left corner, cell for cell and pointer for
// pointer, and the traceback from its bottom-right cell is the
// traceback from the full tile's best cell. The score pass has already
// computed that cell's score exactly, so the band bound of bitvector.go
// applies with S = maxScore and no bitvector pass.
func (a *TileAligner) firstTile(rc, qc []byte, minScore, maxOff int) TileResult {
	a.maxCell(rc, qc, a.open == a.ext)
	score, maxI, maxJ := int(a.maxScore), a.maxI, a.maxJ
	a.ks.LUTCells += int64(len(rc)) * int64(len(qc))
	if score < minScore {
		a.ks.LUTTiles++
		return TileResult{Score: score, MaxI: maxI, MaxJ: maxJ}
	}
	band := -1
	if a.mode != KernelLUT {
		if b := a.gapBand(maxI, maxJ, score); 2*b+1 < min(maxI, maxJ) {
			band = b
		}
	}
	res := a.fillTrace(rc[:maxI], qc[:maxJ], band, maxOff)
	res.MaxI, res.MaxJ = maxI, maxJ
	return res
}

// fillTrace fills the precoded tile — the full matrix when band < 0,
// else the diagonal band bandCols describes — and traces back from the
// bottom-right cell, counting the tile under the tier that filled it.
func (a *TileAligner) fillTrace(rc, qc []byte, band, maxOff int) TileResult {
	n, m := len(rc), len(qc)
	cells, score := a.fill(rc, qc, band)
	if band < 0 {
		a.ks.LUTTiles++
		a.ks.LUTCells += cells
	} else {
		a.ks.BitvectorTiles++
		a.ks.BitvectorCells += cells
	}
	cigar, iOff, jOff := a.traceback(n, m, maxOff)
	return TileResult{Score: score, IOff: iOff, JOff: jOff, Cigar: cigar}
}

// fill writes the tile's pointers and returns the cells it counts and
// H(n, m), exact in-band. Where the vector score pass is exact it runs
// on the same 16 lanes (fillVector), elsewhere on the scalar rows
// (fillCoded); both leave the same traceback.
func (a *TileAligner) fill(rc, qc []byte, band int) (cells int64, score int) {
	if a.vectorOK(len(rc), len(qc)) {
		return a.fillVector(rc, qc, band)
	}
	cells = a.fillCoded(rc, qc, band, a.open == a.ext)
	return cells, int(a.hRow[len(rc)])
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
	// The vector passes' padding: 15 columns either side of the tile,
	// and the 32-byte loads past the row's last one (maxCellVector).
	if a.vecSub != nil && cap(a.h16) < w+39 {
		a.h16 = make([]int16, w+39)
		a.rRev = make([]byte, w+29)
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
// path buffer.
func (a *TileAligner) traceback(n, m, maxOff int) (Cigar, int, int) {
	cig := a.cig[:0]
	iOff, jOff := 0, 0
	state := stateH
	for i, j := n, m; i > 0 || j > 0; {
		if iOff >= maxOff || jOff >= maxOff {
			break
		}
		var p byte // hNull on row 0 and column 0
		if i > 0 && j > 0 {
			p = a.ptr[ptrIndex(n, m, i, j)]
		}
		switch state {
		case stateH:
			switch p & hMask {
			case hNull:
				goto done
			case hDiag:
				if i == 0 || j == 0 {
					goto done
				}
				cig = cig.AppendOp(OpMatch)
				i--
				j--
				iOff++
				jOff++
			case hHoriz:
				state = hHoriz
			case hVert:
				state = hVert
			}
		case hHoriz: // consuming reference bases (OpDel)
			if i == 0 {
				goto done
			}
			cig = cig.AppendOp(OpDel)
			open := p&horizOpenBit != 0
			i--
			iOff++
			if open {
				state = stateH
			}
		case hVert: // consuming query bases (OpIns)
			if j == 0 {
				goto done
			}
			cig = cig.AppendOp(OpIns)
			open := p&vertOpenBit != 0
			j--
			jOff++
			if open {
				state = stateH
			}
		}
	}
done:
	a.cig = cig
	return cig.Reverse(), iOff, jOff
}
