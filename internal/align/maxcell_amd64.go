//go:build amd64 && !purego

package align

// This file is the score pass and the pointer fill on 16 AVX2 lanes:
// gactsim's linear systolic array (one PE per query row, the reference
// streaming through) with N_pe = 16 int16 lanes, run over one 16-row
// block of the tile per call of linearBlock16 (or linearFill16) and the
// blocks in ascending row order. It computes linearPair's and
// linearRow's recurrence, so maxCell and fill take it only under
// open == ext, and only where int16 is exact (vectorOK).
//
// Lane r holds row j0+r and sits r columns behind lane r−1, so at step
// t it is at column t−r+1 and its "up" and "diagonal" inputs are what
// lane r−1 produced one and two steps earlier: the H vector shifted one
// lane (VPERM2I128 + VPALIGNR), and that shift's previous result. Lane
// 0 reads the previous block's bottom row out of the int16 row h16;
// lane 15 writes this block's bottom row back, 15 columns behind the
// read. Substitution scores are one VPSHUFB over a 16-byte int8 table
// indexed by q·4 | r, where an N code on either side is 0x80 and so
// scores 0 (VPSHUFB zeroes a byte whose index has its top bit set).
//
// Every lane steps over 15 columns it has no cell in: before column 1
// and after column n. The reference is padded there with N, and h16
// holds 0 to the right of column n, so those cells are the DP of a
// tile widened by N columns: left of column 1 they are 0 (every input
// is 0 and N scores 0), right of column n no cell exceeds the best real
// cell in its row or the rows above it, since an N column only carries
// a score on, diagonally at +0 or across at −g. Rows past m are N rows,
// bounded the same way and dropped from the resolution anyway. None of
// these cells exceeds a real one, so int16 holds them too. So a padding cell can tie
// a lane's maximum but never beat it, and a lane's strict-> maximum is
// its row's, at the earliest column; taking lanes in row order with a
// strict > is takeMax's earliest-row-then-column rule.

// useAVX2 reports whether the CPU has AVX2 and the OS saves YMM state.
var useAVX2 = hasAVX2()

func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, _, c, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if c&osxsave == 0 || c&avx == 0 || xgetbv0()&6 != 6 { // XMM and YMM state
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return b&avx2 != 0
}

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv0() uint32

// linearBlock16 runs one block: rev is the padded reversed reference
// (rev[n+14−t+r] is column t−r+1's code), h the int16 row with column c
// at h[16+c], q the block's query codes shifted to q·4, sub the
// substitution table. It leaves each lane's maximum in best and the
// step it first appeared at in at (column at−r+1).
//
//go:noescape
func linearBlock16(rev *byte, h *int16, n int, q, sub *[16]byte, gap int32, best, at *[16]int16)

// linearFill16 runs steps consecutive steps of one block of the
// pointer fill, starting at a step s: rev points at rev[n+14−s] and h
// at h[s] (linearBlock16's arrays), and ptr at step s's 16 pointer
// bytes, which each step stores and advances past. The lanes' H start
// at 0; it tracks no maximum.
//
//go:noescape
func linearFill16(rev *byte, h *int16, steps int, q, sub *[16]byte, gap int32, ptr *byte)

// vectorRows prepares the vector passes' reference side for rc: the
// padded reversed codes, N (4) as 0x84 and padding as 0x80, and an int16
// H row of zeros.
func (a *TileAligner) vectorRows(rc []byte) (rev []byte, h []int16) {
	n := len(rc)
	rev = a.rRev[:n+30]
	for k := range rev {
		rev[k] = 0x80
	}
	for i, c := range rc {
		rev[n+14-i] = c | (c&4)<<5
	}
	h = a.h16[:n+40]
	clear(h)
	return rev, h
}

// blockQuery is the query side of the block whose lane 0 is query row
// j0 + 1 (codes qc[j0:j0+16]), shifted to q·4, N (4) as 0x90; lanes
// outside the tile are N rows, 0x80.
func blockQuery(qc []byte, j0 int) (q [16]byte) {
	for r := range q {
		q[r] = 0x80
		if j := j0 + r; j >= 0 && j < len(qc) {
			c := qc[j]
			q[r] = c<<2 | (c&4)<<5
		}
	}
	return q
}

// maxCellVector is maxCell's linear pass on 16 lanes per block.
func (a *TileAligner) maxCellVector(rc, qc []byte) {
	n, m := len(rc), len(qc)
	rev, h := a.vectorRows(rc)
	a.maxScore, a.maxI, a.maxJ = 0, 0, 0
	var best, at [16]int16
	for j0 := 0; j0 < m; j0 += 16 {
		q := blockQuery(qc, j0)
		linearBlock16(&rev[0], &h[0], n, &q, a.vecSub, a.open, &best, &at)
		for r := range min(16, m-j0) {
			if s := int32(best[r]); s > a.maxScore {
				a.maxScore, a.maxI, a.maxJ = s, int(uint16(at[r]))-r+1, j0+r+1
			}
		}
	}
}

// fillVector is fillCoded's linear fill on 16 lanes per block, for a
// tile vectorOK admits: linearBlock16's wavefront with linearRow's
// selection in every lane, the blocks in the layout of ptrIndex. The
// pad rows are N rows and compute as 0, the boundary row above row 1,
// so after the last block h[16+n] is H(n, m). It returns the cells
// fillCoded counts and H(n, m).
//
// Under a band, a block runs only from one step before its first real
// row reaches that row's lo — the extra step hands lane 0 its first
// diagonal out of h — to the step its last row reaches that row's hi;
// bandCols's bounds never decrease, so those steps cover every lane's
// band. Every value a lane reads is then the full DP's or a lower
// bound of it: registers start at 0, h columns past the previous
// block's reach were never written this tile and read 0, and columns
// left of that reach are never read. By the band theorem of
// bitvector.go and the recurrence's monotonicity the cells traceback
// visits, and H(n, m), are exact; pointer bytes off its path may differ
// from fillCoded's.
func (a *TileAligner) fillVector(rc, qc []byte, band int) (cells int64, score int) {
	n, m := len(rc), len(qc)
	rev, h := a.vectorRows(rc)
	pad := -m & 15
	for b := 0; 16*b < m+pad; b++ {
		j0 := 16*b - pad // lane r is query row j0+r+1, an N row below 1
		first, last := max(j0, 0)+1, j0+16
		t0, t1 := 0, n+14
		if band >= 0 {
			lo, _ := bandCols(n, m, first, band)
			_, hi := bandCols(n, m, last, band)
			if hi < 1 {
				continue // no row of the block meets the band
			}
			// Lane first−1−j0 reaches column lo at step lo+first−j0−2.
			t0, t1 = max(0, lo+first-j0-3), hi+14
		}
		for j := first; j <= last; j++ {
			if lo, hi := bandCols(n, m, j, band); hi >= lo {
				cells += int64(hi - lo + 1)
			}
		}
		q := blockQuery(qc, j0)
		linearFill16(&rev[n+14-t0], &h[t0], t1-t0+1, &q, a.vecSub, a.open, &a.ptr[(b*(n+15)+t0)*16])
	}
	return cells, int(h[16+n])
}
