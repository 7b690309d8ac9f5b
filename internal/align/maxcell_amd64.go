//go:build amd64 && !purego

package align

// This file is the score pass on 16 AVX2 lanes: gactsim's linear
// systolic array (one PE per query row, the reference streaming
// through) with N_pe = 16 int16 lanes, run over one 16-row block of
// the tile per call of linearBlock16 and the blocks in ascending row
// order. It computes linearPair's recurrence, so maxCell takes it only
// under open == ext, and only where int16 is exact (vectorOK).
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

// maxCellVector is maxCell's linear pass on 16 lanes per block.
func (a *TileAligner) maxCellVector(rc, qc []byte) {
	n, m := len(rc), len(qc)
	rev := a.rRev[:n+30]
	for k := range rev {
		rev[k] = 0x80
	}
	for i, c := range rc {
		rev[n+14-i] = c | (c&4)<<5 // N (4) → 0x84
	}
	h := a.h16[:n+40]
	clear(h)
	a.maxScore, a.maxI, a.maxJ = 0, 0, 0
	var q [16]byte
	var best, at [16]int16
	for j0 := 0; j0 < m; j0 += 16 {
		rows := min(16, m-j0)
		for r := range q {
			q[r] = 0x80
			if r < rows {
				c := qc[j0+r]
				q[r] = c<<2 | (c&4)<<5 // N (4) → 0x90
			}
		}
		linearBlock16(&rev[0], &h[0], n, &q, a.vecSub, a.open, &best, &at)
		for r := range rows {
			if s := int32(best[r]); s > a.maxScore {
				a.maxScore, a.maxI, a.maxJ = s, int(uint16(at[r]))-r+1, j0+r+1
			}
		}
	}
}
