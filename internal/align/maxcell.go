package align

import (
	"math"

	"darwin/internal/dna"
)

// This file is the first tile's score pass. The h_tile filter (Figure
// 12) reads one number off a first tile — the score of its best cell —
// and a traceback needs only that cell's position on top, so the pass
// keeps score rows and writes no pointer bytes. It leaves in maxScore,
// maxI and maxJ — which nothing else writes — the best cell of the
// reference fillLocal, ties included (earliest row, then earliest
// column).
//
// Two query rows advance per inner iteration, row A = j at column k+1
// and row B = j+1 at column k. The skew hands row B its upper
// neighbours — row A at columns k and k−1 — in registers, so the two
// rows' left-to-right dependency chains overlap and the H row is read
// and written once per row pair instead of once per row.

// maxCell locates the highest-scoring cell of the precoded tile. With
// linear set it runs the collapsed recurrence of linearPair, which
// open == ext makes valid — on 16 AVX2 lanes (maxcell_amd64.go) where
// the CPU has them and int16 cannot overflow — and the affine one,
// which is valid always, otherwise.
func (a *TileAligner) maxCell(rc, qc []byte, linear bool) {
	if linear && a.vectorOK(len(rc), len(qc)) {
		a.maxCellVector(rc, qc)
		return
	}
	a.maxCellScalar(rc, qc, linear)
}

// vectorOK reports whether the vector passes are exact on an n×m tile:
// the scoring fits its int8 table (vecSub set) and no cell can exceed
// int16 — a local path aligns at most min(n, m) pairs, each worth at
// most wmax.
func (a *TileAligner) vectorOK(n, m int) bool {
	return a.vecSub != nil && int(a.wmax)*min(n, m) <= math.MaxInt16
}

// vectorSub is the vector pass's substitution table for sc, int8
// W[r][q] at q·4 | r, or nil when the CPU lacks the pass or sc's
// scores do not fit it.
func vectorSub(sc *Scoring) *[16]byte {
	if !useAVX2 || sc.GapOpen != sc.GapExtend {
		return nil
	}
	var t [16]byte
	for r := range 4 {
		for q := range 4 {
			w := sc.W[r][q]
			if w < -127 || w > 127 {
				return nil
			}
			t[q*4|r] = byte(int8(w))
		}
	}
	return &t
}

// maxCellScalar is maxCell on the scalar row pairs: the pass wherever
// vectorOK does not hold, and the oracle of the vector one.
func (a *TileAligner) maxCellScalar(rc, qc []byte, linear bool) {
	hRow, vRow := a.hRow[:len(rc)+1], a.vRow[:len(rc)+1]
	for i := range hRow {
		hRow[i] = 0
		vRow[i] = negInf32
	}
	a.maxScore, a.maxI, a.maxJ = 0, 0, 0
	for j := 1; j <= len(qc); j += 2 {
		// An odd height pairs the last row with an N row. N scores 0
		// against every base, so no cell of that row can exceed the cells
		// above it, which were compared first: it never takes the maximum.
		qB := byte(dna.CodeN)
		if j < len(qc) {
			qB = qc[j]
		}
		if linear {
			a.linearPair(rc, qc[j-1], qB, j)
		} else {
			a.affinePair(rc, qc[j-1], qB, j)
		}
	}
}

// pairLUT packs the substitution rows of query codes qA and qB into
// one table on the caller's stack: row A's score in the low half, row
// B's in the high half, one load per reference base for both rows.
func (a *TileAligner) pairLUT(qA, qB byte) (comb [LUTStride]int32) {
	lutA, lutB := a.lut.Row(qA), a.lut.Row(qB)
	for c := range comb {
		comb[c] = int32(lutB[c])<<16 | int32(uint16(lutA[c]))
	}
	return comb
}

// takeMax records cell (i, j) as the tile's best if it scores above
// the running maximum — or equals it while the maximum is held by a
// later row, which happens only between the two rows of a pair: row B
// reaches its column k one iteration before row A reaches column k+2.
// The running maximum lives in the aligner, not in a local, to keep it
// out of the fill loops' registers; updates are rare.
func (a *TileAligner) takeMax(h int32, i, j int) {
	if h > a.maxScore || (h == a.maxScore && a.maxJ > j) {
		a.maxScore, a.maxI, a.maxJ = h, i, j
	}
}

// affinePair advances the score rows over query rows j (code qA) and
// j+1 (code qB).
func (a *TileAligner) affinePair(rc []byte, qA, qB byte, j int) {
	comb := a.pairLUT(qA, qB)
	open, ext := a.open, a.ext
	// Two views of each row, so that index k is in bounds for both:
	// column k (row B's cell, row A's diagonal) and column k+1 (above
	// row A's cell).
	hDiag, hUp := a.hRow[:len(rc)], a.hRow[1:][:len(rc)]
	vDiag, vUp := a.vRow[:len(rc)], a.vRow[1:][:len(rc)]
	// Row A at column k: H, horizontal and vertical gap scores.
	hA, hgA, vgA := int32(0), negInf32, negInf32
	// Row B at column k−1, and its next diagonal term H(j, k−1) + W.
	// From this start row B's column 0 comes out as H = 0.
	hB, hgB, tB := int32(0), negInf32, int32(0)
	for k, c := range rc {
		p := comb[c&7]
		openA := hA - open // opens row A's horizontal and row B's vertical gap
		hgB = max(hB-open, hgB-ext)
		vgB := max(openA, vgA-ext)
		hB = max(0, tB, hgB, vgB)
		tB = hA + p>>16
		hgA = max(openA, hgA-ext)
		vgA = max(hUp[k]-open, vUp[k]-ext)
		hA = max(0, hDiag[k]+int32(int16(p)), hgA, vgA)
		hDiag[k], vDiag[k] = hB, vgB
		if hA >= a.maxScore {
			a.takeMax(hA, k+1, j)
		}
		if hB > a.maxScore {
			a.takeMax(hB, k, j+1)
		}
	}
	n := len(rc)
	vgB := max(hA-open, vgA-ext)
	hB = max(0, tB, max(hB-open, hgB-ext), vgB)
	a.hRow[n], a.vRow[n] = hB, vgB
	if hB > a.maxScore {
		a.takeMax(hB, n, j+1)
	}
}

// linearPair is affinePair under open == ext == g (the paper's GACT
// scoring). H is the maximum over its cell's gap scores, so a gap
// never scores more extended than reopened: the vertical gap into
// (i, j) is H(i, j−1) − g, the horizontal one H(i−1, j) − g, and the
// gap rows drop out of the recurrence.
func (a *TileAligner) linearPair(rc []byte, qA, qB byte, j int) {
	comb := a.pairLUT(qA, qB)
	g := a.open
	hDiag, hUp := a.hRow[:len(rc)], a.hRow[1:][:len(rc)]
	hA, hB, tB := int32(0), int32(0), int32(0)
	for k, c := range rc {
		p := comb[c&7]
		nB := max(0, tB, max(hA, hB)-g)
		nA := max(0, hDiag[k]+int32(int16(p)), max(hUp[k], hA)-g)
		tB = hA + p>>16
		hDiag[k] = nB
		hA, hB = nA, nB
		if nA >= a.maxScore {
			a.takeMax(nA, k+1, j)
		}
		if nB > a.maxScore {
			a.takeMax(nB, k, j+1)
		}
	}
	n := len(rc)
	hB = max(0, tB, max(hA, hB)-g)
	a.hRow[n] = hB
	if hB > a.maxScore {
		a.takeMax(hB, n, j+1)
	}
}
