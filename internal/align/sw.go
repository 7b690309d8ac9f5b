package align

import (
	"fmt"
	"sync"

	"darwin/internal/dna"
)

// Traceback pointer encoding, 4 bits per cell exactly as the GACT PE
// emits them (Section 7): two bits for how H was derived (null,
// diagonal, horizontal, vertical) and one bit each recording whether
// the horizontal/vertical gap scores opened a fresh gap from H or
// extended an existing gap.
//
// Orientation: rows (j) index the query, columns (i) index the
// reference, as in the paper's Figure 1. A horizontal move consumes a
// reference base only (a deletion from the query's perspective, OpDel);
// a vertical move consumes a query base only (an insertion, OpIns).
const (
	hNull  = 0
	hDiag  = 1
	hHoriz = 2 // from the horizontal gap state: consumes reference (OpDel)
	hVert  = 3 // from the vertical gap state: consumes query (OpIns)
	hMask  = 3

	horizOpenBit = 1 << 2 // horizontal gap opened from H at this cell
	vertOpenBit  = 1 << 3 // vertical gap opened from H at this cell

	stateH = byte(4) // traceback state: in the H matrix
)

const negInf = int(-1) << 40

// fillResult carries everything the two traceback flavours need from a
// single matrix-fill pass over ref (columns) × query (rows).
type fillResult struct {
	// ptr is the (len(query)+1)×(len(ref)+1) pointer matrix, row-major;
	// row j, column i is ptr[j*(len(ref)+1)+i].
	ptr []byte
	// maxScore and (maxI, maxJ) locate the highest-scoring cell; ties
	// resolve to the earliest row, then earliest column, matching the
	// systolic array's first-encountered convention.
	maxScore   int
	maxI, maxJ int
	// lastRow is H over the final query row (the score of the
	// bottom-right cell, where non-first GACT tiles start traceback,
	// is lastRow[len(ref)]).
	lastRow []int
}

// fillLocal computes the local (Smith-Waterman) DP matrix with affine
// gaps per the paper's equations (1)-(3) and records traceback pointers.
func fillLocal(ref, query dna.Seq, sc *Scoring) fillResult {
	w := len(ref) + 1
	h := len(query) + 1
	res := fillResult{ptr: make([]byte, w*h)}

	hRow := make([]int, w) // H of previous row, updated in place
	vRow := make([]int, w) // vertical gap score of previous row
	for i := range vRow {
		vRow[i] = negInf
	}
	for j := 1; j < h; j++ {
		diag := hRow[0] // H(j-1, 0)
		hRow[0] = 0
		hPrev := negInf // horizontal gap score at (j, i-1)
		rowPtr := res.ptr[j*w:]
		qb := query[j-1]
		for i := 1; i < w; i++ {
			var p byte

			// Horizontal gap (consumes reference): depends on (j, i-1).
			hOpen := hRow[i-1] - sc.GapOpen
			hExt := hPrev - sc.GapExtend
			hGap := hExt
			if hOpen >= hExt {
				hGap = hOpen
				p |= horizOpenBit
			}

			// Vertical gap (consumes query): depends on (j-1, i).
			vOpen := hRow[i] - sc.GapOpen
			vExt := vRow[i] - sc.GapExtend
			vGap := vExt
			if vOpen >= vExt {
				vGap = vOpen
				p |= vertOpenBit
			}

			diagScore := diag + sc.Sub(ref[i-1], qb)
			best, src := 0, byte(hNull)
			if diagScore > best {
				best, src = diagScore, hDiag
			}
			if hGap > best {
				best, src = hGap, hHoriz
			}
			if vGap > best {
				best, src = vGap, hVert
			}
			p |= src
			rowPtr[i] = p

			diag = hRow[i]
			hRow[i] = best
			vRow[i] = vGap
			hPrev = hGap

			if best > res.maxScore {
				res.maxScore = best
				res.maxI, res.maxJ = i, j
			}
		}
	}
	res.lastRow = hRow
	return res
}

// tracebackFrom walks pointers from cell (i, j) until a null pointer or
// a matrix edge, or until maxRefOff/maxQueryOff reference/query bases
// have been consumed (the T−O clipping of GACT's Align; pass len+1 to
// disable). It returns the path in forward order and the offsets
// consumed.
func tracebackFrom(f *fillResult, refLen int, i, j, maxRefOff, maxQueryOff int) (cigar Cigar, iOff, jOff int) {
	w := refLen + 1
	state := stateH
	for i > 0 || j > 0 {
		if iOff >= maxRefOff || jOff >= maxQueryOff {
			break
		}
		p := f.ptr[j*w+i]
		switch state {
		case stateH:
			switch p & hMask {
			case hNull:
				return cigar.Reverse(), iOff, jOff
			case hDiag:
				if i == 0 || j == 0 {
					return cigar.Reverse(), iOff, jOff
				}
				cigar = cigar.AppendOp(OpMatch)
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
				return cigar.Reverse(), iOff, jOff
			}
			cigar = cigar.AppendOp(OpDel)
			open := p&horizOpenBit != 0
			i--
			iOff++
			if open {
				state = stateH
			}
		case hVert: // consuming query bases (OpIns)
			if j == 0 {
				return cigar.Reverse(), iOff, jOff
			}
			cigar = cigar.AppendOp(OpIns)
			open := p&vertOpenBit != 0
			j--
			jOff++
			if open {
				state = stateH
			}
		}
	}
	return cigar.Reverse(), iOff, jOff
}

// SmithWaterman computes the optimal local alignment of query against
// ref with affine gap penalties, returning the full path. This is the
// O(mn)-memory oracle used to validate GACT optimality (Fig. 9a); it is
// exact, not a heuristic.
func SmithWaterman(ref, query dna.Seq, sc *Scoring) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if len(ref) == 0 || len(query) == 0 {
		return nil, fmt.Errorf("align: empty sequence (ref %d, query %d)", len(ref), len(query))
	}
	f := fillLocal(ref, query, sc)
	cigar, iOff, jOff := tracebackFrom(&f, len(ref), f.maxI, f.maxJ, len(ref)+1, len(query)+1)
	res := &Result{
		Score:      f.maxScore,
		RefStart:   f.maxI - iOff,
		RefEnd:     f.maxI,
		QueryStart: f.maxJ - jOff,
		QueryEnd:   f.maxJ,
		Cigar:      cigar,
	}
	return res, nil
}

// scoreBuf is the pooled row state ScoreOnly reuses across calls: DP
// rows and precoded sequence buffers, so it pays neither per-call row
// allocations nor per-cell Sub decodes.
type scoreBuf struct {
	rows  [][]int
	rCode []byte
	qCode []byte
}

// row returns the x-th pooled row with length at least w.
func (b *scoreBuf) row(x, w int) []int {
	for len(b.rows) <= x {
		b.rows = append(b.rows, nil)
	}
	if cap(b.rows[x]) < w {
		b.rows[x] = make([]int, w)
	}
	return b.rows[x][:w]
}

var scorePool = sync.Pool{New: func() any { return new(scoreBuf) }}

// ScoreOnly computes just the optimal local alignment score in O(m)
// memory, for large-scale optimality checks where the path is not
// needed. It shares the tile kernel's flat scoring LUT and a pool of
// reusable DP rows, so the inner loop is pure array arithmetic (scores
// stay int-width here: unlike tiles, whole-sequence lengths are
// unbounded).
func ScoreOnly(ref, query dna.Seq, sc *Scoring) int {
	lut := sc.LUT()
	buf := scorePool.Get().(*scoreBuf)
	defer scorePool.Put(buf)
	w := len(ref) + 1
	hRow := buf.row(0, w)
	vRow := buf.row(1, w)
	for i := range hRow {
		hRow[i] = 0
	}
	for i := range vRow {
		vRow[i] = negInf
	}
	rc := dna.AppendCodes(buf.rCode[:0], ref)
	qc := dna.AppendCodes(buf.qCode[:0], query)
	buf.rCode, buf.qCode = rc, qc
	best := 0
	for j := 1; j <= len(query); j++ {
		diag := hRow[0]
		hRow[0] = 0
		hPrev := negInf
		qcode := int(qc[j-1]) & 7
		lutRow := lut[qcode*LUTStride : qcode*LUTStride+LUTStride]
		for i := 1; i < w; i++ {
			hGap := max(hRow[i-1]-sc.GapOpen, hPrev-sc.GapExtend)
			vGap := max(hRow[i]-sc.GapOpen, vRow[i]-sc.GapExtend)
			hCur := max(0, max(diag+int(lutRow[rc[i-1]&7]), max(hGap, vGap)))
			diag = hRow[i]
			hRow[i] = hCur
			vRow[i] = vGap
			hPrev = hGap
			if hCur > best {
				best = hCur
			}
		}
	}
	return best
}
