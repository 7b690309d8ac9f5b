package align

import "darwin/internal/dna"

// TileResult is what the GACT array returns to software for one call to
// Align (Section 7): the tile score, the reference/query bases consumed
// by the traceback (clipped to T−O), the position of the
// highest-scoring cell (first tile only), and the traceback path.
type TileResult struct {
	// Score is TS, the H score at the cell traceback started from.
	Score int
	// IOff, JOff are the reference/query bases consumed by the tile's
	// traceback, each at most the maxOff passed to AlignTile.
	IOff, JOff int
	// MaxI, MaxJ locate the highest-scoring cell (1-based DP
	// coordinates, i.e. bases consumed from the tile origin). First
	// tiles only: an extension tile traces back from its bottom-right
	// cell, and what it leaves here is unspecified (the TileAligner
	// leaves zeros, the reference AlignTile the tile's best cell).
	MaxI, MaxJ int
	// Cigar is the tile-local traceback path, in forward order.
	Cigar Cigar
}

// AlignTile is the compute-intensive Align step of GACT (Algorithm 2,
// line 7), the routine the GACT systolic array accelerates. It fills a
// local affine-gap DP matrix over the tile and traces back
//
//   - from the highest-scoring cell when firstTile is set, or
//   - from the bottom-right cell otherwise (where the previous tile's
//     traceback ended),
//
// consuming at most maxOff (= T−O) bases of either sequence so that
// successive tiles overlap by at least O bases.
//
// Memory is O(T²) for the tile pointer matrix — the constant-memory
// property that makes GACT hardware-friendly — regardless of the total
// alignment length.
func AlignTile(rTile, qTile dna.Seq, firstTile bool, maxOff int, sc *Scoring) TileResult {
	if len(rTile) == 0 || len(qTile) == 0 {
		return TileResult{}
	}
	if maxOff <= 0 {
		maxOff = max(len(rTile), len(qTile))
	}
	f := fillLocal(rTile, qTile, sc)

	startI, startJ := len(rTile), len(qTile)
	score := f.lastRow[len(rTile)]
	if firstTile {
		startI, startJ = f.maxI, f.maxJ
		score = f.maxScore
	}
	cigar, iOff, jOff := tracebackFrom(&f, len(rTile), startI, startJ, maxOff, maxOff)
	return TileResult{
		Score: score,
		IOff:  iOff,
		JOff:  jOff,
		MaxI:  f.maxI,
		MaxJ:  f.maxJ,
		Cigar: cigar,
	}
}
