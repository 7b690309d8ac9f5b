package align

import (
	"encoding/binary"
	"math"

	"darwin/internal/dna"
)

// This file is the first-tile batch: Darwin hides latency by running
// its GACT arrays on independent tiles (Section 7), and the software
// analogue for the h_tile filter (Figure 12) is to score many
// candidates' first tiles at once, one candidate per byte lane of an
// AVX2 register (firstTileBatch32), instead of one tile's rows across
// the lanes as the score pass and the screen do. Nothing crosses lanes,
// so no lane waits on a wavefront's shift, and the lanes' tiles need
// not share a shape.
//
// The lanes run the screen's int8 recurrence (maxcell_amd64.go): diag
// + W saturates at 127 and the gap terms are unsigned saturating
// subtracts, floored at 0. Every cell is a lower bound of the exact
// one, equal to it while no cell of its lane has saturated, and a
// saturated cell is 127. So a lane whose maximum is below a threshold
// of at most 127 was scored exactly, and one that reaches it holds a
// cell that truly does.
//
// Lanes take tiles of any size up to the batch's widest and tallest:
// a shorter tile is padded with N columns on the right and N rows
// below, and unused lanes are all N. An N scores 0 against every base,
// and a path cannot leave the padding once it enters it, so a padding
// cell is a real cell's score less what the N steps cost (or a path of
// N steps alone, 0): no padding cell exceeds the lane's best real cell.

// BatchLanes is the number of first tiles one ScoreFirstTiles call
// scores: one per byte lane of an AVX2 register.
const BatchLanes = 32

// laneN is the batch's lane byte for N, a pad or any non-ACGT byte: its
// top bit makes the table lookup score it 0.
const laneN = 0x80

// The lanes' bytes come straight from ASCII, transposed as they are
// and then converted in place 32 at a time (laneCodes32): a byte b is
// a base exactly when b &^ 0x20 is one of A, C, G and T, so when the
// high nibble of b &^ 0x20 is laneHi at its low nibble, and the base's
// lane byte is then laneRef or laneQuery at that nibble — the
// reference code r and the query code shifted to q·4, the two halves
// of the substitution table's index q·4 | r. Every other byte, the
// bytes dna.Code maps to N, becomes laneN.
var (
	laneHi    = [16]byte{0xFF, 0x4, 0xFF, 0x4, 0x5, 0xFF, 0xFF, 0x4, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	laneRef   = [16]byte{1: dna.CodeA, 3: dna.CodeC, 7: dna.CodeG, 4: dna.CodeT}
	laneQuery = [16]byte{1: dna.CodeA << 2, 3: dna.CodeC << 2, 7: dna.CodeG << 2, 4: dna.CodeT << 2}
)

// FirstTileBatchOK reports whether ScoreFirstTiles can decide first
// tiles against an h_tile threshold of minScore: where the aligner has
// the vector passes (linear gaps, an AVX2 CPU, a scoring that fits the
// int8 table) and int8 lanes can decide minScore, 1 < minScore ≤ 127 —
// the screen's own rule (firstTile).
func (a *TileAligner) FirstTileBatchOK(minScore int) bool {
	return a.vecSub != nil && 1 < minScore && minScore <= math.MaxInt8
}

// ScoreFirstTiles scores the first tiles rs[k] × qs[k], k < len(rs) ≤
// BatchLanes, all non-empty, in one call, and leaves tile k's score in
// scores[k]: the exact score of its best cell where that is below 127,
// else 127. Against any threshold FirstTileBatchOK admits, a tile below
// it is rejected with the score AlignFirstTile gives it, and one at or
// above it must be rerun there for its path. It runs only where
// FirstTileBatchOK holds for some threshold, and counts nothing in
// KernelStats: a caller that discards tile k counts it with
// CountRejectedFirstTile, as AlignFirstTile counts a tile it rejects.
func (a *TileAligner) ScoreFirstTiles(rs, qs []dna.Seq, scores []int) {
	n, m := 0, 0
	for k := range rs {
		n, m = max(n, len(rs[k])), max(m, len(qs[k]))
	}
	// The transposition moves blocks of 8 positions, and the kernel
	// advances rows in pairs, so an odd m gains an N row.
	nT, mT := (n+7)&^7, (m+7)&^7
	if cap(a.bR) < BatchLanes*nT {
		a.bR = make([]byte, BatchLanes*nT)
		a.bH = make([]int8, BatchLanes*nT)
	}
	if cap(a.bQ) < BatchLanes*mT {
		a.bQ = make([]byte, BatchLanes*mT)
	}
	bR, bQ := a.bR[:BatchLanes*nT], a.bQ[:BatchLanes*mT]
	transposeLanes(bR, rs)
	transposeLanes(bQ, qs)
	laneCodes(bR, &laneRef)
	laneCodes(bQ, &laneQuery)
	h := a.bH[:BatchLanes*n]
	clear(h)
	var best [BatchLanes]int8
	firstTileBatch(a.bR, a.bQ, h, n, m, a.vecSub, min(a.open, math.MaxInt8), &best)
	for k := range rs {
		scores[k] = int(best[k])
	}
}

// transposeLanes writes the bytes of the sequences ss, one per lane
// and the rest of the BatchLanes lanes all N, lane-major to dst:
// position i of lane l at dst[i·BatchLanes + l], for the side =
// len(dst)/BatchLanes positions, a multiple of 8, each lane N-padded to
// side. It moves 8×8 byte blocks, 8 positions of 8 lanes.
func transposeLanes(dst []byte, ss []dna.Seq) {
	side := len(dst) / BatchLanes
	for l := 0; l < BatchLanes; l += 8 {
		for i := 0; i < side; i += 8 {
			transpose8(dst[i*BatchLanes+l:],
				laneWord(ss, l, i), laneWord(ss, l+1, i), laneWord(ss, l+2, i), laneWord(ss, l+3, i),
				laneWord(ss, l+4, i), laneWord(ss, l+5, i), laneWord(ss, l+6, i), laneWord(ss, l+7, i))
		}
	}
}

// laneWord is lane l's bytes at positions i … i+7 as a little-endian
// word, N past the end of its sequence.
func laneWord(ss []dna.Seq, l, i int) uint64 {
	if l >= len(ss) || i >= len(ss[l]) {
		return nWord
	}
	if s := ss[l][i:]; len(s) >= 8 {
		return binary.LittleEndian.Uint64(s)
	}
	b := [8]byte{'N', 'N', 'N', 'N', 'N', 'N', 'N', 'N'}
	copy(b[:], ss[l][i:])
	return binary.LittleEndian.Uint64(b[:])
}

// nWord is eight N bytes as a word.
const nWord = 0x4E4E4E4E4E4E4E4E

// transpose8 transposes an 8×8 byte block: byte j of little-endian
// word xk goes to byte k of the 8 at dst[j·BatchLanes:]. It swaps single
// bytes between words k and k+1, then byte pairs between words k and
// k+2, then 4-byte halves between words k and k+4.
func transpose8(dst []byte, x0, x1, x2, x3, x4, x5, x6, x7 uint64) {
	le := binary.LittleEndian
	x0, x1 = swapBytes(x0, x1, 8, 0x00FF00FF00FF00FF)
	x2, x3 = swapBytes(x2, x3, 8, 0x00FF00FF00FF00FF)
	x4, x5 = swapBytes(x4, x5, 8, 0x00FF00FF00FF00FF)
	x6, x7 = swapBytes(x6, x7, 8, 0x00FF00FF00FF00FF)
	x0, x2 = swapBytes(x0, x2, 16, 0x0000FFFF0000FFFF)
	x1, x3 = swapBytes(x1, x3, 16, 0x0000FFFF0000FFFF)
	x4, x6 = swapBytes(x4, x6, 16, 0x0000FFFF0000FFFF)
	x5, x7 = swapBytes(x5, x7, 16, 0x0000FFFF0000FFFF)
	x0, x4 = swapBytes(x0, x4, 32, 0x00000000FFFFFFFF)
	x1, x5 = swapBytes(x1, x5, 32, 0x00000000FFFFFFFF)
	x2, x6 = swapBytes(x2, x6, 32, 0x00000000FFFFFFFF)
	x3, x7 = swapBytes(x3, x7, 32, 0x00000000FFFFFFFF)
	le.PutUint64(dst, x0)
	le.PutUint64(dst[BatchLanes:], x1)
	le.PutUint64(dst[2*BatchLanes:], x2)
	le.PutUint64(dst[3*BatchLanes:], x3)
	le.PutUint64(dst[4*BatchLanes:], x4)
	le.PutUint64(dst[5*BatchLanes:], x5)
	le.PutUint64(dst[6*BatchLanes:], x6)
	le.PutUint64(dst[7*BatchLanes:], x7)
}

// swapBytes trades the mask bytes of b with the bytes sh bits above
// them in a: a's high and b's low sh-bit fields change places.
func swapBytes(a, b uint64, sh uint, mask uint64) (uint64, uint64) {
	t := (a>>sh ^ b) & mask
	return a ^ t<<sh, b ^ t
}
