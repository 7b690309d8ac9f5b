//go:build amd64 && !purego

package align

import (
	"encoding/binary"
	"math"
	"math/bits"

	"darwin/internal/dna"
)

// This file is the score pass and the pointer fill on vector lanes:
// gactsim's linear systolic array (one PE per query row, the reference
// streaming through) with N_pe = 32 int16 lanes on AVX-512BW
// (linearBlock32, linearFill32) or 16 on AVX2 (linearBlock16,
// linearFill16), run over one block of N_pe rows of the tile per call
// and the blocks in ascending row order. It computes linearPair's and
// linearRow's recurrence, so firstTile and fill take it only under
// open == ext, and only where int16 is exact (vectorOK).
//
// Lane r holds row j0+r and sits r columns behind lane r−1, so at step
// t it is at column t−r+1 and its "up" and "diagonal" inputs are what
// lane r−1 produced one and two steps earlier: the H vector shifted one
// lane (VPERM2I128 or VALIGNQ, then VPALIGNR), and that shift's
// previous result. Lane 0 reads the previous block's bottom row out of
// the int16 row h16; the last lane writes this block's bottom row back,
// N_pe − 1 columns behind the read. Substitution scores are one VPSHUFB
// over a 16-byte int8 table indexed by q·4 | r, where an N code on
// either side is 0x80 and so scores 0 (VPSHUFB zeroes a byte whose
// index has its top bit set).
//
// Every lane steps over N_pe − 1 columns it has no cell in: before
// column 1 and after column n. The reference is padded there with N,
// and h16 holds 0 to the right of column n, so those cells are the DP
// of a tile widened by N columns: left of column 1 they are 0 (every
// input is 0 and N scores 0), right of column n no cell exceeds the
// best real cell in its row or the rows above it, since an N column
// only carries a score on, diagonally at +0 or across at −g. Rows past
// m are N rows, bounded the same way and dropped from the resolution
// anyway. None of these cells exceeds a real one, so int16 holds them
// too. So a padding cell can tie a lane's maximum but never beat it,
// and a lane's strict-> maximum is its row's, at the earliest column;
// taking lanes in row order with a strict > is takeMax's
// earliest-row-then-column rule. Nothing here depends on N_pe, so both
// widths find the same cell.
//
// Both widths share one layout of the padded rows. rev holds the
// reference reversed with 31 N codes either side (rev[n+30−i] = rc[i]),
// so rev[n+30−t] is where step t's lane 0 reads at either width. h16
// holds column c at h16[64+c]: the 32-lane write of column −30 is a
// store starting 31 words below it, so column 0 needs 61 words below
// it, and lane 0's reads reach column n+31.
//
// A first tile is scored on byte lanes where they are exact enough
// (screenOK, maxCellScreened): the same wavefront, 64 rows per block on
// AVX-512BW (screenBlock64) and 32 on AVX2 (screenBlock32), twice the
// int16 pass's rows per step, keeping each lane's maximum but not its
// step. On AVX2, taken under an h_tile threshold 1 < minScore ≤ 127, a
// byte holds H: diag + W saturates at 127, and H − g is an unsigned
// saturating subtract, max(0, H − g) for 0 ≤ H ≤ 127, the floor the
// recurrence takes anyway (g is clamped to 127, which changes nothing
// while H ≤ 127). On AVX-512BW, taken for every first tile whose g is
// at most 127, a byte holds H − 128 as the byte-lane fills' do (see
// fillBytes), and every H up to 254 is exact. Either way only the add
// can saturate at the top, clipping at +127: every byte cell is a lower
// bound of its int16 one, and equal to it while nothing has saturated. So a block whose byte maximum stays below +127 was
// computed exactly. The screen stops at the first block that reaches
// +127 and hands the rest of the tile to the int16 blocks, from the
// input row it saved before the block (exact, since every earlier
// block was), after the best cell of the blocks before; the int16
// blocks take a later row's cell only if it scores more. Otherwise the
// tile's best cell is the first lane of the earliest block to reach the
// tile's maximum, at the first step that lane holds it, which rerunning
// that block on bytes, from its saved row, finds. The byte rows pad the
// reference with 63 N codes either side (rRev[n+62−i] = rc[i], of which
// rev is the window from 32) and hold column c at h8[128+c].

// vectorLanes is the CPU's vector width in int16 lanes: 32 where it
// has AVX-512F/BW/VL and the OS saves opmask and ZMM state, 16 where it
// has AVX2 and the OS saves YMM state, else 0.
var vectorLanes = cpuLanes()

func cpuLanes() int {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return 0
	}
	_, _, c, _ := cpuid(1, 0)
	_, b, _, _ := cpuid(7, 0)
	var xcr0 uint32
	if c&cpuOSXSAVE != 0 { // else XGETBV faults
		xcr0 = xgetbv0()
	}
	return laneWidth(c, b, xcr0)
}

// CPUID leaf 1 ECX, leaf 7 EBX and XCR0 bits laneWidth reads.
const (
	cpuOSXSAVE, cpuAVX = 1 << 27, 1 << 28
	cpuAVX2            = 1 << 5
	cpuAVX512          = 1<<16 | 1<<30 | 1<<31 // F, BW, VL
	xcr0YMM            = 0x06                  // XMM and YMM state
	xcr0ZMM            = 0xE6                  // and opmask, ZMM_Hi256, Hi16_ZMM
)

// laneWidth is the vector width the features allow, from CPUID leaf 1's
// ECX, leaf 7's EBX and XCR0: 32, 16 or 0. A width the OS does not save
// the registers of would fault, so both need the XCR0 bits as well.
func laneWidth(ecx1, ebx7, xcr0 uint32) int {
	if ecx1&(cpuOSXSAVE|cpuAVX) != cpuOSXSAVE|cpuAVX || xcr0&xcr0YMM != xcr0YMM || ebx7&cpuAVX2 == 0 {
		return 0
	}
	if ebx7&cpuAVX512 == cpuAVX512 && xcr0&xcr0ZMM == xcr0ZMM {
		return 32
	}
	return 16
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

// linearScore16 is linearFill16 without the pointers: the same steps
// over the same arrays, storing only lane 15's H to h.
//
//go:noescape
func linearScore16(rev *byte, h *int16, steps int, q, sub *[16]byte, gap int32)

// linearBlock32 is linearBlock16 on 32 lanes, over vectorRows' arrays
// as they are: rev[n+30−t+r] is column t−r+1's code and h holds column c
// at h[64+c].
//
//go:noescape
func linearBlock32(rev *byte, h *int16, n int, q *[32]byte, sub *[16]byte, gap int32, best, at *[32]int16)

// linearFill32 is linearFill16 on 32 lanes, run from a step s over a
// pair of 16-row blocks of the pointer layout: lanes 0–15 are the lower
// block's at its step s, lanes 16–31 the upper block's at its step
// s−16. rev points at rev[n+30−s] and h at h[s] (linearBlock32's
// arrays), ptr at the upper block's pointer bytes of step s−16 and
// ptr+lo at the lower block's of step s. It runs nLo steps that store
// the lower block's bytes, then nBoth that store both blocks', then nHi
// that store the upper block's.
//
//go:noescape
func linearFill32(rev *byte, h *int16, q *[32]byte, sub *[16]byte, gap int32, ptr *byte, lo, nLo, nBoth, nHi int)

// linearScore32 is linearFill32 without the pointers: steps steps of
// a 32-row block from a step s over the same arrays, storing only lane
// 31's H to h.
//
//go:noescape
func linearScore32(rev *byte, h *int16, q *[32]byte, sub *[16]byte, gap int32, steps int)

// linearFill64 runs one group of four 16-row blocks of the pointer
// fill on 64 biased byte lanes (fillBytes), from a group step s: lanes
// 16k…16k+15 are block k's PEs at its step s−16k. rev points at
// rRev[n+62−s] and h at the biased byte row's h[s], column c at
// h[128+c]; ptr at block 3's pointer bytes of its step s−48, block k's
// being (3−k)·stride bytes below. It runs n0 steps that store all four
// blocks' bytes, then n1 that store blocks 1–3, n2 blocks 2–3 and n3
// block 3, and reports whether any cell reached H = 255.
//
//go:noescape
func linearFill64(rev *byte, h *int8, q *[64]byte, sub *[16]byte, gap int32, ptr *byte, stride, n0, n1, n2, n3 int) bool

// linearScore64 is linearFill64 without the pointers: steps steps of a
// group from a step s over the same arrays, storing only lane 63's H to
// h.
//
//go:noescape
func linearScore64(rev *byte, h *int8, q *[64]byte, sub *[16]byte, gap int32, steps int) bool

// screenBlock32 runs one 32-row block of the AVX2 screen: rev is the
// byte rows' padded reversed reference from its 32nd code (rev[n+30−t+r]
// is column t−r+1's code, as for linearBlock32), h the int8 row with
// column c at h[128+c], q the block's query codes. It leaves each lane's
// maximum, saturated at 127, in best.
//
//go:noescape
func screenBlock32(rev *byte, h *int8, n int, q *[32]byte, sub *[16]byte, gap int32, best *[32]int8)

// screenFind32 reruns screenBlock32's block from the same row and
// returns the first step t at which lane holds score (column
// t−lane+1), or n+31 if none does.
//
//go:noescape
func screenFind32(rev *byte, h *int8, n int, q *[32]byte, sub *[16]byte, gap int32, lane int, score int32) int

// screenBlock64 is screenBlock32 on 64 AVX-512BW lanes: rev[n+62−t+r]
// is column t−r+1's code.
//
//go:noescape
func screenBlock64(rev *byte, h *int8, n int, q *[64]byte, sub *[16]byte, gap int32, best *[64]int8)

// screenFind64 is screenFind32 on 64 lanes: none found is n+63.
//
//go:noescape
func screenFind64(rev *byte, h *int8, n int, q *[64]byte, sub *[16]byte, gap int32, lane int, score int32) int

// firstTileBatch32 scores 32 first tiles, one per byte lane, over the
// lane-major rows ScoreFirstTiles builds: r and h n·32 bytes, q m·32
// (batch.go). It leaves each lane's maximum, saturated at 127, in best.
//
//go:noescape
func firstTileBatch32(r, q *byte, h *int8, n, m int, sub *[16]byte, gap int32, best *[32]int8)

func firstTileBatch(r, q []byte, h []int8, n, m int, sub *[16]byte, gap int32, best *[BatchLanes]int8) {
	firstTileBatch32(&r[0], &q[0], &h[0], n, m, sub, gap, best)
}

// laneCodes32 maps n·32 ASCII bytes at p in place to lane bytes: a
// base to code at the low nibble of its upper-case letter, where hi
// holds that letter's high nibble, any other byte to 0x80 (batch.go).
//
//go:noescape
func laneCodes32(p *byte, n int, hi, code *[16]byte)

// laneCodes maps buf, a multiple of 32 bytes, in place from ASCII to
// the lane bytes code gives the bases (laneRef or laneQuery).
func laneCodes(buf []byte, code *[16]byte) {
	if len(buf) > 0 {
		laneCodes32(&buf[0], len(buf)/32, &laneHi, code)
	}
}

// vectorTile lays the tile rTile × qTile — read back-to-front when
// reversed — out for the vector passes, straight from ASCII: in rRev the
// reference reversed, rRev[n+62−i] column i+1's code, with 63 pad bytes
// either side, and in qVec row j's code shifted to q·4 at qVec[63+j],
// with 64 pad rows above row 1 and 64 below row m. Each side is copied
// in its order, then converted in place 32 bytes at a time
// (laneCodes32), as the first-tile batch converts its lanes: a base to
// its code, every other byte and the padding to 0x80, which scores 0.
func (a *TileAligner) vectorTile(rTile, qTile dna.Seq, reversed bool) {
	n, m := len(rTile), len(qTile)
	wide := a.rRev[:(n+126+31)&^31]
	for k := range wide[:63] {
		wide[k] = laneN
	}
	if reversed {
		copy(wide[63:], rTile)
	} else {
		reverseInto(wide[63:63+n], rTile)
	}
	for k := range wide[n+63:] {
		wide[n+63+k] = laneN
	}
	laneCodes(wide, &laneRef)
	q := a.qVec[:(m+128+31)&^31]
	for k := range q[:64] {
		q[k] = laneN
	}
	if reversed {
		reverseInto(q[64:64+m], qTile)
	} else {
		copy(q[64:], qTile)
	}
	for k := range q[m+64:] {
		q[m+64+k] = laneN
	}
	laneCodes(q, &laneQuery)
}

// reverseInto writes s to dst, len(dst) = len(s), last byte first,
// eight bytes per word.
func reverseInto(dst []byte, s dna.Seq) {
	n := len(s)
	i := 0
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(dst[n-8-i:], bits.ReverseBytes64(binary.LittleEndian.Uint64(s[i:])))
	}
	for ; i < n; i++ {
		dst[n-1-i] = s[i]
	}
}

// trimVector cuts the tile vectorTile laid out, n columns wide, to its
// first n2 columns for a pointer fill (fillVector) of its top-left
// corner: the reversed reference moves forward by n − n2, so that
// column n2 sits where the layout keeps the last column. The bytes right
// of column n2 and the query rows below the corner are then the rest of
// the tile, not padding, which a fill may leave: a cell depends on no
// column to its right, so the lanes' cells there reach no cell of the
// corner, and the fill's blocks end at the corner's last row.
func (a *TileAligner) trimVector(n, n2 int) {
	copy(a.rRev, a.rRev[n-n2:n+126])
}

// vectorRows is the int16 passes' view of an n-column tile's lanes: rev
// the window of rRev from its 32nd byte, rev[n+30−t+r] column t−r+1's
// code, and the int16 H row cleared, column c at h[64+c].
func (a *TileAligner) vectorRows(n int) (rev []byte, h []int16) {
	h = a.h16[:n+96]
	clear(h)
	return a.rRev[32 : n+94], h
}

// maxCellVector is maxCellScalar's linear pass on the aligner's vector
// lanes, over the n×m tile vectorTile laid out.
func (a *TileAligner) maxCellVector(n, m int) {
	rev, h := a.vectorRows(n)
	a.maxScore, a.maxI, a.maxJ = 0, 0, 0
	a.scoreBlocks(rev, h, a.qVec, 0, m)
}

// scoreBlocks runs the int16 blocks of query rows j0+1 … j1, j0 a
// multiple of the lane count, over vectorRows' and qVec's arrays with h
// holding row j0, and takes their best cell into maxScore, maxI
// and maxJ.
func (a *TileAligner) scoreBlocks(rev []byte, h []int16, qv []byte, j0, j1 int) {
	n := len(rev) - 62
	var best, at [32]int16
	for ; j0 < j1; j0 += a.lanes {
		if a.lanes == 32 {
			linearBlock32(&rev[0], &h[0], n, (*[32]byte)(qv[64+j0:]), a.vecSub, a.open, &best, &at)
		} else {
			linearBlock16(&rev[16], &h[48], n, (*[16]byte)(qv[64+j0:]), a.vecSub, a.open, (*[16]int16)(best[:16]), (*[16]int16)(at[:16]))
		}
		for r := range min(a.lanes, j1-j0) {
			if s := int32(best[r]); s > a.maxScore {
				a.maxScore, a.maxI, a.maxJ = s, int(uint16(at[r]))-r+1, j0+r+1
			}
		}
	}
}

// maxCellScreened is maxCellVector on byte lanes (screenOK): the byte
// blocks, then the int16 blocks from a block that saturates, and the
// best cell of the byte blocks found by rerunning the best one. It
// leaves maxCellVector's maxScore, maxI and maxJ.
func (a *TileAligner) maxCellScreened(n, m int) {
	qv := a.qVec
	wide, h8 := a.rRev[:n+126], a.h8[:n+192]
	rows := 2 * a.lanes
	zero := int8(0) // H = 0: 64 lanes hold H − 128
	if rows == 64 {
		zero = math.MinInt8
	}
	setRow(h8, zero)
	// The input rows, columns 1…n, of this block and of the best one.
	in, topIn := a.h8In[:n], a.h8In[n:2*n]
	gap := min(a.open, math.MaxInt8)
	var best [64]int8
	top, topJ0, topLane := zero, 0, 0
	for j0 := 0; j0 < m; j0 += rows {
		copy(in, h8[129:])
		q := qv[64+j0:]
		if rows == 64 {
			screenBlock64(&wide[0], &h8[0], n, (*[64]byte)(q), a.vecSub, gap, &best)
		} else {
			screenBlock32(&wide[32], &h8[0], n, (*[32]byte)(q), a.vecSub, gap, (*[32]int8)(best[:32]))
		}
		blockTop, first := zero, 0
		for r, s := range best[:min(rows, m-j0)] {
			if s > blockTop {
				blockTop, first = s, r
			}
		}
		if blockTop == math.MaxInt8 {
			rev, h := a.vectorRows(n)
			for c, s := range in {
				h[65+c] = int16(s) - int16(zero) // column c+1
			}
			a.findTop(n, topIn, top, zero, topJ0, topLane)
			a.scoreBlocks(rev, h, qv, j0, m)
			return
		}
		if blockTop > top {
			top, topJ0, topLane = blockTop, j0, first
			in, topIn = topIn, in
		}
	}
	a.findTop(n, topIn, top, zero, topJ0, topLane)
}

// findTop sets maxScore, maxI and maxJ to the screen's best cell: the
// first step at which lane topLane of the block of rows topJ0+1 … holds
// top, rerun from that block's input row topIn, or no cell when top is
// zero, H = 0. Outside columns 1…n h8 holds H = 0, as when the block
// first ran.
func (a *TileAligner) findTop(n int, topIn []int8, top, zero int8, topJ0, topLane int) {
	a.maxScore, a.maxI, a.maxJ = 0, 0, 0
	if top == zero {
		return
	}
	wide, h8 := a.rRev[:n+126], a.h8[:n+192]
	setRow(h8, zero)
	copy(h8[129:], topIn)
	q, gap := a.qVec[64+topJ0:], min(a.open, math.MaxInt8)
	var t int
	if a.lanes == 32 {
		t = screenFind64(&wide[0], &h8[0], n, (*[64]byte)(q), a.vecSub, gap, topLane, int32(top))
	} else {
		t = screenFind32(&wide[32], &h8[0], n, (*[32]byte)(q), a.vecSub, gap, topLane, int32(top))
	}
	a.maxScore, a.maxI, a.maxJ = int32(top)-int32(zero), t-topLane+1, topJ0+topLane+1
}

// setRow sets every byte of the row h to v, in doubling copies.
func setRow(h []int8, v int8) {
	h[0] = v
	for c := 1; c < len(h); c *= 2 {
		copy(h[c:], h[:c])
	}
}

// fillVector is fillCoded's linear fill on the aligner's vector lanes,
// for an n×m tile vectorOK admits, laid out by vectorTile: the score
// pass's wavefront with linearRow's selection in every lane, the 16-row
// blocks in the layout of ptrIndex. The pad rows are N rows and compute as 0, the boundary
// row above row 1, so after the last block h[64+n] is H(n, m). It
// returns the cells fillCoded counts and H(n, m).
//
// A block whose rows all lie above top, rows no traceback clipped as
// the caller's reads (traceTop), runs the same recurrence without
// pointers (linearScore16/32): the lanes' H, and so every row below,
// is the same, and the pointer bytes of rows top … m are the full
// fill's.
//
// Under a band, a block runs only from one step before its first real
// row reaches that row's lo — the extra step hands lane 0 its first
// diagonal out of h — to the step its last row reaches that row's hi
// (blockSteps); bandCols's bounds never decrease, so those steps cover
// every lane's band. Every value a lane reads is then the full DP's or
// a lower bound of it: registers start at 0, h columns past the
// previous block's reach were never written this tile and read 0, and
// columns left of that reach are never read. By the band theorem of
// bitvector.go and the recurrence's monotonicity the cells traceback
// visits, and H(n, m), are exact; pointer bytes off its path may differ
// from fillCoded's.
func (a *TileAligner) fillVector(n, m, band, top int) (cells int64, score int) {
	qv := a.qVec
	pad, blocks := -m&15, (m+15)/16
	// Block b holds rows 16b − pad + 1 … 16b − pad + 16: it stores
	// pointers from block ptrBlock on.
	ptrBlock := (top + pad - 1) >> 4
	if a.lanes == 16 {
		rev, h := a.vectorRows(n)
		for b := range blocks {
			t0, t1, ok := blockSteps(n, m, b, band)
			if !ok {
				continue
			}
			q := (*[16]byte)(qv[64+16*b-pad:])
			if b < ptrBlock {
				linearScore16(&rev[n+30-t0], &h[48+t0], t1-t0+1, q, a.vecSub, a.open)
			} else {
				linearFill16(&rev[n+30-t0], &h[48+t0], t1-t0+1, q, a.vecSub, a.open, &a.ptr[(b*(n+15)+t0)*16])
			}
		}
		return bandCells(n, m, band), int(h[64+n])
	}
	// Blocks lo and hi = lo+1 run as one 32-lane block. The pairs end at
	// the last block, so its row m is lane 31's and reaches h; with an
	// odd count the first pair's lower block is block −1, 16 more N rows
	// above the tile, which compute as 0 and store nothing. The byte
	// lanes run first where they may (fillBytes), and the pairs take
	// over from the first block they leave.
	from, bytes := 1-blocks&1, a.byteLanes && n >= byteMinSide && a.open <= math.MaxInt8
	if bytes {
		b := a.fillBytes(n, m, band, ptrBlock)
		if b == blocks {
			return bandCells(n, m, band), int(a.h8[128+n]) - math.MinInt8
		}
		from = max(from, b+1)
	}
	rev, h := a.vectorRows(n)
	if bytes {
		// The pairs' input row: the byte row above block from−1.
		for c, v := range a.h8In[:n] {
			h[65+c] = int16(v) - math.MinInt8
		}
	}
	for hi := from; hi < blocks; hi += 2 {
		lo := hi - 1
		t0, t1, ok := blockSteps(n, m, hi, band)
		if !ok {
			continue // nor does block lo meet the band
		}
		// Pair steps: block hi's step t is step t+16.
		t0, t1 = t0+16, t1+16
		loSteps := false
		if lo >= 0 {
			var l0, l1 int
			if l0, l1, loSteps = blockSteps(n, m, lo, band); loSteps {
				t0, t1 = min(t0, l0), max(t1, l1)
			}
		}
		q := (*[32]byte)(qv[64+16*lo-pad:])
		if hi < ptrBlock {
			linearScore32(&rev[n+30-t0], &h[t0], q, a.vecSub, a.open, t1-t0+1)
			continue
		}
		nLo, nBoth, nHi := 0, 0, t1-t0+1
		if loSteps && lo >= ptrBlock {
			// Block lo stores at its steps t0…min(t1, n+14), block hi at
			// steps max(t0, 16)…t1; t0 ≤ n+13 and t1 ≥ 16, so the steps
			// that store both lie between.
			first, last := max(t0, 16), min(t1, n+14)
			nLo, nBoth, nHi = first-t0, last-first+1, t1-last
		}
		// Where block lo stores nothing, steps before 16 store block hi's
		// bytes of steps before 0 into the tail of block lo's bank: no
		// traceback reads them, and lo ≥ 0 whenever t0 < 16.
		linearFill32(&rev[n+30-t0], &h[t0], q, a.vecSub, a.open,
			&a.ptr[(hi*(n+15)+t0-16)*16], 256-16*(n+15), nLo, nBoth, nHi)
	}
	return bandCells(n, m, band), int(h[64+n])
}

// The pointer fill on bytes. H ≥ 0, so a signed byte holding H − 128
// represents every H from 0 to 254 exactly, and saturating arithmetic
// gives the recurrence's floor for free: H = 0 is −128, below which
// diag + W, left − g and up − g saturate. linearFill64 runs FILL32's
// selection on such bytes, 64 rows per step, with the same compares in
// the same order (diag + W > −128 is diag + W > 0), so while no cell
// reaches 255 every H and every pointer byte is the int16 kernel's on
// the same schedule. A cell of 255 or more saturates at +127, and only
// such a cell does: no value below it reaches +127. The kernels keep
// the maximum over all their lanes and report one that reached it.
//
// A group of four 16-row blocks is one call, the groups ending at the
// last block as the pairs do (a first group may hold up to three
// blocks above the tile, N rows that store nothing). A group's steps
// run from the earliest block's first to the last block's last, and
// each block stores its bytes from the call's first step to its own
// last. Before its own first step, block k ≥ 1 of a group stores
// into the tail of block k−1's bank (n + 15 ≥ 48 steps long, so no
// further), at steps that block k−1 either stores itself later in the
// call or leaves out of band, where no traceback reads; so every
// pointer byte a traceback reads is its block's own. A block stops
// storing after its last step, where it would reach into block k+1's
// bank already written: hence the four store phases.
//
// A group runs on bytes while the score its last row is predicted to
// reach stays below byteCutoff: rate·min(j, n) at row j, from the rate
// of the tile traced last — or, for a first tile's sub-tile, of the
// sub-tile itself, so that one whose best cell scores below byteCutoff
// runs wholly on bytes and never saturates. A group that saturates
// anyway, or is not predicted to fit, hands the tile to the int16
// pairs from its first block, with the byte row above it, exact, as
// their input row: the pairs' blocks start at that block, since the
// groups and the pairs both end at the last block, and they rewrite
// every pointer byte the group stored that a traceback reads.

const (
	// byteCutoff is the predicted score below which a group of rows
	// runs on byte lanes: the first score a biased byte cannot hold.
	// Of the groups predicted just below it about a quarter saturate,
	// of those predicted just above it about two fifths, where a wasted
	// group costs about what it saves when it fits (EXPERIMENTS.md
	// "Byte-lane fills").
	byteCutoff = 255
	// byteMinSide is the narrowest tile fillBytes takes: a block's
	// bank, n + 15 steps, must hold the 48 a group's last block runs
	// ahead of its first.
	byteMinSide = 33
)

// fillBytes runs fillVector's blocks in 64-row groups on biased byte
// lanes, from the first while each group is predicted to fit and none
// saturates, and returns the first block it leaves to the int16 pairs
// — blocks when it filled the tile, whose H(n, m) is then
// h8[128+n] + 128 — with their input row, columns 1…n, in h8In.
func (a *TileAligner) fillBytes(n, m, band, ptrBlock int) int {
	pad, blocks := -m&15, (m+15)/16
	rev, h := a.rRev[:n+126], a.h8[:n+192]
	in := a.h8In[:n] // the group's input row, columns 1…n
	setRow(h, math.MinInt8)
	gap := a.open
	for b0 := blocks - (blocks+3)&^3; b0 < blocks; b0 += 4 {
		copy(in, h[129:])
		if a.rate*min(16*b0+64-pad, n)>>rateShift >= byteCutoff {
			return b0
		}
		// Group step t is block b0+k's step t−16k; block k stops storing
		// after its last step, end[k].
		t0, t1 := math.MaxInt, -1
		var end [4]int
		for k := range end {
			end[k] = -1
			if b0+k < 0 {
				continue // above the tile: stores nothing
			}
			s0, s1, ok := blockSteps(n, m, b0+k, band)
			end[k] = s1 + 16*k
			if ok {
				t0, t1 = min(t0, s0+16*k), max(t1, s1+16*k)
			}
		}
		if t1 < 0 {
			continue // no block of the group meets the band
		}
		q := (*[64]byte)(a.qVec[64+16*b0-pad:])
		var sat bool
		if b0+3 < ptrBlock {
			sat = linearScore64(&rev[n+62-t0], &h[t0], q, a.vecSub, gap, t1-t0+1)
		} else {
			var steps [4]int
			last := t0 - 1
			for k, e := range end {
				e = min(max(e, last), t1)
				steps[k], last = e-last, e
			}
			sat = linearFill64(&rev[n+62-t0], &h[t0], q, a.vecSub, gap,
				&a.ptr[((b0+3)*(n+15)+t0-48)*16], 16*(n-1), steps[0], steps[1], steps[2], steps[3])
		}
		if sat {
			return b0
		}
	}
	return blocks
}

// blockSteps is the step range [t0, t1] that 16-row block b of an n×m
// tile's pointer layout runs under band (fillVector), and false when no
// row of it meets the band.
func blockSteps(n, m, b, band int) (t0, t1 int, ok bool) {
	if band < 0 {
		return 0, n + 14, true
	}
	j0 := 16*b - (-m & 15) // lane r is query row j0+r+1, an N row below 1
	first, last := max(j0, 0)+1, j0+16
	lo, _ := bandCols(n, m, first, band)
	_, hi := bandCols(n, m, last, band)
	// Lane first−1−j0 reaches column lo at step lo+first−j0−2.
	return max(0, lo+first-j0-3), hi + 14, hi >= 1
}
