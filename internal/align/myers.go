package align

import (
	"fmt"
	"math/bits"
	"sync"

	"darwin/internal/dna"
)

// EditMode selects the boundary conditions of the bit-vector aligner.
type EditMode int

const (
	// EditGlobal aligns query against ref end-to-end (Needleman-Wunsch
	// under unit costs) — Edlib's NW mode, used for the paper's
	// Figure 10 pairwise-alignment comparison.
	EditGlobal EditMode = iota
	// EditInfix aligns the whole query against the best-matching
	// substring of ref (Edlib's HW mode), the mapping-shaped variant.
	EditInfix
)

// EditResult is an edit-distance alignment. Distance counts unit-cost
// substitutions/insertions/deletions (lower is better) — the
// Levenshtein scoring Edlib is restricted to, as the paper notes when
// contrasting it with GACT's flexible scoring.
type EditResult struct {
	Distance             int
	RefStart, RefEnd     int
	QueryStart, QueryEnd int
	Cigar                Cigar
}

// MyersState owns the reusable scratch of the bit-vector aligner: the
// Peq table, the working Pv/Mv words, the per-column history the
// traceback reads, and the code/path buffers. Buffers grow
// monotonically and are reused across calls, so the steady state
// allocates nothing — the memory-frugality trick GenASM/Scrooge apply
// to the same recurrence in hardware. The zero value is ready to use.
// A MyersState is not safe for concurrent use.
type MyersState struct {
	peq    [4][]uint64
	pv, mv []uint64
	// hist retains the vertical-delta words of every column for the
	// traceback: column j occupies hist[j*2*blocks : (j+1)*2*blocks),
	// Pv words first, then Mv words. This is the compact traceback
	// store — O(n·⌈m/64⌉) words instead of an n×m pointer matrix.
	hist   []uint64
	rCode  []byte
	qCode  []byte
	cig    Cigar
	blocks int
}

// grow sizes the block-width buffers and the cols-column history.
func (s *MyersState) grow(blocks, cols int) {
	if cap(s.pv) < blocks || cap(s.peq[0]) < blocks {
		s.pv = make([]uint64, blocks)
		s.mv = make([]uint64, blocks)
		for c := range s.peq {
			s.peq[c] = make([]uint64, blocks)
		}
	}
	s.pv = s.pv[:blocks]
	s.mv = s.mv[:blocks]
	for c := range s.peq {
		s.peq[c] = s.peq[c][:blocks]
	}
	if need := cols * 2 * blocks; cap(s.hist) < need {
		s.hist = make([]uint64, need)
	} else {
		s.hist = s.hist[:need]
	}
	s.blocks = blocks
}

// Align computes the edit distance and alignment path between ref and
// query with Myers' 1999 bit-vector algorithm, the algorithm class
// Edlib implements. Time is O(⌈m/64⌉·n); the per-column Pv/Mv words
// are retained so the traceback does not recompute the matrix. The
// returned Cigar aliases the state's internal buffer and is only valid
// until the next call; callers that retain it must copy it first.
func (s *MyersState) Align(ref, query dna.Seq, mode EditMode) (EditResult, error) {
	if len(query) == 0 || len(ref) == 0 {
		return EditResult{}, fmt.Errorf("align: empty sequence (ref %d, query %d)", len(ref), len(query))
	}
	s.rCode = dna.AppendCodes(s.rCode[:0], ref)
	s.qCode = dna.AppendCodes(s.qCode[:0], query)
	return s.alignCodes(s.rCode, s.qCode, mode)
}

// alignCodes is Align over precoded base codes (dna.CodeA..dna.CodeN);
// the tile kernel's bitvector tier calls it directly on its precoded
// tile buffers. N codes match nothing (always an edit), like Edlib.
func (s *MyersState) alignCodes(rc, qc []byte, mode EditMode) (EditResult, error) {
	m, n := len(qc), len(rc)
	if m == 0 || n == 0 {
		return EditResult{}, fmt.Errorf("align: empty sequence (ref %d, query %d)", n, m)
	}
	blocks := (m + 63) / 64
	s.grow(blocks, n+1)

	// Peq[c][b]: bit i set iff qc[b*64+i] has base code c.
	for c := range s.peq {
		clear(s.peq[c])
	}
	for i := 0; i < m; i++ {
		if c := qc[i]; c < 4 {
			s.peq[c][i/64] |= 1 << (uint(i) % 64)
		}
	}

	pv, mv := s.pv, s.mv
	for b := range pv {
		pv[b] = ^uint64(0)
		mv[b] = 0
	}
	hw := 2 * blocks // history words per column
	copy(s.hist[:blocks], pv)
	copy(s.hist[blocks:hw], mv)

	hin0 := 1 // global: D(0,j) = j
	if mode == EditInfix {
		hin0 = 0 // infix: D(0,j) = 0
	}

	for j := 1; j <= n; j++ {
		rcj := rc[j-1]
		hin := hin0
		for b := 0; b < blocks; b++ {
			var eq uint64
			if rcj < 4 {
				eq = s.peq[rcj][b]
			}
			pvB, mvB := pv[b], mv[b]
			xv := eq | mvB
			if hin < 0 {
				eq |= 1
			}
			xh := (((eq & pvB) + pvB) ^ pvB) | eq
			ph := mvB | ^(xh | pvB)
			mh := pvB & xh

			hout := 0
			if ph&(1<<63) != 0 {
				hout = 1
			} else if mh&(1<<63) != 0 {
				hout = -1
			}
			ph <<= 1
			mh <<= 1
			if hin > 0 {
				ph |= 1
			} else if hin < 0 {
				mh |= 1
			}
			pv[b] = mh | ^(xv | ph)
			mv[b] = ph & xv
			hin = hout
		}
		col := s.hist[j*hw : j*hw+hw]
		copy(col[:blocks], pv)
		copy(col[blocks:], mv)
	}

	// Pick the traceback start.
	endJ := n
	if mode == EditInfix {
		best := s.colScore(mode, m, 0)
		endJ = 0
		for j := 1; j <= n; j++ {
			if d := s.colScore(mode, m, j); d < best {
				best = d
				endJ = j
			}
		}
	}
	dist := s.colScore(mode, m, endJ)

	// Traceback by DP-value comparison.
	cigar := s.cig[:0]
	i, j := m, endJ
	cur := dist
	for i > 0 {
		if j == 0 {
			// Leading query bases with no text left are insertions
			// (D(i,0) = i in both modes).
			cigar = cigar.AppendOp(OpIns)
			i--
			cur--
			continue
		}
		diag := s.colScore(mode, i-1, j-1)
		matchCost := 1
		if rc[j-1] == qc[i-1] && rc[j-1] != dna.CodeN {
			matchCost = 0
		}
		switch {
		case cur == diag+matchCost:
			cigar = cigar.AppendOp(OpMatch)
			i--
			j--
			cur = diag
		case cur == s.colScore(mode, i, j-1)+1:
			cigar = cigar.AppendOp(OpDel)
			j--
			cur--
		case cur == s.colScore(mode, i-1, j)+1:
			cigar = cigar.AppendOp(OpIns)
			i--
			cur--
		default:
			s.cig = cigar
			return EditResult{}, fmt.Errorf("align: inconsistent traceback at (%d,%d)", i, j)
		}
	}
	if mode == EditGlobal {
		for j > 0 {
			cigar = cigar.AppendOp(OpDel)
			j--
		}
	}
	s.cig = cigar
	return EditResult{
		Distance:   dist,
		RefStart:   j,
		RefEnd:     endJ,
		QueryStart: 0,
		QueryEnd:   m,
		Cigar:      cigar.Reverse(),
	}, nil
}

// colScore returns D(i, j) by prefix-summing the stored vertical
// deltas of column j from the top boundary value D(0, j).
func (s *MyersState) colScore(mode EditMode, i, j int) int {
	d := 0
	if mode == EditGlobal {
		d = j
	}
	hw := 2 * s.blocks
	pvJ := s.hist[j*hw : j*hw+s.blocks]
	mvJ := s.hist[j*hw+s.blocks : j*hw+hw]
	for b := 0; b*64 < i; b++ {
		word := uint(min(64, i-b*64))
		var mask uint64
		if word == 64 {
			mask = ^uint64(0)
		} else {
			mask = (uint64(1) << word) - 1
		}
		d += bits.OnesCount64(pvJ[b]&mask) - bits.OnesCount64(mvJ[b]&mask)
	}
	return d
}

// myersPool recycles MyersStates behind the package-level wrappers,
// the scorePool idiom: steady state, the wrappers allocate only their
// returned result.
var myersPool = sync.Pool{New: func() any { return new(MyersState) }}

// Myers computes the edit-distance alignment of query against ref; it
// is MyersState.Align with pooled scratch, returning a result whose
// cigar is an owned copy (safe to retain).
func Myers(ref, query dna.Seq, mode EditMode) (*EditResult, error) {
	s := myersPool.Get().(*MyersState)
	res, err := s.Align(ref, query, mode)
	if err != nil {
		myersPool.Put(s)
		return nil, err
	}
	out := res
	out.Cigar = append(Cigar(nil), res.Cigar...)
	myersPool.Put(s)
	return &out, nil
}

// EditDistance computes just the edit distance (no traceback, no
// column history) between ref and query in the given mode. For
// EditInfix it returns the minimum distance over all ref substrings.
func EditDistance(ref, query dna.Seq, mode EditMode) (int, error) {
	m, n := len(query), len(ref)
	if m == 0 || n == 0 {
		return 0, fmt.Errorf("align: empty sequence (ref %d, query %d)", n, m)
	}
	s := myersPool.Get().(*MyersState)
	defer myersPool.Put(s)
	blocks := (m + 63) / 64
	s.grow(blocks, 1)
	s.rCode = dna.AppendCodes(s.rCode[:0], ref)
	s.qCode = dna.AppendCodes(s.qCode[:0], query)
	rc, qc := s.rCode, s.qCode
	for c := range s.peq {
		clear(s.peq[c])
	}
	for i := 0; i < m; i++ {
		if c := qc[i]; c < 4 {
			s.peq[c][i/64] |= 1 << (uint(i) % 64)
		}
	}
	pv, mv := s.pv, s.mv
	for b := range pv {
		pv[b] = ^uint64(0)
		mv[b] = 0
	}
	hin0 := 1
	if mode == EditInfix {
		hin0 = 0
	}
	// D(m, j) is recovered per column from the boundary value D(0, j)
	// plus the vertical-delta prefix sum over the column's Pv/Mv words
	// (O(⌈m/64⌉) popcounts, same order as the column update itself).
	lastBlock := blocks - 1
	tailBits := uint(m - lastBlock*64)
	var tailMask uint64
	if tailBits == 64 {
		tailMask = ^uint64(0)
	} else {
		tailMask = (uint64(1) << tailBits) - 1
	}
	bottom := m
	best := bottom
	for j := 1; j <= n; j++ {
		rcj := rc[j-1]
		hin := hin0
		for b := 0; b < blocks; b++ {
			var eq uint64
			if rcj < 4 {
				eq = s.peq[rcj][b]
			}
			pvB, mvB := pv[b], mv[b]
			xv := eq | mvB
			if hin < 0 {
				eq |= 1
			}
			xh := (((eq & pvB) + pvB) ^ pvB) | eq
			ph := mvB | ^(xh | pvB)
			mh := pvB & xh
			hout := 0
			if ph&(1<<63) != 0 {
				hout = 1
			} else if mh&(1<<63) != 0 {
				hout = -1
			}
			ph <<= 1
			mh <<= 1
			if hin > 0 {
				ph |= 1
			} else if hin < 0 {
				mh |= 1
			}
			pv[b] = mh | ^(xv | ph)
			mv[b] = ph & xv
			hin = hout
		}
		d := 0
		if mode == EditGlobal {
			d = j
		}
		for b := 0; b < lastBlock; b++ {
			d += bits.OnesCount64(pv[b]) - bits.OnesCount64(mv[b])
		}
		d += bits.OnesCount64(pv[lastBlock]&tailMask) - bits.OnesCount64(mv[lastBlock]&tailMask)
		bottom = d
		if bottom < best {
			best = bottom
		}
	}
	if mode == EditInfix {
		return best, nil
	}
	return bottom, nil
}
