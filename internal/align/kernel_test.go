package align

import (
	"math/rand"
	"testing"
	"testing/quick"

	"darwin/internal/dna"
)

// kernelSeq is dna.Random with occasional N bases, so the LUT's
// N-scores-zero padding is exercised.
func kernelSeq(rng *rand.Rand, n int) dna.Seq {
	s := dna.Random(rng, n, 0.5)
	if rng.Intn(4) == 0 {
		for x := 0; x < 1+rng.Intn(3); x++ {
			s[rng.Intn(len(s))] = 'N'
		}
	}
	return s
}

// Property: across random scorings, tile shapes, first/extension
// flavours, and clip bounds, the reusable kernel returns results
// byte-identical to the reference AlignTile — including across many
// tiles through one aligner, which is what exercises the dirty-buffer
// reuse. Pinned to KernelLUT, the full fill, and compared on the
// TileResult contract (tileContractDiff: cigar included, MaxI/MaxJ on
// first tiles, the only tiles that have a best cell);
// kernel_tier_test.go holds the cross-tier properties.
func TestQuickKernelMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sc := Simple(1+rng.Intn(3), 1+rng.Intn(3), 1+rng.Intn(2))
		ta, err := NewTileAligner(&sc)
		if err != nil {
			t.Logf("NewTileAligner: %v", err)
			return false
		}
		ta.SetKernel(KernelLUT)
		for it := 0; it < 8; it++ {
			rTile := kernelSeq(rng, 1+rng.Intn(96))
			var qTile dna.Seq
			if rng.Intn(3) == 0 {
				qTile = kernelSeq(rng, 1+rng.Intn(96))
			} else {
				qTile = mutate(rng, rTile, 0.3)
			}
			firstTile := rng.Intn(2) == 0
			maxOff := 0
			if rng.Intn(3) > 0 {
				maxOff = 1 + rng.Intn(96)
			}
			want := walked(AlignTile(rTile, qTile, firstTile, maxOff, &sc))
			got := ta.AlignTile(rTile, qTile, firstTile, maxOff)
			if d := tileContractDiff(got, want, firstTile); d != "" {
				t.Logf("forward mismatch (seed %d it %d): %s: got %+v want %+v", seed, it, d, got, want)
				return false
			}
			wantRev := walked(AlignTile(dna.Reverse(rTile), dna.Reverse(qTile), firstTile, maxOff, &sc))
			gotRev := ta.AlignTileReversed(rTile, qTile, firstTile, maxOff)
			if d := tileContractDiff(gotRev, wantRev, firstTile); d != "" {
				t.Logf("reversed mismatch (seed %d it %d): %s: got %+v want %+v", seed, it, d, gotRev, wantRev)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// The paper's exact operating points must agree too (larger tiles than
// the quick-check sizes, realistic divergence), in every kernel mode.
func TestKernelMatchesReferencePaperTiles(t *testing.T) {
	for _, mode := range []KernelMode{KernelLUT, KernelAuto, KernelBitvector} {
		rng := rand.New(rand.NewSource(42))
		sc := GACTEval()
		ta, err := NewTileAligner(&sc)
		if err != nil {
			t.Fatal(err)
		}
		ta.SetKernel(mode)
		for it := 0; it < 10; it++ {
			rTile := dna.Random(rng, 384, 0.45)
			qTile := mutate(rng, rTile, 0.15)
			if len(qTile) > 384 {
				qTile = qTile[:384]
			}
			first := it%2 == 0
			maxOff := 384 - 128
			want := walked(AlignTile(rTile, qTile, first, maxOff, &sc))
			got := ta.AlignTile(rTile, qTile, first, maxOff)
			if err := tileContractDiff(got, want, first); err != "" {
				t.Fatalf("mode %v iteration %d: %s:\n got %+v\nwant %+v", mode, it, err, got, want)
			}
		}
	}
}

// Tiles larger than the kernel's int32 side bound must fall back to
// the reference implementation and still return identical results
// (maxSide is lowered artificially; production tiles never hit it).
func TestKernelOversizeFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sc := Figure1()
	ta, err := NewTileAligner(&sc)
	if err != nil {
		t.Fatal(err)
	}
	ta.maxSide = 16
	rTile := dna.Random(rng, 40, 0.5)
	qTile := mutate(rng, rTile, 0.2)
	want := walked(AlignTile(rTile, qTile, true, 0, &sc))
	got := ta.AlignTile(rTile, qTile, true, 0)
	if d := tileContractDiff(got, want, true); d != "" {
		t.Fatalf("fallback diverged: %s: got %+v want %+v", d, got, want)
	}
	wantRev := walked(AlignTile(dna.Reverse(rTile), dna.Reverse(qTile), false, 24, &sc))
	gotRev := ta.AlignTileReversed(rTile, qTile, false, 24)
	if d := tileContractDiff(gotRev, wantRev, false); d != "" {
		t.Fatalf("reversed fallback diverged: %s: got %+v want %+v", d, gotRev, wantRev)
	}
	// Below its threshold a first tile keeps the score and drops the path.
	wantMin := TileResult{Score: want.Score, MaxI: want.MaxI, MaxJ: want.MaxJ}
	if d := tileContractDiff(ta.AlignFirstTile(rTile, qTile, 0, want.Score+1), wantMin, true); d != "" {
		t.Fatalf("thresholded fallback: %s, want %+v", d, wantMin)
	}
}

// Validate must reject parameters that would overflow the int16 LUT.
func TestKernelScoringBounds(t *testing.T) {
	sc := GACTEval()
	sc.W[0][0] = maxAbsParam + 1
	if err := sc.Validate(); err == nil {
		t.Error("oversized substitution score should fail Validate")
	}
	sc = GACTEval()
	sc.GapOpen = maxAbsParam + 1
	sc.GapExtend = maxAbsParam + 1
	if err := sc.Validate(); err == nil {
		t.Error("oversized gap penalty should fail Validate")
	}
	if _, err := NewTileAligner(&sc); err == nil {
		t.Error("NewTileAligner should reject an invalid scoring")
	}
}

// The LUT must agree with Scoring.Sub over the whole padded index
// space, N rows/columns included.
func TestSubLUTMatchesSub(t *testing.T) {
	sc := Simple(2, 3, 1)
	sc.W[1][2] = -7 // make it asymmetric
	lut := sc.LUT()
	bases := []byte{'A', 'C', 'G', 'T', 'N'}
	for _, r := range bases {
		for _, q := range bases {
			row := lut.Row(dna.Code(q))
			if got, want := int(row[dna.Code(r)&7]), sc.Sub(r, q); got != want {
				t.Errorf("LUT[%c][%c] = %d, Sub = %d", q, r, got, want)
			}
		}
	}
	// Padding beyond the coded alphabet must behave like N (zero).
	for qc := byte(0); qc < 8; qc++ {
		row := lut.Row(qc)
		for rc := 0; rc < LUTStride; rc++ {
			if (qc > 3 || rc > 3) && row[rc] != 0 {
				t.Errorf("padding entry lut[%d][%d] = %d, want 0", qc, rc, row[rc])
			}
		}
	}
}

// loadCodes sets the aligner's tile to the precoded rc × qc as align
// lays a tile out: the base codes the scalar passes read and, where the
// aligner has the vector passes, their lanes, from the bases the codes
// stand for.
func (a *TileAligner) loadCodes(rc, qc []byte) {
	a.grow(len(rc)+1, len(qc)+1)
	a.rCode, a.qCode = append(a.rCode[:0], rc...), append(a.qCode[:0], qc...)
	if a.vecSub != nil {
		a.vectorTile(codeBases(rc), codeBases(qc), false)
	}
}

// codeBases is the ASCII sequence of base codes cs.
func codeBases(cs []byte) dna.Seq {
	s := make(dna.Seq, len(cs))
	for i, c := range cs {
		s[i] = dna.Base(c)
	}
	return s
}

// maxCell runs the score pass a first tile takes without a threshold
// on the precoded tile: the vector pass where it is exact, which
// requires linear, else the scalar one.
func (a *TileAligner) maxCell(rc, qc []byte, linear bool) {
	a.loadCodes(rc, qc)
	if linear && a.vectorOK(len(rc), len(qc)) {
		a.maxCellVector(len(rc), len(qc))
		return
	}
	a.maxCellScalar(rc, qc, linear)
}

// bandCells's closed form against the count it replaces, the band's
// diagonals cell by cell, for every n, m ≤ 400 and band 0…400: the
// diagonal-by-diagonal count grows by the two diagonals n − m ± band
// as band does.
func TestBandCellsClosedForm(t *testing.T) {
	diag := func(n, m, d int) int64 { // diagonal d's cells in the tile
		return int64(max(0, min(n, m+d)-max(1, 1+d)+1))
	}
	for n := 1; n <= 400; n++ {
		for m := 1; m <= 400; m++ {
			if got, want := bandCells(n, m, -1), int64(n*m); got != want {
				t.Fatalf("%d×%d tile, no band: %d cells, want %d", n, m, got, want)
			}
			want := diag(n, m, n-m)
			for band := 0; band <= 400; band++ {
				if band > 0 {
					want += diag(n, m, n-m-band) + diag(n, m, n-m+band)
				}
				if got := bandCells(n, m, band); got != want {
					t.Fatalf("%d×%d tile, band %d: %d cells, want %d", n, m, band, got, want)
				}
			}
		}
	}
}
