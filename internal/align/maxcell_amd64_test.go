//go:build amd64 && !purego

package align

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"darwin/internal/dna"
)

// The vector score pass against its oracle, the scalar one, called
// directly: (maxScore, maxI, maxJ) must agree on every m mod 16
// residue, on tiles narrower than a block, on N-rich and repeat tiles,
// under gap 0, and at both sides of the int16 eligibility bound.
func TestVectorMaxCellMatchesScalar(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this CPU: maxCell runs the scalar pass only")
	}
	rng := rand.New(rand.NewSource(5))
	diff := func(t *testing.T, sc Scoring, rTile, qTile dna.Seq) {
		t.Helper()
		ta, err := NewTileAligner(&sc)
		if err != nil {
			t.Fatal(err)
		}
		if ta.vecSub == nil {
			t.Fatalf("scoring %+v has no vector table", sc)
		}
		rc, qc := dna.AppendCodes(nil, rTile), dna.AppendCodes(nil, qTile)
		ta.grow(len(rc)+1, len(qc)+1)
		ta.maxCellScalar(rc, qc, true)
		want := [3]int{int(ta.maxScore), ta.maxI, ta.maxJ}
		ta.maxCellVector(rc, qc)
		if got := [3]int{int(ta.maxScore), ta.maxI, ta.maxJ}; got != want {
			t.Fatalf("%d×%d tile, %+v: vector (score, i, j) %v, scalar %v\nref   %s\nquery %s",
				len(rc), len(qc), sc, got, want, rTile, qTile)
		}
	}
	asym := func() Scoring {
		sc := Simple(1+rng.Intn(4), 1+rng.Intn(4), rng.Intn(3))
		sc.W[rng.Intn(4)][rng.Intn(4)] = rng.Intn(9) - 4
		return sc
	}
	nRich := func(s dna.Seq) dna.Seq {
		for i := range s {
			if rng.Intn(4) == 0 {
				s[i] = 'N'
			}
		}
		return s
	}

	t.Run("every m mod 16", func(t *testing.T) {
		for m := 1; m <= 48; m++ {
			for _, n := range []int{1, 7, 15, 16, 17, 100} {
				rTile := dna.Random(rng, n, 0.5)
				diff(t, asym(), rTile, dna.Random(rng, m, 0.5))
				if m <= n {
					diff(t, asym(), rTile, mutate(rng, rTile[:m], 0.1))
				}
			}
		}
	})
	t.Run("N-rich and repeats", func(t *testing.T) {
		for it := 0; it < 300; it++ {
			rTile := tierSeq(rng, 1+rng.Intn(200))
			qTile := mutate(rng, rTile, 0.2)
			switch it % 3 {
			case 0:
				rTile, qTile = nRich(rTile), nRich(qTile)
			case 1:
				unit := dna.Random(rng, 1+rng.Intn(4), 0.5)
				for i := range rTile {
					rTile[i] = unit[i%len(unit)]
				}
			}
			diff(t, asym(), rTile, qTile)
			diff(t, asym(), bytes.Repeat([]byte("N"), 1+rng.Intn(40)), qTile)
		}
	})
	t.Run("gap 0", func(t *testing.T) {
		for it := 0; it < 100; it++ {
			sc := asym()
			sc.GapOpen, sc.GapExtend = 0, 0
			rTile := tierSeq(rng, 1+rng.Intn(300))
			diff(t, sc, rTile, mutate(rng, rTile, 0.3))
		}
	})
	t.Run("random sides 1-400", func(t *testing.T) {
		for it := 0; it < 2000; it++ {
			rTile := tierSeq(rng, 1+rng.Intn(400))
			qTile := tierSeq(rng, 1+rng.Intn(400))
			if rng.Intn(2) == 0 {
				qTile = mutate(rng, rTile, rng.Float64()*0.5)
			}
			diff(t, asym(), rTile, qTile)
		}
	})
	t.Run("int16 bound", func(t *testing.T) {
		// 31·1057 = 32767: an identical 1057² tile scores exactly
		// MaxInt16, the highest cell the pass admits; one base more and
		// maxCell must keep to the scalar pass.
		sc := Simple(31, 127, 1)
		ta, err := NewTileAligner(&sc)
		if err != nil {
			t.Fatal(err)
		}
		s := dna.Random(rng, 1058, 0.5)
		if !ta.vectorOK(1057, 1058) || ta.vectorOK(1058, 1058) {
			t.Fatalf("vectorOK(1057/1058) = %v/%v, want true/false", ta.vectorOK(1057, 1058), ta.vectorOK(1058, 1058))
		}
		diff(t, sc, s[:1057], s[:1057])
		diff(t, sc, s, mutate(rng, s, 0.02))
		ta.grow(1059, 1059)
		rc := dna.AppendCodes(nil, s)
		ta.maxCell(rc, rc, true)
		if ta.maxScore != 31*1058 || ta.maxI != 1058 || ta.maxJ != 1058 {
			t.Errorf("1058² identical tile past the bound: max %d at (%d,%d), want %d at the corner", ta.maxScore, ta.maxI, ta.maxJ, 31*1058)
		}
		wide := Simple(1, 1, 1)
		wide.W[0][0] = 128
		if ta, _ := NewTileAligner(&wide); ta.vecSub != nil {
			t.Error("a substitution score of 128 got a vector table")
		}
		affine := Simple(1, 1, 1)
		affine.GapOpen = 2
		if ta, _ := NewTileAligner(&affine); ta.vecSub != nil {
			t.Error("open > ext got a vector table")
		}
	})
}

// The vector pointer fill against its oracle, the scalar linear rows,
// called directly: on full fills every pointer byte, H(n, m) and the
// cell count agree; and an aligner on the vector passes returns the
// TileResult and KernelStats of one kept to the scalar passes (vecSub
// nil) on banded, first and reversed tiles in every kernel mode. Both
// cover every m mod 16 residue, tiles narrower than a block, N-rich and
// repeat tiles, gap 0 and both sides of the int16 bound, each pair of
// aligners reused across differently shaped tiles.
func TestVectorFillMatchesScalar(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this CPU: fillTrace runs the scalar rows only")
	}
	rng := rand.New(rand.NewSource(6))
	// One vector/scalar aligner pair per scoring, kept across tiles.
	type pair struct{ vec, scalar *TileAligner }
	pairs := map[Scoring]pair{}
	aligners := func(t *testing.T, sc Scoring) pair {
		t.Helper()
		if p, ok := pairs[sc]; ok {
			return p
		}
		vec, err := NewTileAligner(&sc)
		if err != nil {
			t.Fatal(err)
		}
		if vec.vecSub == nil {
			t.Fatalf("scoring %+v has no vector table", sc)
		}
		scalar, _ := NewTileAligner(&sc)
		scalar.vecSub = nil
		pairs[sc] = pair{vec, scalar}
		return pairs[sc]
	}
	full := func(t *testing.T, sc Scoring, rTile, qTile dna.Seq) {
		t.Helper()
		p := aligners(t, sc)
		rc, qc := dna.AppendCodes(nil, rTile), dna.AppendCodes(nil, qTile)
		n, m := len(rc), len(qc)
		if !p.vec.vectorOK(n, m) {
			t.Fatalf("%d×%d tile under %+v is not vector-eligible", n, m, sc)
		}
		p.vec.grow(n+1, m+1)
		p.scalar.grow(n+1, m+1)
		gotCells, got := p.vec.fillVector(rc, qc, -1)
		wantCells := p.scalar.fillCoded(rc, qc, -1, true)
		if want := int(p.scalar.hRow[n]); got != want || gotCells != wantCells {
			t.Fatalf("%d×%d tile, %+v: vector H(n,m) %d over %d cells, scalar %d over %d\nref   %s\nquery %s",
				n, m, sc, got, gotCells, want, wantCells, rTile, qTile)
		}
		for j := 1; j <= m; j++ {
			for i := 1; i <= n; i++ {
				if got, want := p.vec.ptr[ptrIndex(n, m, i, j)], p.scalar.ptr[ptrIndex(n, m, i, j)]; got != want {
					t.Fatalf("%d×%d tile, %+v: ptr(%d,%d) = %04b, scalar %04b\nref   %s\nquery %s",
						n, m, sc, i, j, got, want, rTile, qTile)
				}
			}
		}
	}
	tiles := func(t *testing.T, sc Scoring, rTile, qTile dna.Seq) {
		t.Helper()
		p := aligners(t, sc)
		maxOff := 1 + rng.Intn(max(len(rTile), len(qTile)))
		minScore := rng.Intn(60)
		for _, mode := range []KernelMode{KernelAuto, KernelLUT, KernelBitvector} {
			p.vec.SetKernel(mode)
			p.scalar.SetKernel(mode)
			for _, call := range []struct {
				name string
				run  func(a *TileAligner) TileResult
			}{
				{"extension", func(a *TileAligner) TileResult { return a.AlignTile(rTile, qTile, false, maxOff) }},
				{"reversed", func(a *TileAligner) TileResult { return a.AlignTileReversed(rTile, qTile, false, maxOff) }},
				{"first", func(a *TileAligner) TileResult { return a.AlignTile(rTile, qTile, true, maxOff) }},
				{"reversed first", func(a *TileAligner) TileResult { return a.AlignTileReversed(rTile, qTile, true, maxOff) }},
				{"thresholded first", func(a *TileAligner) TileResult { return a.AlignFirstTile(rTile, qTile, maxOff, minScore) }},
			} {
				vks, sks := p.vec.KernelStats(), p.scalar.KernelStats()
				got, want := cloneTile(call.run(p.vec)), call.run(p.scalar)
				d := tileContractDiff(got, want, true)
				vks, sks = p.vec.KernelStats().since(vks), p.scalar.KernelStats().since(sks)
				// Under auto an extension tile the vector fill takes skips
				// the bitvector tier, which the scalar aligner may run; it
				// is still one tile.
				skipped := mode == KernelAuto && vks.BitvectorTiles == 0
				if d == "" && vks != sks && !(skipped && vks.LUTTiles == sks.LUTTiles+sks.BitvectorTiles) {
					d = fmt.Sprintf("stats %+v != %+v", vks, sks)
				}
				if d != "" {
					t.Fatalf("%s %s tile %d×%d, %+v, maxOff %d: vector vs scalar: %s\n got %+v\nwant %+v\nref   %s\nquery %s",
						mode, call.name, len(rTile), len(qTile), sc, maxOff, d, got, want, rTile, qTile)
				}
			}
		}
	}
	both := func(t *testing.T, sc Scoring, rTile, qTile dna.Seq) {
		t.Helper()
		full(t, sc, rTile, qTile)
		tiles(t, sc, rTile, qTile)
	}
	scorings := []Scoring{GACTEval(), Simple(2, 3, 2), Simple(1, 1, 0), Simple(3, 1, 1)}
	scorings[2].W[1][2] = 2 // asymmetric, gap 0
	scorings[3].W[0][3] = -4
	pick := func() Scoring { return scorings[rng.Intn(len(scorings))] }
	nRich := func(s dna.Seq) dna.Seq {
		for i := range s {
			if rng.Intn(4) == 0 {
				s[i] = 'N'
			}
		}
		return s
	}

	t.Run("every m mod 16", func(t *testing.T) {
		for m := 1; m <= 48; m++ {
			for _, n := range []int{1, 7, 15, 16, 17, 100} {
				rTile := dna.Random(rng, n, 0.5)
				both(t, pick(), rTile, dna.Random(rng, m, 0.5))
				if m <= n {
					both(t, pick(), rTile, mutate(rng, rTile[:m], 0.1))
				}
			}
		}
	})
	t.Run("extension-sized tiles", func(t *testing.T) {
		for it := 0; it < 400; it++ {
			rTile := dna.Random(rng, 32+rng.Intn(300), 0.45)
			qTile := mutate(rng, rTile, rng.Float64()*0.4)
			if rng.Intn(3) == 0 {
				qTile = qTile[:len(qTile)*(1+rng.Intn(3))/4+1]
			}
			both(t, pick(), rTile, qTile)
		}
	})
	t.Run("N-rich and repeats", func(t *testing.T) {
		for it := 0; it < 200; it++ {
			rTile := tierSeq(rng, 1+rng.Intn(200))
			qTile := mutate(rng, rTile, 0.2)
			switch it % 3 {
			case 0:
				rTile, qTile = nRich(rTile), nRich(qTile)
			case 1:
				unit := dna.Random(rng, 1+rng.Intn(4), 0.5)
				for i := range rTile {
					rTile[i] = unit[i%len(unit)]
				}
			}
			both(t, pick(), rTile, qTile)
		}
	})
	t.Run("gap 0", func(t *testing.T) {
		for it := 0; it < 100; it++ {
			rTile := tierSeq(rng, 1+rng.Intn(300))
			both(t, scorings[2], rTile, mutate(rng, rTile, 0.3))
		}
	})
	t.Run("int16 bound", func(t *testing.T) {
		// 31·1057 = 32767: a 1057-row tile is the tallest an all-match
		// scoring of 31 admits to the vector fill; one row more and
		// fillTrace keeps to the scalar rows.
		sc := Simple(31, 127, 1)
		s := dna.Random(rng, 1058, 0.5)
		full(t, sc, s[:1057], s[:1057])
		full(t, sc, s, mutate(rng, s, 0.02)[:1057])
		tiles(t, sc, s[:1057], mutate(rng, s[:1057], 0.02))
		tiles(t, sc, s, mutate(rng, s, 0.02))
		if a := aligners(t, sc).vec; !a.vectorOK(1058, 1057) || a.vectorOK(1058, 1058) {
			t.Fatal("vectorOK does not split at 1057 rows")
		}
	})
}
