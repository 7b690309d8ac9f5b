//go:build amd64 && !purego

package align

import (
	"bytes"
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
