//go:build amd64 && !purego

package align

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"darwin/internal/dna"
)

// The CPU dispatch: a width is only chosen where the CPU has its
// instructions and the OS saves its registers; a wrong answer is a
// SIGILL on some other host.
func TestLaneWidth(t *testing.T) {
	const avx1 = cpuOSXSAVE | cpuAVX
	for _, c := range []struct {
		name             string
		ecx1, ebx7, xcr0 uint32
		want             int
	}{
		{"AVX-512F/BW/VL, ZMM state saved", avx1, cpuAVX2 | cpuAVX512, 0xE7, 32},
		{"AVX-512BW, no opmask state", avx1, cpuAVX2 | cpuAVX512, 0xC7, 16},
		{"AVX-512BW, no ZMM_Hi256 state", avx1, cpuAVX2 | cpuAVX512, 0xA7, 16},
		{"AVX-512BW, no Hi16_ZMM state", avx1, cpuAVX2 | cpuAVX512, 0x67, 16},
		{"AVX-512F without BW", avx1, cpuAVX2 | 1<<16 | 1<<31, 0xE7, 16},
		{"AVX-512F/BW without VL", avx1, cpuAVX2 | 1<<16 | 1<<30, 0xE7, 16},
		{"AVX2", avx1, cpuAVX2, 0x07, 16},
		{"AVX2, no YMM state", avx1, cpuAVX2 | cpuAVX512, 0x03, 0},
		{"AVX2 without OSXSAVE", cpuAVX, cpuAVX2 | cpuAVX512, 0xE7, 0},
		{"AVX2 without AVX", cpuOSXSAVE, cpuAVX2 | cpuAVX512, 0xE7, 0},
		{"no AVX2", avx1, cpuAVX512, 0xE7, 0},
		{"nothing", 0, 0, 0, 0},
	} {
		if got := laneWidth(c.ecx1, c.ebx7, c.xcr0); got != c.want {
			t.Errorf("%s: laneWidth(%#x, %#x, %#x) = %d, want %d", c.name, c.ecx1, c.ebx7, c.xcr0, got, c.want)
		}
	}
}

// The vector score pass at every width the CPU has against its oracle,
// the scalar one, called directly: (maxScore, maxI, maxJ) must agree —
// so the widths agree with each other — on every m mod 16 residue and
// odd and even 32-row block counts, on tiles narrower than a block, on
// N-rich and repeat tiles, under gap 0, and at both sides of the int16
// eligibility bound.
func TestVectorMaxCellMatchesScalar(t *testing.T) {
	if vectorLanes == 0 {
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
		for _, w := range laneWidths() {
			ta.setWidth(w)
			ta.loadCodes(rc, qc)
			ta.maxCellVector(len(rc), len(qc))
			if got := [3]int{int(ta.maxScore), ta.maxI, ta.maxJ}; got != want {
				t.Fatalf("%d×%d tile, %+v: %d-lane (score, i, j) %v, scalar %v\nref   %s\nquery %s",
					len(rc), len(qc), sc, w, got, want, rTile, qTile)
			}
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
		for m := 1; m <= 64; m++ {
			for _, n := range []int{1, 7, 15, 16, 17, 31, 32, 33, 100} {
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

// The int8 first-tile screen at every width the CPU has: AlignFirstTile
// must return the scalar aligner's result, fillLocal's best cell and a
// path exactly at a score of the threshold or more (firstTileDiff), and
// maxCellScreened, called directly, the scalar pass's (maxScore, maxI,
// maxJ) — on every m mod 64 residue up to two 64-row blocks, tiles
// narrower than a block, all-N rows and references, |W| = 127, gaps 0
// and ≥ 127, every threshold 2–127 and 1 and 128 and above, and
// repeats that saturate int8, which every threshold the screen takes
// must accept.
func TestVectorFirstTileMatchesScalar(t *testing.T) {
	if vectorLanes == 0 {
		t.Skip("no AVX2 on this CPU: first tiles run the scalar pass only")
	}
	rng := rand.New(rand.NewSource(8))
	type set struct {
		vec    []*TileAligner
		scalar *TileAligner
	}
	sets := map[Scoring]set{}
	aligners := func(t *testing.T, sc Scoring) set {
		t.Helper()
		if s, ok := sets[sc]; ok {
			return s
		}
		vec, err := widthAligners(&sc)
		if err != nil {
			t.Fatal(err)
		}
		if vec[0].vecSub == nil {
			t.Fatalf("scoring %+v has no vector table", sc)
		}
		scalar, _ := NewTileAligner(&sc)
		scalar.vecSub = nil
		sets[sc] = set{vec, scalar}
		return sets[sc]
	}
	check := func(t *testing.T, sc Scoring, rTile, qTile dna.Seq, thresholds ...int) {
		t.Helper()
		s := aligners(t, sc)
		rc, qc := dna.AppendCodes(nil, rTile), dna.AppendCodes(nil, qTile)
		s.scalar.grow(len(rc)+1, len(qc)+1)
		s.scalar.maxCellScalar(rc, qc, true)
		want := [3]int{int(s.scalar.maxScore), s.scalar.maxI, s.scalar.maxJ}
		if d := firstTileDiff(s.vec, s.scalar, rTile, qTile, max(len(rTile), len(qTile)), thresholds...); d != "" {
			t.Fatalf("%d×%d tile, %+v: %s\nref   %s\nquery %s", len(rTile), len(qTile), sc, d, rTile, qTile)
		}
		for _, minScore := range thresholds {
			for _, ta := range s.vec {
				if !ta.screenOK(minScore) || !ta.vectorOK(len(rc), len(qc)) {
					continue // the screen's domain
				}
				ta.loadCodes(rc, qc)
				ta.maxCellScreened(len(rc), len(qc))
				if got := [3]int{int(ta.maxScore), ta.maxI, ta.maxJ}; got != want {
					t.Fatalf("%d×%d tile, %+v, threshold %d: %d-lane screen (score, i, j) %v, scalar %v\nref   %s\nquery %s",
						len(rc), len(qc), sc, minScore, ta.width(), got, want, rTile, qTile)
				}
			}
		}
	}
	// The thresholds 1, 128 and 1000, two from 2–127, the tile's own
	// score and one more.
	some := func(sc Scoring, rTile, qTile dna.Seq) []int {
		best := fillLocal(rTile, qTile, &sc).maxScore
		return []int{1, 2 + rng.Intn(126), 2 + rng.Intn(126), best, best + 1, 128, 1000}
	}
	pick := func() Scoring {
		sc := Simple(1+rng.Intn(4), 1+rng.Intn(4), rng.Intn(3))
		sc.W[rng.Intn(4)][rng.Intn(4)] = rng.Intn(9) - 4
		return sc
	}

	t.Run("every m mod 64", func(t *testing.T) {
		for m := 1; m <= 128; m++ {
			for _, n := range []int{1, 31, 32, 33, 63, 64, 65, 200} {
				sc, rTile := pick(), dna.Random(rng, n, 0.5)
				qTile := dna.Random(rng, m, 0.5)
				check(t, sc, rTile, qTile, some(sc, rTile, qTile)...)
				if m <= n {
					qTile = mutate(rng, rTile[:m], 0.1)
					check(t, sc, rTile, qTile, some(sc, rTile, qTile)...)
				}
			}
		}
	})
	t.Run("every threshold", func(t *testing.T) {
		var all []int
		for s := 0; s <= 130; s++ {
			all = append(all, s)
		}
		sc := GACTEval()
		for _, rate := range []float64{0.05, 0.3, 0.45} {
			rTile := dna.Random(rng, 384, 0.45)
			check(t, sc, rTile, mutate(rng, rTile, rate)[:300], all...)
		}
		check(t, sc, dna.Random(rng, 384, 0.45), dna.Random(rng, 384, 0.45), all...)
	})
	t.Run("all-N rows", func(t *testing.T) {
		for it := 0; it < 100; it++ {
			sc := pick()
			rTile := tierSeq(rng, 1+rng.Intn(300))
			qTile := mutate(rng, rTile, 0.2)
			// An N run over whole blocks, or all of the query.
			from := rng.Intn(len(qTile))
			to := min(len(qTile), from+rng.Intn(160))
			if it%4 == 0 {
				from, to = 0, len(qTile)
			}
			for j := from; j < to; j++ {
				qTile[j] = 'N'
			}
			check(t, sc, rTile, qTile, some(sc, rTile, qTile)...)
			check(t, sc, bytes.Repeat([]byte("N"), 1+rng.Intn(100)), rTile, 2, 90)
		}
	})
	t.Run("|W| = 127 and wide gaps", func(t *testing.T) {
		for it := 0; it < 200; it++ {
			sc := Simple(1+rng.Intn(127), 1+rng.Intn(127), []int{0, 126, 127, 128, 500}[it%5])
			sc.W[rng.Intn(4)][rng.Intn(4)] = []int{127, -127}[rng.Intn(2)]
			if sc.W[0][0] <= 0 && sc.W[1][1] <= 0 && sc.W[2][2] <= 0 && sc.W[3][3] <= 0 {
				continue
			}
			rTile := tierSeq(rng, 1+rng.Intn(200))
			qTile := mutate(rng, rTile, rng.Float64()*0.5)
			check(t, sc, rTile, qTile, some(sc, rTile, qTile)...)
		}
	})
	t.Run("int16-exact corner of a wider tile", func(t *testing.T) {
		// Under a match of 86 or more a 384² tile is past int16's bound
		// (384·86 > 32 767), so its lanes are never laid out, while a
		// best cell at most 250 bases from the origin is within it
		// (250·127 ≤ 32 767): the accepted tile's corner fill must run
		// on the codes, not on lanes an earlier tile left.
		for it := 0; it < 20; it++ {
			sc := Simple(86+rng.Intn(42), 127, 127)
			for range 2 {
				k := 20 + rng.Intn(231)
				rTile := dna.Random(rng, 384, 0.5)
				qTile := append(slices.Clone(rTile[:k]), dna.Random(rng, 384-k, 0.5)...)
				check(t, sc, rTile, qTile, some(sc, rTile, qTile)...)
			}
		}
	})
	t.Run("saturating repeats", func(t *testing.T) {
		// An exact repeat of 128 bases or more scores past int8 under a
		// match of 1: the screen saturates, and every threshold up to 127
		// accepts the tile.
		for it := 0; it < 20; it++ {
			sc := Simple(1, 1+rng.Intn(3), rng.Intn(3))
			unit := dna.Random(rng, 128+rng.Intn(200), 0.5)
			rTile := append(dna.Random(rng, rng.Intn(100), 0.5), unit...)
			qTile := append(mutate(rng, dna.Random(rng, rng.Intn(100), 0.5), 0.3), unit...)
			qTile = append(qTile, dna.Random(rng, rng.Intn(50), 0.5)...)
			var all []int
			for s := 1; s <= 127; s++ {
				all = append(all, s)
			}
			check(t, sc, rTile, qTile, append(all, 128, 200)...)
			s := aligners(t, sc)
			for _, ta := range s.vec {
				for minScore := 2; minScore <= 127; minScore++ {
					if res := ta.AlignFirstTile(rTile, qTile, 0, minScore); res.Score < len(unit) || len(res.Cigar) == 0 {
						t.Fatalf("%d-lane saturating %d-base repeat at threshold %d: %+v", ta.width(), len(unit), minScore, res)
					}
				}
			}
		}
	})
}

// The vector pointer fill at every width the CPU has against its
// oracle, the scalar linear rows, called directly: on full fills every
// pointer byte, H(n, m) and the cell count agree, and on banded fills
// under a band the exact score proves, H(n, m), the cell count and the
// traceback; and an aligner on the vector passes returns the TileResult
// of one kept to the scalar passes (vecSub nil), and exactly the
// TileResult and KernelStats of the other width, on banded, first and
// reversed tiles in every kernel mode. Its KernelStats are the scalar
// aligner's too, except for auto's extension tiles: there each side
// counts one tile, and the vector side's is banded exactly when the
// band theorem's check on the exact H(n, m) passes for its guessed band. They cover every m mod 16 residue and odd and
// even 32-row block counts, tiles narrower than a block, N-rich and
// repeat tiles, gap 0 and both sides of the int16 bound, each set of
// aligners reused across differently shaped tiles.
func TestVectorFillMatchesScalar(t *testing.T) {
	if vectorLanes == 0 {
		t.Skip("no AVX2 on this CPU: fillTrace runs the scalar rows only")
	}
	rng := rand.New(rand.NewSource(6))
	// One aligner per width and a scalar one per scoring, kept across
	// tiles.
	type set struct {
		vec    []*TileAligner
		scalar *TileAligner
	}
	sets := map[Scoring]set{}
	aligners := func(t *testing.T, sc Scoring) set {
		t.Helper()
		if s, ok := sets[sc]; ok {
			return s
		}
		var s set
		for _, w := range laneWidths() {
			vec, err := NewTileAligner(&sc)
			if err != nil {
				t.Fatal(err)
			}
			if vec.vecSub == nil {
				t.Fatalf("scoring %+v has no vector table", sc)
			}
			vec.setWidth(w)
			s.vec = append(s.vec, vec)
		}
		s.scalar, _ = NewTileAligner(&sc)
		s.scalar.vecSub = nil
		sets[sc] = s
		return s
	}
	full := func(t *testing.T, sc Scoring, rTile, qTile dna.Seq) {
		t.Helper()
		s := aligners(t, sc)
		rc, qc := dna.AppendCodes(nil, rTile), dna.AppendCodes(nil, qTile)
		n, m := len(rc), len(qc)
		s.scalar.grow(n+1, m+1)
		wantCells := s.scalar.fillCoded(rc, qc, -1, true)
		want := int(s.scalar.hRow[n])
		for _, vec := range s.vec {
			if !vec.vectorOK(n, m) {
				t.Fatalf("%d×%d tile under %+v is not vector-eligible", n, m, sc)
			}
			vec.loadCodes(rc, qc)
			if gotCells, got := vec.fillVector(n, m, -1, 1); got != want || gotCells != wantCells {
				t.Fatalf("%d×%d tile, %+v: %d-lane H(n,m) %d over %d cells, scalar %d over %d\nref   %s\nquery %s",
					n, m, sc, vec.width(), got, gotCells, want, wantCells, rTile, qTile)
			}
			for j := 1; j <= m; j++ {
				for i := 1; i <= n; i++ {
					if got, want := vec.ptr[ptrIndex(n, m, i, j)], s.scalar.ptr[ptrIndex(n, m, i, j)]; got != want {
						t.Fatalf("%d×%d tile, %+v: %d-lane ptr(%d,%d) = %04b, scalar %04b\nref   %s\nquery %s",
							n, m, sc, vec.width(), i, j, got, want, rTile, qTile)
					}
				}
			}
		}
	}
	tiles := func(t *testing.T, sc Scoring, rTile, qTile dna.Seq) {
		t.Helper()
		s := aligners(t, sc)
		maxOff := 1 + rng.Intn(max(len(rTile), len(qTile)))
		minScore := rng.Intn(60)
		for _, mode := range []KernelMode{KernelAuto, KernelLUT, KernelBitvector} {
			s.scalar.SetKernel(mode)
			for _, vec := range s.vec {
				vec.SetKernel(mode)
			}
			for _, call := range []struct {
				name string
				ext  bool
				run  func(a *TileAligner) TileResult
			}{
				{"extension", true, func(a *TileAligner) TileResult { return a.AlignTile(rTile, qTile, false, maxOff) }},
				{"reversed", true, func(a *TileAligner) TileResult { return a.AlignTileReversed(rTile, qTile, false, maxOff) }},
				{"first", false, func(a *TileAligner) TileResult { return a.AlignTile(rTile, qTile, true, maxOff) }},
				{"reversed first", false, func(a *TileAligner) TileResult { return a.AlignTileReversed(rTile, qTile, true, maxOff) }},
				{"thresholded first", false, func(a *TileAligner) TileResult { return a.AlignFirstTile(rTile, qTile, maxOff, minScore) }},
			} {
				sks := s.scalar.KernelStats()
				want := call.run(s.scalar)
				sks = s.scalar.KernelStats().since(sks)
				var widest TileResult
				var widestKS KernelStats
				for k, vec := range s.vec {
					n, m := len(rTile), len(qTile)
					certified := mode == KernelAuto && call.ext && vec.vectorOK(n, m)
					band := vec.guessBand(n, m)
					vks := vec.KernelStats()
					got := cloneTile(call.run(vec))
					vks = vec.KernelStats().since(vks)
					d := tileContractDiff(got, want, true)
					if d == "" && certified {
						// Under auto an extension tile the vector fill takes
						// is filled in its guessed band (certifiedFill), while
						// the scalar aligner runs the bitvector tier: each
						// counts one tile, and the vector side's is banded
						// exactly when the band theorem's check on the exact
						// H(n, m) passes.
						full := int64(n) * int64(m)
						wantKS := KernelStats{LUTTiles: 1, LUTCells: full}
						if band >= 0 {
							cells := bandCells(n, m, band)
							wantKS = KernelStats{BitvectorTiles: 1, BitvectorCells: cells}
							if vec.gapBand(n, m, want.Score) > band {
								wantKS = KernelStats{LUTTiles: 1, LUTCells: cells + full, FallbackTiles: 1}
							}
						}
						if vks != wantKS || sks.LUTTiles+sks.BitvectorTiles != 1 {
							d = fmt.Sprintf("guessed band %d: stats %+v, want %+v (scalar %+v)", band, vks, wantKS, sks)
						}
					} else if d == "" && vks != sks {
						d = fmt.Sprintf("stats %+v != scalar %+v", vks, sks)
					}
					if k == 0 {
						widest, widestKS = got, vks
					} else if d == "" && (!reflect.DeepEqual(got, widest) || vks != widestKS) {
						d = fmt.Sprintf("%+v, stats %+v, but %d lanes give %+v, stats %+v", got, vks, s.vec[0].width(), widest, widestKS)
					}
					if d != "" {
						t.Fatalf("%s %s tile %d×%d, %+v, maxOff %d: %d-lane vs scalar: %s\n got %+v\nwant %+v\nref   %s\nquery %s",
							kernelName[mode], call.name, len(rTile), len(qTile), sc, maxOff, vec.width(), d, got, want, rTile, qTile)
					}
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
		for m := 1; m <= 64; m++ {
			for _, n := range []int{1, 7, 15, 16, 17, 31, 32, 33, 100} {
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
	t.Run("banded", func(t *testing.T) {
		// High-identity tiles under the band their exact H(n, m) proves
		// (gapBand, as a first tile's refill gets it): narrow enough that
		// the two 16-row halves of a 32-lane block run different steps.
		banded := 0
		for it := 0; it < 300; it++ {
			sc := pick()
			s := aligners(t, sc)
			rTile := dna.Random(rng, 17+rng.Intn(200), 0.5)
			qTile := mutate(rng, rTile, rng.Float64()*0.06)
			rc, qc := dna.AppendCodes(nil, rTile), dna.AppendCodes(nil, qTile)
			n, m := len(rc), len(qc)
			s.scalar.loadCodes(rc, qc)
			s.scalar.fillCoded(rc, qc, -1, true)
			band := s.scalar.gapBand(n, m, int(s.scalar.hRow[n]))
			if 2*band+1 < min(n, m) {
				banded++
			}
			wantCells := s.scalar.fillCoded(rc, qc, band, true)
			want := int(s.scalar.hRow[n])
			wantCig, wantI, wantJ, _ := s.scalar.traceback(n, m, max(n, m), false)
			wantCig = slices.Clone(wantCig)
			for _, vec := range s.vec {
				vec.loadCodes(rc, qc)
				gotCells, got := vec.fillVector(n, m, band, 1)
				cig, i, j, _ := vec.traceback(n, m, max(n, m), true)
				if got != want || gotCells != wantCells || i != wantI || j != wantJ || !slices.Equal(cig, wantCig) {
					t.Fatalf("%d×%d tile, %+v, band %d: %d-lane H(n,m) %d over %d cells, path %v (%d, %d); scalar %d over %d, %v (%d, %d)\nref   %s\nquery %s",
						n, m, sc, band, vec.width(), got, gotCells, cig, i, j, want, wantCells, wantCig, wantI, wantJ, rTile, qTile)
				}
			}
		}
		if banded < 100 {
			t.Fatalf("only %d of 300 tiles got a band narrower than the tile", banded)
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
		if a := aligners(t, sc).vec[0]; !a.vectorOK(1058, 1057) || a.vectorOK(1058, 1058) {
			t.Fatal("vectorOK does not split at 1057 rows")
		}
	})
}

// TestVectorFillTopRows holds the rows fillVector leaves without
// pointers to what a traceback needs: at every vector width, over tile
// shapes, bands and a maxOff whose first traced row (traceTop) cuts
// through a 16-row block, is a block's first row, or lies at or above
// row 1, a fill from that row gives the scalar full fill's H(n, m),
// cell count and pointer bytes in every row > m − maxOff, and its
// traceback clipped to maxOff gives the reference AlignTile's result.
// The pointer buffer is poisoned before each fill, so a row the fill
// skipped and the traceback read would show. Under a band (the one the
// exact H(n, m) proves, as a first tile's refill gets it) H(n, m), the
// cell count and the traced result are the scalar banded fill's.
func TestVectorFillTopRows(t *testing.T) {
	if vectorLanes == 0 {
		t.Skip("no AVX2 on this CPU: fillTrace runs the scalar rows only")
	}
	rng := rand.New(rand.NewSource(48))
	for it := 0; it < 300; it++ {
		sc := GACTEval()
		if it%3 == 1 {
			sc = Simple(2, 3, 2)
		}
		tas, err := widthAligners(&sc)
		if err != nil {
			t.Fatal(err)
		}
		scalar, _ := NewTileAligner(&sc)
		scalar.vecSub = nil
		rTile := dna.Random(rng, 1+rng.Intn(340), 0.45)
		qTile := mutate(rng, rTile, rng.Float64()*0.2)
		if rng.Intn(4) == 0 {
			qTile = dna.Random(rng, 1+rng.Intn(340), 0.45)
		}
		rc, qc := dna.AppendCodes(nil, rTile), dna.AppendCodes(nil, qTile)
		n, m := len(rc), len(qc)
		scalar.grow(n+1, m+1)
		wantCells := scalar.fillCoded(rc, qc, -1, true)
		want := int(scalar.hRow[n])
		wantPtr := slices.Clone(scalar.ptr[:ptrLen(n, m)])
		band := scalar.gapBand(n, m, want)
		wantBandCells := scalar.fillCoded(rc, qc, band, true)

		// maxOff values: top inside a block, on a block's first row, on
		// row 1, and above it; and GACT's T − O where the tile is taller.
		pad, blocks := -m&15, (m+15)/16
		b := rng.Intn(blocks)
		offs := []int{m - (16*b - pad + 1 + 1 + rng.Intn(15)) + 1, m - 16*b + pad, m, m + 1 + rng.Intn(40)}
		if m > 192 {
			offs = append(offs, 192)
		}
		for _, ta := range tas {
			ta.loadCodes(rc, qc)
			for _, maxOff := range offs {
				if maxOff < 1 {
					continue
				}
				top := traceTop(m, maxOff)
				ref := walked(AlignTile(rTile, qTile, false, maxOff, &sc))
				for _, bd := range []int{-1, band} {
					ptr := ta.ptr[:ptrLen(n, m)]
					for k := range ptr {
						ptr[k] = 0xff
					}
					cells, got := ta.fillVector(n, m, bd, top)
					cellsWant := wantCells
					if bd >= 0 {
						cellsWant = wantBandCells
					}
					if got != want || cells != cellsWant {
						t.Fatalf("%d×%d tile, %+v, band %d, maxOff %d: %d-lane H(n,m) %d over %d cells, scalar %d over %d\nref   %s\nquery %s",
							n, m, sc, bd, maxOff, ta.width(), got, cells, want, cellsWant, rTile, qTile)
					}
					if bd < 0 {
						for j := max(1, top); j <= m; j++ {
							for i := 1; i <= n; i++ {
								if x := ptrIndex(n, m, i, j); ptr[x] != wantPtr[x] {
									t.Fatalf("%d×%d tile, %+v, maxOff %d: %d-lane ptr(%d,%d) = %04b, scalar %04b\nref   %s\nquery %s",
										n, m, sc, maxOff, ta.width(), i, j, ptr[x], wantPtr[x], rTile, qTile)
								}
							}
						}
					}
					cig, iOff, jOff, _ := ta.traceback(n, m, maxOff, true)
					if iOff != ref.IOff || jOff != ref.JOff || !slices.Equal(cig, ref.Cigar) || ref.Score != want {
						t.Fatalf("%d×%d tile, %+v, band %d, maxOff %d: %d-lane traceback %v (%d, %d), AlignTile %v (%d, %d), score %d vs %d\nref   %s\nquery %s",
							n, m, sc, bd, maxOff, ta.width(), cig, iOff, jOff, ref.Cigar, ref.IOff, ref.JOff, want, ref.Score, rTile, qTile)
					}
				}
			}
		}
	}
}

// benchWidths runs bench as a sub-benchmark lanesN on an aligner for
// the paper's scoring at each vector width the CPU has, so the widths
// are timed side by side on the same host.
func benchWidths(b *testing.B, side int, bench func(b *testing.B, ta *TileAligner)) {
	sc := GACTEval()
	tas, err := widthAligners(&sc)
	if err != nil {
		b.Fatal(err)
	}
	for _, ta := range tas {
		ta.Preallocate(side)
		b.Run(fmt.Sprintf("lanes%d", ta.width()), func(b *testing.B) { bench(b, ta) })
	}
}

// BenchmarkAlignTile is the pointer fill and traceback of a 320×320
// extension tile at each vector width, lanes64 being the byte-lane fill
// production runs on AVX-512BW: full, a 15 %-error tile filled whole
// (KernelLUT); banded, a PacBio-like 12 %-error tile filled in the band
// its predecessor's score guesses, the same tile each time (KernelAuto,
// certifiedFill); and saturating, an identical tile scoring 320, past
// a byte, filled whole. µs/tile is the whole call, ns/filled_cell the
// call per cell filled. The root package's BenchmarkAlignTile times the
// width production picks.
func BenchmarkAlignTile(b *testing.B) {
	rng := rand.New(rand.NewSource(71))
	ref := dna.Random(rng, 400, 0.45)
	same := ref[:320]
	for _, shape := range []struct {
		name string
		mode KernelMode
		q    dna.Seq
	}{
		{"full", KernelLUT, mutate(rng, ref, 0.15)[:320]},
		{"banded", KernelAuto, mutate(rng, ref, 0.12)[:320]},
		{"saturating", KernelLUT, same},
	} {
		b.Run(shape.name, func(b *testing.B) {
			benchWidths(b, 320, func(b *testing.B, ta *TileAligner) {
				ta.SetKernel(shape.mode)
				ta.AlignTile(same, shape.q, false, 192)
				before := ta.KernelStats()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ta.AlignTile(same, shape.q, false, 192)
				}
				b.StopTimer()
				ks := ta.KernelStats().since(before)
				b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/tile")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ks.LUTCells+ks.BitvectorCells), "ns/filled_cell")
			})
		})
	}
}

// BenchmarkScorePass times 384×384 first tiles at each vector width,
// against a related reference (the query 30 % mutated) and an unrelated
// one. At the production h_tile of 90 (htile90) the unrelated tile is
// rejected on the byte screen and the related one accepted and traced
// back; above any score a 384² tile reaches (int16, side+1) both are
// rejected on the score pass alone: at lanes32 and lanes16 the int16
// one, the screen's reference, and at lanes64 the byte screen, which
// holds every score below 255 there. The root package's
// BenchmarkScorePass times the width production picks.
func BenchmarkScorePass(b *testing.B) {
	const side = 384
	rng := rand.New(rand.NewSource(73))
	related := dna.Random(rng, side+64, 0.45)
	q := mutate(rng, related, 0.3)[:side]
	related = related[:side]
	unrelated := dna.Random(rng, side, 0.45)
	for _, shape := range []struct {
		name     string
		minScore int
	}{{"htile90", 90}, {"int16", side + 1}} {
		for _, pair := range []struct {
			name string
			ref  dna.Seq
		}{{"related", related}, {"unrelated", unrelated}} {
			b.Run(shape.name+"/"+pair.name, func(b *testing.B) {
				benchWidths(b, side, func(b *testing.B, ta *TileAligner) {
					for i := 0; i < b.N; i++ {
						ta.AlignFirstTile(pair.ref, q, side-128, shape.minScore)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(side*side), "ns/cell")
				})
			})
		}
	}
}

// The byte-lane fill at the edge of its range: an all-match tile of k
// bases under the paper's scoring has H(k, k) = k as its best cell, so
// at k = 254 every group fits a byte (fillBytes fills the whole tile),
// and at 255 and 300 one saturates and hands the tile to the int16
// pairs. A banded high-identity tile filled after a tile that scored
// half as much per base is predicted to fit and saturates too. Either
// way H(n, m), the cell count, the pointer bytes of a full fill and the
// traceback are the scalar rows'.
func TestByteFillSaturation(t *testing.T) {
	if vectorLanes != 32 {
		t.Skip("no AVX-512BW on this CPU: no byte-lane fill")
	}
	rng := rand.New(rand.NewSource(53))
	sc := GACTEval()
	check := func(t *testing.T, rTile, qTile dna.Seq, band, rate int, wantBytes bool) {
		t.Helper()
		scalar, _ := NewTileAligner(&sc)
		scalar.vecSub = nil
		ta, _ := NewTileAligner(&sc)
		rc, qc := dna.AppendCodes(nil, rTile), dna.AppendCodes(nil, qTile)
		n, m := len(rc), len(qc)
		scalar.loadCodes(rc, qc)
		wantCells := scalar.fillCoded(rc, qc, band, true)
		want := int(scalar.hRow[n])
		wantCig, wantI, wantJ, _ := scalar.traceback(n, m, max(n, m), false)
		wantCig = slices.Clone(wantCig)

		ta.loadCodes(rc, qc)
		ta.rate = rate
		ta.vectorRows(n)
		blocks := (m + 15) / 16
		if b := ta.fillBytes(n, m, band, 0); (b == blocks) != wantBytes {
			t.Fatalf("%d×%d tile, band %d: byte lanes stop at block %d of %d, want all on bytes %v", n, m, band, b, blocks, wantBytes)
		}
		cells, got := ta.fillVector(n, m, band, 1)
		if got != want || cells != wantCells {
			t.Fatalf("%d×%d tile, band %d: H(n,m) %d over %d cells, scalar %d over %d", n, m, band, got, cells, want, wantCells)
		}
		if band < 0 {
			for j := 1; j <= m; j++ {
				for i := 1; i <= n; i++ {
					if x := ptrIndex(n, m, i, j); ta.ptr[x] != scalar.ptr[x] {
						t.Fatalf("%d×%d tile: ptr(%d,%d) = %04b, scalar %04b", n, m, i, j, ta.ptr[x], scalar.ptr[x])
					}
				}
			}
		}
		cig, i, j, _ := ta.traceback(n, m, max(n, m), true)
		if i != wantI || j != wantJ || !slices.Equal(cig, wantCig) {
			t.Fatalf("%d×%d tile, band %d: path %v (%d, %d), scalar %v (%d, %d)", n, m, band, cig, i, j, wantCig, wantI, wantJ)
		}
	}
	for _, k := range []int{254, 255, 300} {
		s := dna.Random(rng, k, 0.5)
		check(t, s, s, -1, 0, k < 255)
	}
	// One base short of a match either side keeps the best cell at 254.
	s := dna.Random(rng, 320, 0.5)
	check(t, s[:254], append(slices.Clone(s[:254]), 'N'), -1, 0, true)

	rTile := dna.Random(rng, 320, 0.5)
	qTile := mutate(rng, rTile, 0.02)
	half := 1 << rateShift / 2
	ta, _ := NewTileAligner(&sc)
	band := ta.gapBand(len(rTile), len(qTile), half*min(len(rTile), len(qTile))>>rateShift)
	if 2*band+1 >= min(len(rTile), len(qTile)) {
		t.Fatalf("band %d spans the tile", band)
	}
	check(t, rTile, qTile, band, half, false)
}
