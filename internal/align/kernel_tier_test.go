package align

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"darwin/internal/dna"
)

// tileContractDiff compares two TileResults on the fields GACT
// consumes: Score, IOff, JOff, and Cigar always; MaxI/MaxJ only when
// firstTile was set (TileResult documents them as first-tile fields;
// the pointer fills track no maximum). It returns "" on a match, else
// a description of the first difference.
func tileContractDiff(got, want TileResult, firstTile bool) string {
	if got.Score != want.Score {
		return fmt.Sprintf("score %d != %d", got.Score, want.Score)
	}
	if got.IOff != want.IOff || got.JOff != want.JOff {
		return fmt.Sprintf("offsets (%d,%d) != (%d,%d)", got.IOff, got.JOff, want.IOff, want.JOff)
	}
	if firstTile && (got.MaxI != want.MaxI || got.MaxJ != want.MaxJ) {
		return fmt.Sprintf("max cell (%d,%d) != (%d,%d)", got.MaxI, got.MaxJ, want.MaxI, want.MaxJ)
	}
	if len(got.Cigar) != len(want.Cigar) {
		return fmt.Sprintf("cigar length %d != %d", len(got.Cigar), len(want.Cigar))
	}
	for i := range got.Cigar {
		if got.Cigar[i] != want.Cigar[i] {
			return fmt.Sprintf("cigar[%d] %+v != %+v", i, got.Cigar[i], want.Cigar[i])
		}
	}
	return ""
}

// cloneTile deep-copies a TileResult whose cigar aliases an aligner's
// reused buffer.
func cloneTile(res TileResult) TileResult {
	res.Cigar = append(Cigar(nil), res.Cigar...)
	return res
}

// tierSeq makes tile-tier-sized sequences, occasionally N-laced (which
// must force the LUT path without changing results), with lengths
// biased toward the 64-bit block boundaries the bitvector recurrence
// is touchiest at, and occasionally low-complexity — homopolymers and
// short tandem repeats, whose matrices are full of tied maxima.
func tierSeq(rng *rand.Rand, n int) dna.Seq {
	if rng.Intn(3) == 0 {
		// Snap near a block boundary: 63, 64, 65, 127, 128, 129, ...
		k := 64 * (1 + rng.Intn(3))
		n = max(1, k-1+rng.Intn(3))
	}
	s := dna.Random(rng, n, 0.5)
	if rng.Intn(6) == 0 {
		unit := dna.Random(rng, 1+rng.Intn(3), 0.5)
		for i := range s {
			s[i] = unit[i%len(unit)]
		}
	}
	if rng.Intn(5) == 0 {
		for x := 0; x < 1+rng.Intn(3); x++ {
			s[rng.Intn(len(s))] = 'N'
		}
	}
	return s
}

// tierTile draws one tile: mostly tile-sized pairs at assorted
// identities, sometimes a degenerate shape — a single row or column, a
// tile below bitvecMinSide, an odd height (the score pass's row-pair
// tail).
func tierTile(rng *rand.Rand) (rTile, qTile dna.Seq) {
	switch rng.Intn(8) {
	case 0:
		return tierSeq(rng, 1), tierSeq(rng, 1+rng.Intn(40))[:1]
	case 1:
		return tierSeq(rng, 1)[:1], tierSeq(rng, 1+rng.Intn(100))
	case 2:
		return tierSeq(rng, 1+rng.Intn(100)), tierSeq(rng, 1)[:1]
	case 3:
		rTile = tierSeq(rng, 2+rng.Intn(bitvecMinSide-2))
		return rTile, mutate(rng, rTile, 0.1)
	}
	rTile = tierSeq(rng, 32+rng.Intn(200))
	switch rng.Intn(4) {
	case 0:
		qTile = tierSeq(rng, 32+rng.Intn(200))
	case 1:
		qTile = mutate(rng, rTile, 0.4)
	default:
		qTile = mutate(rng, rTile, 0.03+rng.Float64()*0.2)
	}
	if len(qTile) > 1 && rng.Intn(2) == 0 {
		qTile = qTile[:len(qTile)-1+len(qTile)%2] // odd height
	}
	return rTile, qTile
}

// The cross-kernel property (the kernel's correctness claim): across
// random scorings, tile shapes, identities, divergence thresholds,
// orientations, and first/extension flavours, all three tiers return
// results identical to the free AlignTile oracle on every field GACT
// consumes — MaxI/MaxJ included on first tiles, whose score pass must
// reproduce the oracle's earliest-row-then-column tie rule. A first
// tile asked for with a threshold (AlignFirstTile) is that same tile,
// minus the path when it scores below the threshold.
func TestQuickKernelTiers(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sc := Simple(1+rng.Intn(3), 1+rng.Intn(3), 1+rng.Intn(2))
		if rng.Intn(3) == 0 {
			// Affine (open > extend) exercises the gap-chain open bits.
			sc.GapOpen = sc.GapExtend + 1 + rng.Intn(3)
		}
		tiers := map[string]*TileAligner{}
		for _, mode := range []KernelMode{KernelLUT, KernelAuto, KernelBitvector} {
			ta, err := NewTileAligner(&sc)
			if err != nil {
				t.Logf("NewTileAligner: %v", err)
				return false
			}
			ta.SetKernel(mode)
			tiers[mode.String()] = ta
		}
		if rng.Intn(2) == 0 {
			// Random divergence thresholds, tiny ones included: they may
			// change *when* auto falls back, never *what* it returns.
			d := rng.Intn(200)
			for _, ta := range tiers {
				ta.SetKernelDivergence(d)
			}
		}
		for it := 0; it < 6; it++ {
			rTile, qTile := tierTile(rng)
			firstTile := rng.Intn(2) == 0
			maxOff := 0
			if rng.Intn(3) > 0 {
				maxOff = 1 + rng.Intn(200)
			}
			want := AlignTile(rTile, qTile, firstTile, maxOff, &sc)
			wantRev := AlignTile(dna.Reverse(rTile), dna.Reverse(qTile), firstTile, maxOff, &sc)
			// A threshold on either side of the score, or absent.
			minScore := rng.Intn(2*want.Score + 2)
			wantMin := want
			if want.Score < max(1, minScore) {
				wantMin = TileResult{Score: want.Score, MaxI: want.MaxI, MaxJ: want.MaxJ}
			}
			for name, ta := range tiers {
				got := ta.AlignTile(rTile, qTile, firstTile, maxOff)
				if d := tileContractDiff(got, want, firstTile); d != "" {
					t.Logf("%s mismatch (seed %d it %d, first %v): %s\n got %+v\nwant %+v",
						name, seed, it, firstTile, d, got, want)
					return false
				}
				gotRev := ta.AlignTileReversed(rTile, qTile, firstTile, maxOff)
				if d := tileContractDiff(gotRev, wantRev, firstTile); d != "" {
					t.Logf("%s reversed mismatch (seed %d it %d, first %v): %s\n got %+v\nwant %+v",
						name, seed, it, firstTile, d, gotRev, wantRev)
					return false
				}
				if !firstTile {
					continue
				}
				gotMin := ta.AlignFirstTile(rTile, qTile, maxOff, minScore)
				if d := tileContractDiff(gotMin, wantMin, true); d != "" {
					t.Logf("%s AlignFirstTile(min %d) mismatch (seed %d it %d): %s\n got %+v\nwant %+v",
						name, minScore, seed, it, d, gotMin, wantMin)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

// The score pass in isolation: maxCell leaves exactly the maximum, and
// the cell holding it, that the reference fillLocal finds — on
// tie-heavy and degenerate tiles too — and under open == ext the
// collapsed recurrence agrees with the affine one run on the same
// scoring.
func TestQuickMaxCell(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sc := Simple(1+rng.Intn(3), 1+rng.Intn(3), 1+rng.Intn(2))
		sc.W[rng.Intn(4)][rng.Intn(4)] = rng.Intn(7) - 3 // asymmetric
		if rng.Intn(2) == 0 {
			sc.GapOpen = sc.GapExtend + 1 + rng.Intn(3)
		}
		ta, err := NewTileAligner(&sc)
		if err != nil {
			t.Logf("NewTileAligner: %v", err)
			return false
		}
		for it := 0; it < 8; it++ {
			rTile, qTile := tierTile(rng)
			rc, qc := dna.AppendCodes(nil, rTile), dna.AppendCodes(nil, qTile)
			ta.grow(len(rc)+1, len(qc)+1)
			want := fillLocal(rTile, qTile, &sc)
			check := func(path string) bool {
				if int(ta.maxScore) != want.maxScore || ta.maxI != want.maxI || ta.maxJ != want.maxJ {
					t.Logf("%s (seed %d it %d, %d×%d, %+v): max %d at (%d,%d), fillLocal has %d at (%d,%d)",
						path, seed, it, len(rc), len(qc), sc, ta.maxScore, ta.maxI, ta.maxJ, want.maxScore, want.maxI, want.maxJ)
					return false
				}
				return true
			}
			linear := sc.GapOpen == sc.GapExtend
			ta.maxCell(rc, qc, linear)
			if !check("maxCell") {
				return false
			}
			if linear {
				ta.maxCell(rc, qc, false)
				if !check("affine rows under open == ext") {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

// The linear-gap fill in isolation: under any open == ext scoring (gap
// cost 0 included), tile shape and band, fillCoded's linear rows leave
// the pointer bytes of every in-band cell (row 0 and column 0 have
// none), the H row and the cell count that its affine rows leave — so
// whatever traceback reads is the same byte. Each fill keeps its own
// aligner across tiles, so stale
// out-of-band state from earlier, differently shaped tiles is in play.
func TestQuickLinearFillMatchesAffine(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sc := Simple(1+rng.Intn(3), 1+rng.Intn(3), rng.Intn(4))
		sc.W[rng.Intn(4)][rng.Intn(4)] = rng.Intn(7) - 3 // asymmetric
		lin, err := NewTileAligner(&sc)
		if err != nil {
			t.Logf("NewTileAligner: %v", err)
			return false
		}
		aff, _ := NewTileAligner(&sc)
		for it := 0; it < 8; it++ {
			rTile, qTile := tierTile(rng)
			if rng.Intn(3) == 0 {
				rTile = tierSeq(rng, 1+rng.Intn(400))
				qTile = mutate(rng, rTile, rng.Float64()*0.3)
			}
			rc, qc := dna.AppendCodes(nil, rTile), dna.AppendCodes(nil, qTile)
			n, m := len(rc), len(qc)
			// No band, the diagonal alone, narrow, clamped at one or both
			// tile edges, wider than the tile.
			band := []int{-1, 0, rng.Intn(8), rng.Intn(max(n, m)), max(n, m) + rng.Intn(8), n + m}[rng.Intn(6)]
			lin.grow(n+1, m+1)
			aff.grow(n+1, m+1)
			gotCells, wantCells := lin.fillCoded(rc, qc, band, true), aff.fillCoded(rc, qc, band, false)
			fail := func(format string, args ...any) bool {
				t.Logf("seed %d it %d, %d×%d band %d, %+v: "+format,
					append([]any{seed, it, n, m, band, sc}, args...)...)
				return false
			}
			if gotCells != wantCells {
				return fail("filled %d cells, affine %d", gotCells, wantCells)
			}
			for i := 0; i <= n; i++ {
				if lin.hRow[i] != aff.hRow[i] {
					return fail("hRow[%d] = %d, affine %d", i, lin.hRow[i], aff.hRow[i])
				}
			}
			for j := 1; j <= m; j++ {
				lo, hi := bandCols(n, m, j, band)
				for i := lo; i <= hi; i++ {
					if got, want := lin.ptr[ptrIndex(n, m, i, j)], aff.ptr[ptrIndex(n, m, i, j)]; got != want {
						return fail("ptr(%d,%d) = %04b, affine %04b", i, j, got, want)
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Error(err)
	}
}

// On tiles the scalar rows fill, the auto tier must actually engage on
// the workload it exists for — high-identity extension tiles — and must
// fall back on unrelated tiles, whose proven band spans the tile,
// rather than fill it banded; a divergence cap (SetKernelDivergence)
// turns low-identity tiles away too. Tiles the vector fill takes skip
// the tier under auto, without counting a fallback.
func TestKernelTierFallbackRate(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	sc := GACTEval()
	vec, err := NewTileAligner(&sc)
	if err != nil {
		t.Fatal(err)
	}
	ta, _ := NewTileAligner(&sc)
	ta.vecSub = nil // the scalar passes, as under purego
	if vec.vecSub != nil {
		rTile := dna.Random(rng, 320, 0.45)
		vec.AlignTile(rTile, mutate(rng, rTile, 0.10)[:300], false, 320-128)
		if ks := vec.KernelStats(); ks != (KernelStats{LUTTiles: 1, LUTCells: 320 * 300}) {
			t.Errorf("vector-eligible extension tile under auto counted %+v, want one full fill", ks)
		}
	}

	// High-identity reads: the PacBio-like regime of the paper's tiles.
	for it := 0; it < 40; it++ {
		rTile := dna.Random(rng, 320, 0.45)
		qTile := mutate(rng, rTile, 0.10)
		if len(qTile) > 320 {
			qTile = qTile[:320]
		}
		ta.AlignTile(rTile, qTile, false, 320-128)
	}
	ks := ta.KernelStats()
	if ks.BitvectorTiles < 30 {
		t.Errorf("high-identity tiles: bitvector path took %d of 40 (fallback %d, lut %d), want ≥ 30",
			ks.BitvectorTiles, ks.FallbackTiles, ks.LUTTiles)
	}
	if ks.BitvectorCells >= ks.BitvectorTiles*320*320/2 {
		t.Errorf("banded fill saved too little: %d cells over %d tiles (full fill would be %d/tile)",
			ks.BitvectorCells, ks.BitvectorTiles, 320*320)
	}

	// Unrelated tiles: the profit gate must punt to the LUT.
	before := ks
	for it := 0; it < 40; it++ {
		ta.AlignTile(dna.Random(rng, 320, 0.45), dna.Random(rng, 320, 0.45), false, 320-128)
	}
	ks = ta.KernelStats()
	if fb := ks.FallbackTiles - before.FallbackTiles; fb < 30 {
		t.Errorf("unrelated tiles: only %d of 40 fell back (bitvector %d)",
			fb, ks.BitvectorTiles-before.BitvectorTiles)
	}

	// Low-identity reads under a divergence cap of a fifth of the tile's
	// perfect-score bound.
	ta.SetKernelDivergence(320 / 5)
	before = ks
	for it := 0; it < 40; it++ {
		rTile := dna.Random(rng, 320, 0.45)
		qTile := mutate(rng, rTile, 0.45)
		if len(qTile) > 320 {
			qTile = qTile[:320]
		}
		ta.AlignTile(rTile, qTile, false, 320-128)
	}
	ks = ta.KernelStats()
	if fb := ks.FallbackTiles - before.FallbackTiles; fb < 30 {
		t.Errorf("low-identity tiles under a divergence cap: only %d of 40 fell back (bitvector %d)",
			fb, ks.BitvectorTiles-before.BitvectorTiles)
	}
}

// A first tile is one logical tile to the counters, whichever passes it
// ran: BitvectorTiles + LUTTiles advances by exactly one (gact derives
// gact/tile_bitvector + gact/tile_lut == gact/tiles and the bench's
// align.bitvector_share from that). A rejected first tile is a LUT
// tile of n·m cells — the score pass; an accepted one counts under the
// tier of its refill, with the score pass's cells on the LUT side.
func TestFirstTileKernelStats(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	sc := GACTEval()
	ta, err := NewTileAligner(&sc)
	if err != nil {
		t.Fatal(err)
	}
	const side = 384
	rTile := dna.Random(rng, side, 0.45)

	// Unrelated query under an h_tile threshold: rejected.
	res := ta.AlignFirstTile(rTile, dna.Random(rng, side, 0.45), side-128, 90)
	if res.Score <= 0 || res.Score >= 90 || len(res.Cigar) != 0 || res.IOff != 0 || res.JOff != 0 {
		t.Fatalf("unrelated first tile: %+v, want a positive score below 90 and no path", res)
	}
	if want := (KernelStats{LUTTiles: 1, LUTCells: side * side}); ta.KernelStats() != want {
		t.Errorf("rejected first tile counted %+v, want %+v", ta.KernelStats(), want)
	}

	// High-identity query: accepted, refilled in a band around the path.
	before := ta.KernelStats()
	qTile := mutate(rng, rTile, 0.05)[:side]
	res = ta.AlignFirstTile(rTile, qTile, side-128, 90)
	if res.Score < 90 || len(res.Cigar) == 0 {
		t.Fatalf("high-identity first tile: %+v, want an accepted tile", res)
	}
	ks := ta.KernelStats()
	if ks.BitvectorTiles != before.BitvectorTiles+1 || ks.LUTTiles != before.LUTTiles || ks.FallbackTiles != 0 {
		t.Errorf("accepted first tile: %+v -> %+v, want one more bitvector tile", before, ks)
	}
	if ks.LUTCells != before.LUTCells+side*side {
		t.Errorf("accepted first tile added %d LUT cells, want the score pass's %d", ks.LUTCells-before.LUTCells, side*side)
	}
	if refill := ks.BitvectorCells - before.BitvectorCells; refill <= 0 || refill >= side*side/2 {
		t.Errorf("accepted first tile refilled %d cells, want a band well under the %d-cell matrix", refill, side*side)
	}

	// KernelLUT refills the whole sub-tile.
	ta.SetKernel(KernelLUT)
	before = ks
	ta.AlignTile(rTile, qTile, true, side-128)
	ks = ta.KernelStats()
	if ks.LUTTiles != before.LUTTiles+1 || ks.BitvectorTiles != before.BitvectorTiles {
		t.Errorf("KernelLUT first tile: %+v -> %+v, want one more LUT tile", before, ks)
	}
}

// Mode parsing round-trips, and rejects junk.
func TestParseKernelMode(t *testing.T) {
	for _, m := range []KernelMode{KernelAuto, KernelLUT, KernelBitvector} {
		got, err := ParseKernelMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseKernelMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	if got, err := ParseKernelMode(""); err != nil || got != KernelAuto {
		t.Errorf("ParseKernelMode(\"\") = %v, %v; want auto", got, err)
	}
	if _, err := ParseKernelMode("simd"); err == nil {
		t.Error("ParseKernelMode(\"simd\") should fail")
	}
}
