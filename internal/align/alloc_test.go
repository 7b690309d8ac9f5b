//go:build !race

// The race detector changes allocation behaviour, so the
// steady-state-allocation pins live behind !race; `make check` runs
// them in a separate non-race pass.

package align

import (
	"math/rand"
	"testing"

	"darwin/internal/dna"
)

// allocScorings are a scoring for each of the pointer fills: the
// paper's, whose open == ext selects the vector fill on amd64 with AVX2
// and linearRow elsewhere, and an affine one (affineRow).
func allocScorings() map[string]Scoring {
	affine := GACTEval()
	affine.GapOpen = 2
	return map[string]Scoring{"linear": GACTEval(), "affine": affine}
}

// The tile kernel's steady state — buffers warmed by a first call —
// must not allocate at all, in either orientation, under either scoring.
// This is the tentpole invariant of the allocation-free kernel; any
// regression (a stray slice growth, an escaping closure, a lut copy)
// fails here.
func TestTileAlignerZeroSteadyStateAllocs(t *testing.T) {
	for name, sc := range allocScorings() {
		t.Run(name, func(t *testing.T) { testTileAlignerAllocs(t, sc) })
	}
}

func testTileAlignerAllocs(t *testing.T, sc Scoring) {
	rng := rand.New(rand.NewSource(11))
	ta, err := NewTileAligner(&sc)
	if err != nil {
		t.Fatal(err)
	}
	rTile := dna.Random(rng, 384, 0.45)
	qTile := mutate(rng, rTile, 0.15)
	if len(qTile) > 384 {
		qTile = qTile[:384]
	}
	if want := useAVX2 && sc.GapOpen == sc.GapExtend; ta.vectorOK(len(rTile), len(qTile)) != want {
		t.Fatalf("vector fill eligibility %v, want %v: the pin would measure the wrong fill", !want, want)
	}
	// Warm the monotonic buffers (pointer buffer, rows, codes, cigar).
	ta.AlignTile(rTile, qTile, true, 256)
	ta.AlignTileReversed(rTile, qTile, false, 192)

	if n := testing.AllocsPerRun(100, func() {
		ta.AlignTile(rTile, qTile, true, 256)
	}); n != 0 {
		t.Errorf("AlignTile steady state allocates %.1f times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		ta.AlignTileReversed(rTile, qTile, false, 192)
	}); n != 0 {
		t.Errorf("AlignTileReversed steady state allocates %.1f times per call, want 0", n)
	}

	// First tiles under an h_tile threshold: one rejected on its score
	// pass (the vector pass, under the linear scoring on amd64) and one
	// that passes and is refilled.
	unrelated := dna.Random(rng, 384, 0.45)
	if res := ta.AlignFirstTile(rTile, unrelated, 256, 90); res.Score >= 90 || len(res.Cigar) != 0 {
		t.Fatalf("unrelated first tile: %+v, want a reject", res)
	}
	if res := ta.AlignFirstTile(rTile, qTile, 256, 90); res.Score < 90 || len(res.Cigar) == 0 {
		t.Fatalf("related first tile: %+v, want a pass", res)
	}
	if n := testing.AllocsPerRun(100, func() {
		ta.AlignFirstTile(rTile, unrelated, 256, 90)
	}); n != 0 {
		t.Errorf("rejected AlignFirstTile steady state allocates %.1f times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		ta.AlignFirstTile(rTile, qTile, 256, 90)
	}); n != 0 {
		t.Errorf("accepted AlignFirstTile steady state allocates %.1f times per call, want 0", n)
	}
}

// The bitvector tier's steady state must also be allocation-free: the
// Myers pass, the affine rescore, and the banded fill — the vector one
// under the paper's scoring on amd64 — all run out of the aligner's
// embedded scratch, and so does an accepted first tile's banded refill.
// KernelBitvector keeps the vector-eligible extension tiles on the tier
// (KernelAuto gives them the full vector fill); the stats assertions
// pin that the measured path really was the bitvector one, not a
// silent fallback.
func TestTileAlignerBitvectorZeroSteadyStateAllocs(t *testing.T) {
	for name, sc := range allocScorings() {
		t.Run(name, func(t *testing.T) { testBitvectorAllocs(t, sc) })
	}
}

func testBitvectorAllocs(t *testing.T, sc Scoring) {
	rng := rand.New(rand.NewSource(13))
	ta, err := NewTileAligner(&sc)
	if err != nil {
		t.Fatal(err)
	}
	ta.SetKernel(KernelBitvector)
	rTile := dna.Random(rng, 320, 0.45)
	qTile := mutate(rng, rTile, 0.08)
	if len(qTile) > 320 {
		qTile = qTile[:320]
	}
	// Warm the buffers.
	ta.AlignTile(rTile, qTile, false, 192)
	ta.AlignTileReversed(rTile, qTile, false, 192)
	ta.AlignFirstTile(rTile, qTile, 192, 90)
	before := ta.KernelStats()
	if before.BitvectorTiles == 0 {
		t.Fatalf("warmup tiles did not take the bitvector path: %+v", before)
	}

	const runs = 100
	if n := testing.AllocsPerRun(runs, func() {
		ta.AlignTile(rTile, qTile, false, 192)
	}); n != 0 {
		t.Errorf("bitvector AlignTile steady state allocates %.1f times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(runs, func() {
		ta.AlignTileReversed(rTile, qTile, false, 192)
	}); n != 0 {
		t.Errorf("bitvector AlignTileReversed steady state allocates %.1f times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(runs, func() {
		if res := ta.AlignFirstTile(rTile, qTile, 192, 90); len(res.Cigar) == 0 {
			t.Fatalf("first tile %+v, want an accepted one", res)
		}
	}); n != 0 {
		t.Errorf("accepted banded AlignFirstTile steady state allocates %.1f times per call, want 0", n)
	}
	after := ta.KernelStats()
	// AllocsPerRun executes runs+1 warmup+measured iterations per call.
	if got := after.BitvectorTiles - before.BitvectorTiles; got < 3*(runs+1) {
		t.Errorf("measured loops took the bitvector path %d times, want %d — the pin measured the wrong path", got, 3*(runs+1))
	}
}

// MyersState's steady state must not allocate; the pooled package
// wrappers allocate only their returned result (EditResult + copied
// cigar for Myers, nothing for EditDistance).
func TestMyersZeroSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	ref := dna.Random(rng, 384, 0.5)
	query := mutate(rng, ref, 0.15)
	var st MyersState
	if _, err := st.Align(ref, query, EditGlobal); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := st.Align(ref, query, EditGlobal); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("MyersState.Align steady state allocates %.1f times per call, want 0", n)
	}
	if _, err := Myers(ref, query, EditInfix); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Myers(ref, query, EditInfix); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("pooled Myers allocates %.1f times per call, want ≤ 2 (result + cigar copy)", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := EditDistance(ref, query, EditGlobal); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("pooled EditDistance steady state allocates %.1f times per call, want 0", n)
	}
}

// ScoreOnly shares pooled rows; its steady state must also stay
// allocation-free (modulo pool refills after a GC, which AllocsPerRun
// runs are short enough to avoid).
func TestScoreOnlyZeroSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	sc := GACTEval()
	ref := dna.Random(rng, 512, 0.5)
	query := mutate(rng, ref, 0.2)
	ScoreOnly(ref, query, &sc)
	if n := testing.AllocsPerRun(100, func() {
		ScoreOnly(ref, query, &sc)
	}); n != 0 {
		t.Errorf("ScoreOnly steady state allocates %.1f times per call, want 0", n)
	}
}
