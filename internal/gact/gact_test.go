package gact

import (
	"math/rand"
	"testing"

	"darwin/internal/align"
	"darwin/internal/dna"
	"darwin/internal/genome"
	"darwin/internal/readsim"
)

// TestPaperFigure4 reproduces the GACT left-extension example of
// Figure 4: the Figure 1 matrix (ref GCGACTTT, query GTCGTTT,
// match=+2 mismatch=−1 gap=1) tiled with T=4, O=1 yields the same
// alignment as optimal Smith-Waterman (score 9).
func TestPaperFigure4(t *testing.T) {
	R := dna.NewSeq("GCGACTTT")
	Q := dna.NewSeq("GTCGTTT")
	cfg := Config{T: 4, O: 1, Scoring: align.Figure1()}
	res, stats, err := ExtendLeftOnly(R, Q, len(R), len(Q), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("no alignment")
	}
	if res.Score != 9 {
		t.Errorf("GACT score = %d, want 9 (optimal, as Figure 4 shows)", res.Score)
	}
	if err := res.Check(R, Q); err != nil {
		t.Fatal(err)
	}
	sc := align.Figure1()
	opt, err := align.SmithWaterman(R, Q, &sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != opt.Score {
		t.Errorf("GACT %d != optimal %d", res.Score, opt.Score)
	}
	if stats.Tiles < 3 {
		t.Errorf("tiles = %d, want ≥ 3 (Figure 4 uses T1..T3)", stats.Tiles)
	}
}

func simPair(t *testing.T, n int, profile readsim.Profile, seed int64) (ref, query dna.Seq, iSeed, jSeed int) {
	t.Helper()
	g, err := genome.Generate(genome.Config{Length: n * 3, GC: 0.5, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := readsim.SimulateN(g.Seq, 1, readsim.Config{Profile: profile, MeanLen: n, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	r := reads[0]
	if r.Reverse {
		// Map the template interval into revcomp coordinates; the read
		// aligns forward there starting at len − RefEnd.
		return dna.RevComp(g.Seq), r.Seq, len(g.Seq) - r.RefEnd, 0
	}
	return g.Seq, r.Seq, r.RefStart, 0
}

// TestGACTOptimalAtPaperSetting verifies the paper's central empirical
// claim at small scale: with (T=320, O=128), GACT alignments of noisy
// reads score identically to full Smith-Waterman for all three read
// classes (Figure 9a's chosen operating point).
func TestGACTOptimalAtPaperSetting(t *testing.T) {
	cfg := DefaultConfig()
	for _, p := range readsim.Profiles {
		for trial := 0; trial < 3; trial++ {
			ref, query, iSeed, jSeed := simPair(t, 2000, p, int64(100+trial))
			res, _, err := Extend(ref, query, iSeed, jSeed, &cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res == nil {
				t.Fatalf("%s trial %d: no alignment", p.Name, trial)
			}
			if err := res.Check(ref, query); err != nil {
				t.Fatalf("%s trial %d: %v", p.Name, trial, err)
			}
			opt := align.ScoreOnly(ref, query, &cfg.Scoring)
			if res.Score != opt {
				t.Errorf("%s trial %d: GACT score %d, optimal %d", p.Name, trial, res.Score, opt)
			}
		}
	}
}

// TestGACTSuboptimalWithTinyOverlap checks the other side of Fig. 9a:
// with too little overlap, high-error reads can deviate from optimal
// (scores may only be ≤ optimal, never greater).
func TestGACTNeverExceedsOptimal(t *testing.T) {
	for _, cfg := range []Config{
		{T: 32, O: 1, Scoring: align.GACTEval()},
		{T: 64, O: 8, Scoring: align.GACTEval()},
		{T: 128, O: 32, Scoring: align.GACTEval()},
	} {
		for trial := 0; trial < 3; trial++ {
			ref, query, iSeed, jSeed := simPair(t, 1500, readsim.ONT1D, int64(200+trial))
			res, _, err := Extend(ref, query, iSeed, jSeed, &cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res == nil {
				continue
			}
			if err := res.Check(ref, query); err != nil {
				t.Fatal(err)
			}
			opt := align.ScoreOnly(ref, query, &cfg.Scoring)
			if res.Score > opt {
				t.Errorf("T=%d O=%d trial %d: GACT score %d exceeds optimal %d", cfg.T, cfg.O, trial, res.Score, opt)
			}
		}
	}
}

func TestExtendStatsTileCount(t *testing.T) {
	// Tiles per alignment should scale like length/(T−O) per direction.
	cfg := Config{T: 128, O: 32, Scoring: align.GACTEval()}
	ref, query, iSeed, jSeed := simPair(t, 3000, readsim.PacBio, 300)
	res, stats, err := Extend(ref, query, iSeed, jSeed, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("no alignment")
	}
	alignedLen := res.QueryEnd - res.QueryStart
	expect := alignedLen / (cfg.T - cfg.O)
	if stats.Tiles < expect/2 || stats.Tiles > 3*expect+4 {
		t.Errorf("tiles = %d for aligned length %d, expected around %d", stats.Tiles, alignedLen, expect)
	}
	if stats.Cells <= 0 {
		t.Error("cells not counted")
	}
	if stats.FirstTileScore <= 0 {
		t.Error("first tile score not recorded")
	}
}

func TestExtendCoversRead(t *testing.T) {
	// A true candidate must yield an alignment covering nearly the
	// whole read despite 15% errors.
	cfg := DefaultConfig()
	ref, query, iSeed, jSeed := simPair(t, 4000, readsim.PacBio, 400)
	res, _, err := Extend(ref, query, iSeed, jSeed, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("no alignment")
	}
	cov := float64(res.QueryEnd-res.QueryStart) / float64(len(query))
	if cov < 0.95 {
		t.Errorf("query coverage = %.3f, want ≥ 0.95", cov)
	}
}

func TestExtendSpuriousCandidate(t *testing.T) {
	// Unrelated sequences: the first tile should score low, and the
	// h_tile filter concept (Fig. 12) applies; alignment may be nil or
	// tiny.
	rng := rand.New(rand.NewSource(41))
	ref := dna.Random(rng, 2000, 0.5)
	query := dna.Random(rng, 1000, 0.5)
	cfg := DefaultConfig()
	res, stats, err := Extend(ref, query, 1500, 800, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FirstTileScore > 90 {
		t.Errorf("first tile score %d for random sequences, expected < h_tile=90", stats.FirstTileScore)
	}
	if res != nil {
		if err := res.Check(ref, query); err != nil {
			t.Fatal(err)
		}
	}
}

// The h_tile filter is one predicate on all three entrypoints: a first
// tile scoring below MinFirstTile rejects the candidate before any
// extension tile runs (ExtendLeftOnly used to reject only on an empty
// first tile).
func TestHTileFilterOnEveryEntrypoint(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ref := dna.Random(rng, 1200, 0.5)
	query := dna.Random(rng, 1200, 0.5)
	cfg := DefaultConfig()
	open, stats, err := ExtendLeftOnly(ref, query, len(ref), len(query), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if open == nil || stats.FirstTileScore <= 0 || stats.FirstTileScore >= 90 {
		t.Fatalf("unfiltered unrelated pair: result %v, first tile %d; want an alignment off a first tile in (0, 90)", open, stats.FirstTileScore)
	}
	cfg.MinFirstTile = 90
	engine, err := NewEngine(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, extend := range map[string]func() (*align.Result, *Stats, error){
		"ExtendLeftOnly": func() (*align.Result, *Stats, error) { return ExtendLeftOnly(ref, query, len(ref), len(query), &cfg) },
		"Extend":         func() (*align.Result, *Stats, error) { return Extend(ref, query, 0, 0, &cfg) },
		"Engine.Extend": func() (*align.Result, *Stats, error) {
			res, st, err := engine.Extend(ref, query, 0, 0)
			return res, &st, err
		},
	} {
		res, st, err := extend()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res != nil || st.Tiles != 1 || st.FirstTileScore <= 0 || st.FirstTileScore >= 90 {
			t.Errorf("%s under h_tile 90: result %v, stats %+v; want a rejection after one tile", name, res, *st)
		}
	}
}

func TestExtendErrors(t *testing.T) {
	cfg := DefaultConfig()
	R := dna.NewSeq("ACGTACGTACGT")
	Q := dna.NewSeq("ACGTACGT")
	if _, _, err := Extend(R, Q, -1, 4, &cfg); err == nil {
		t.Error("negative iSeed should error")
	}
	if _, _, err := Extend(R, Q, 4, len(Q), &cfg); err == nil {
		t.Error("jSeed out of range should error")
	}
	bad := Config{T: 0, O: 0, Scoring: align.GACTEval()}
	if _, _, err := Extend(R, Q, 4, 4, &bad); err == nil {
		t.Error("T=0 should error")
	}
	bad = Config{T: 10, O: 10, Scoring: align.GACTEval()}
	if _, _, err := Extend(R, Q, 4, 4, &bad); err == nil {
		t.Error("O=T should error")
	}
	bad = Config{T: 10, O: 5, FirstTileT: 3, Scoring: align.GACTEval()}
	if _, _, err := Extend(R, Q, 4, 4, &bad); err == nil {
		t.Error("first tile ≤ O should error")
	}
}

func TestExtendIdenticalSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := dna.Random(rng, 1000, 0.5)
	cfg := Config{T: 100, O: 30, Scoring: align.GACTEval()}
	res, _, err := Extend(s, s, 0, 0, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("no alignment")
	}
	if res.Score != len(s) {
		t.Errorf("score = %d, want %d (perfect match)", res.Score, len(s))
	}
	if res.RefStart != 0 || res.QueryStart != 0 || res.RefEnd != len(s) || res.QueryEnd != len(s) {
		t.Errorf("span = ref[%d,%d) q[%d,%d), want full", res.RefStart, res.RefEnd, res.QueryStart, res.QueryEnd)
	}
}

func TestExtendFromMiddle(t *testing.T) {
	// Seed in the middle of the read: both directions must extend.
	rng := rand.New(rand.NewSource(43))
	s := dna.Random(rng, 2000, 0.5)
	cfg := Config{T: 100, O: 30, Scoring: align.GACTEval()}
	res, _, err := Extend(s, s, 1000, 1000, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("no alignment")
	}
	if res.RefStart != 0 || res.RefEnd != len(s) {
		t.Errorf("span = [%d,%d), want [0,%d)", res.RefStart, res.RefEnd, len(s))
	}
	if res.Score != len(s) {
		t.Errorf("score = %d, want %d", res.Score, len(s))
	}
}

func TestConstantMemoryProperty(t *testing.T) {
	// The compute-intensive step must not allocate more than O(T²)
	// per tile: verify Cells per tile ≤ FirstTileT².
	cfg := DefaultConfig()
	ref, query, iSeed, jSeed := simPair(t, 5000, readsim.PacBio, 500)
	_, stats, err := Extend(ref, query, iSeed, jSeed, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	maxCells := int64(cfg.firstT()) * int64(cfg.firstT())
	if avg := stats.Cells / int64(stats.Tiles); avg > maxCells {
		t.Errorf("average cells per tile %d exceeds T² = %d", avg, maxCells)
	}
}
