package assembly

import (
	"testing"

	"darwin/internal/baseline"
	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/dsoft"
	"darwin/internal/genome"
	"darwin/internal/readsim"
	"darwin/internal/seedtable"
)

func testGenome(t *testing.T, n int, seed int64) dna.Seq {
	t.Helper()
	g, err := genome.Generate(genome.Config{
		Length: n, GC: 0.45, RepeatFraction: 0.15, RepeatFamilies: 4,
		RepeatUnitLen: 200, RepeatDivergence: 0.1, TandemFraction: 0.1, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g.Seq
}

func TestEvaluateRefGuidedDarwin(t *testing.T) {
	ref := testGenome(t, 200000, 121)
	eng, err := core.New(ref, core.DefaultConfig(11, 600, 20))
	if err != nil {
		t.Fatal(err)
	}
	reads, err := readsim.SimulateN(ref, 15, readsim.Config{Profile: readsim.PacBio, MeanLen: 2500, Seed: 122})
	if err != nil {
		t.Fatal(err)
	}
	m := NewDarwinMapper(eng)
	res := EvaluateRefGuided(m, reads)
	if res.Mapper != "darwin" || res.Reads != 15 {
		t.Errorf("result metadata: %+v", res)
	}
	if res.Confusion.Sensitivity() < 0.85 {
		t.Errorf("darwin sensitivity = %.2f, want ≥ 0.85", res.Confusion.Sensitivity())
	}
	if res.ReadsPerSec <= 0 {
		t.Error("reads/sec not measured")
	}
	if res.Times.Total() <= 0 {
		t.Error("stage times not measured")
	}
	w := m.Workload()
	if w.SeedsPerRead <= 0 || w.HitsPerSeed <= 0 || w.TilesPerRead <= 0 {
		t.Errorf("workload stats incomplete: %+v", w)
	}
	if w.TileT != 320 || w.TileO != 128 {
		t.Errorf("workload tile params: %+v", w)
	}
}

func TestEvaluateRefGuidedBaselines(t *testing.T) {
	ref := testGenome(t, 150000, 123)
	reads, err := readsim.SimulateN(ref, 10, readsim.Config{Profile: readsim.PacBio, MeanLen: 2000, Seed: 124})
	if err != nil {
		t.Fatal(err)
	}
	bw, err := baseline.NewBWAMemLike(ref, baseline.DefaultBWAMemConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := EvaluateRefGuided(BWAMemMapper{bw}, reads)
	if res.Confusion.Sensitivity() < 0.8 {
		t.Errorf("bwamem-like sensitivity = %.2f, want ≥ 0.8", res.Confusion.Sensitivity())
	}

	gm, err := baseline.NewGraphMapLike(ref, baseline.DefaultGraphMapConfig())
	if err != nil {
		t.Fatal(err)
	}
	reads2, err := readsim.SimulateN(ref, 10, readsim.Config{Profile: readsim.ONT2D, MeanLen: 2000, Seed: 125})
	if err != nil {
		t.Fatal(err)
	}
	res2 := EvaluateRefGuided(GraphMapMapper{gm}, reads2)
	if res2.Confusion.Sensitivity() < 0.8 {
		t.Errorf("graphmap-like sensitivity = %.2f, want ≥ 0.8", res2.Confusion.Sensitivity())
	}
	if res2.Times.Filtration <= 0 {
		t.Error("baseline filtration time missing")
	}
}

func TestEvaluateRefGuidedConfusionRules(t *testing.T) {
	ref := testGenome(t, 5000, 126)
	reads := []readsim.Read{
		{Name: "r0", Seq: ref[100:600].Clone(), RefStart: 100, RefEnd: 600},
		{Name: "r1", Seq: ref[1000:1500].Clone(), RefStart: 1000, RefEnd: 1500},
		{Name: "r2", Seq: ref[2000:2500].Clone(), RefStart: 2000, RefEnd: 2500},
	}
	// A fake mapper: r0 correct, r1 wrong place, r2 unmapped.
	m := fakeMapper{outcomes: map[string]MapOutcome{
		string(reads[0].Seq[:8]): {Mapped: true, RefStart: 130, RefEnd: 630},
		string(reads[1].Seq[:8]): {Mapped: true, RefStart: 4000, RefEnd: 4500},
	}}
	res := EvaluateRefGuided(m, reads)
	if res.Confusion.TP != 1 || res.Confusion.FP != 1 || res.Confusion.FN != 2 {
		t.Errorf("confusion = %+v, want TP=1 FP=1 FN=2", res.Confusion)
	}
}

type fakeMapper struct {
	outcomes map[string]MapOutcome
}

func (f fakeMapper) Name() string { return "fake" }
func (f fakeMapper) MapBest(q dna.Seq) MapOutcome {
	return f.outcomes[string(q[:8])]
}

func TestEvaluateOverlaps(t *testing.T) {
	reads := []readsim.Read{
		{RefStart: 0, RefEnd: 3000},
		{RefStart: 1500, RefEnd: 4500},   // overlaps r0 by 1500
		{RefStart: 4000, RefEnd: 7000},   // overlaps r1 by 500 (below 1kbp)
		{RefStart: 10000, RefEnd: 13000}, // isolated
	}
	truth := TrueOverlaps(reads, 1000)
	if len(truth) != 1 || truth[[2]int{0, 1}] != 1500 {
		t.Fatalf("truth = %v", truth)
	}
	reported := []ReportedOverlap{
		{A: 0, B: 1, Len: 1400}, // detected (≥ 80% of 1500)
		{A: 2, B: 3, Len: 800},  // false positive
	}
	c := EvaluateOverlaps(reads, reported, 1000, 0.8)
	if c.TP != 1 || c.FP != 1 || c.FN != 0 {
		t.Errorf("confusion = %+v", c)
	}
	// Under-detected overlap: below the 80% criterion.
	c = EvaluateOverlaps(reads, []ReportedOverlap{{A: 0, B: 1, Len: 1000}}, 1000, 0.8)
	if c.TP != 0 || c.FN != 1 {
		t.Errorf("under-detection confusion = %+v", c)
	}
}

func TestEvaluateOverlapsEndToEnd(t *testing.T) {
	ref := testGenome(t, 30000, 127)
	reads, err := readsim.SimulateN(ref, 45, readsim.Config{Profile: readsim.PacBio, MeanLen: 2000, Seed: 128})
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([]dna.Seq, len(reads))
	for i := range reads {
		seqs[i] = reads[i].Seq
	}
	ovCfg := core.DefaultConfig(11, 1000, 20)
	ovCfg.SeedStride = 2
	ov, err := core.NewOverlapper(seqs, ovCfg)
	if err != nil {
		t.Fatal(err)
	}
	overlaps, _ := ov.FindOverlaps(500)
	c := EvaluateOverlaps(reads, FromCoreOverlaps(overlaps), 1000, 0.8)
	if c.Sensitivity() < 0.8 {
		t.Errorf("darwin overlap sensitivity = %.2f (%+v), want ≥ 0.8", c.Sensitivity(), c)
	}
}

func TestEvaluateDSOFT(t *testing.T) {
	ref := testGenome(t, 150000, 129)
	tab, err := seedtable.Build(ref, 11, seedtable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := readsim.SimulateN(ref, 15, readsim.Config{Profile: readsim.ONT2D, MeanLen: 2500, Seed: 130})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := dsoft.New(tab, dsoft.Config{N: 900, H: 14, BinSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := dsoft.New(tab, dsoft.Config{N: 900, H: 40, BinSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	el := EvaluateDSOFT(loose, reads, readsim.ONT2D.Ins+readsim.ONT2D.Del)
	et := EvaluateDSOFT(tight, reads, readsim.ONT2D.Ins+readsim.ONT2D.Del)
	if el.Sensitivity < 0.9 {
		t.Errorf("loose h sensitivity = %.2f, want ≥ 0.9", el.Sensitivity)
	}
	// Raising h must not increase the false hit rate or the candidate
	// count (Figure 11's monotone trade-off).
	if et.FHR > el.FHR {
		t.Errorf("FHR increased with h: %.2f -> %.2f", el.FHR, et.FHR)
	}
	if et.Candidates > el.Candidates {
		t.Errorf("candidates increased with h: %d -> %d", el.Candidates, et.Candidates)
	}
	if el.Stats.SeedsIssued == 0 {
		t.Error("stats not aggregated")
	}
}
