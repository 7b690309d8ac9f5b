package olc

import (
	"context"
	"testing"

	"darwin/internal/align"
	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/genome"
	"darwin/internal/readsim"
)

// TestPolishReducesError: consensus over ~12× coverage must cut the
// draft's raw-read error rate by an order of magnitude (Section 2's
// consensus-accuracy argument).
func TestPolishReducesError(t *testing.T) {
	g, err := genome.Generate(genome.Config{Length: 15000, GC: 0.45, Seed: 171})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := readsim.Simulate(g.Seq, readsim.Config{
		Profile: readsim.PacBio, MeanLen: 2000, Coverage: 12, Seed: 172,
	})
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([]dna.Seq, len(reads))
	readLens := make([]int, len(reads))
	for i := range reads {
		seqs[i] = reads[i].Seq
		readLens[i] = len(reads[i].Seq)
	}
	ovCfg := core.DefaultConfig(11, 700, 20)
	ovCfg.SeedStride = 2
	ovp, err := core.NewOverlapper(seqs, ovCfg)
	if err != nil {
		t.Fatal(err)
	}
	overlaps, _ := ovp.FindOverlaps(500)
	layout := mustLayout(t, readLens, overlaps)
	draft := Splice(seqs, layout.Contigs[0])
	if len(draft) < 12000 {
		t.Fatalf("draft too short: %d", len(draft))
	}

	errRate := func(s dna.Seq) float64 {
		d1, err := align.EditDistance(g.Seq, s, align.EditInfix)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := align.EditDistance(g.Seq, dna.RevComp(s), align.EditInfix)
		if err != nil {
			t.Fatal(err)
		}
		return float64(min(d1, d2)) / float64(len(s))
	}
	draftErr := errRate(draft)
	if draftErr < 0.08 {
		t.Fatalf("test setup: draft error %.3f unexpectedly low", draftErr)
	}
	// Two polishing rounds, as consensus pipelines iterate: the first
	// round's cleaner draft sharpens the second round's alignments.
	polished := draft
	for round := 0; round < 2; round++ {
		polished, err = PolishContext(context.Background(), polished, seqs, core.DefaultConfig(11, 700, 20), 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	polishedErr := errRate(polished)
	t.Logf("draft error %.3f -> polished error %.4f", draftErr, polishedErr)
	if polishedErr > draftErr/5 {
		t.Errorf("polish only reduced error %.3f -> %.3f, want ≥ 5×", draftErr, polishedErr)
	}
	if polishedErr > 0.03 {
		t.Errorf("polished error %.4f, want ≤ 0.03", polishedErr)
	}
}

func TestPolishPreservesPerfectDraft(t *testing.T) {
	g, err := genome.Generate(genome.Config{Length: 8000, GC: 0.5, Seed: 173})
	if err != nil {
		t.Fatal(err)
	}
	// Error-free "reads" tiling the genome.
	var reads []dna.Seq
	for lo := 0; lo+2000 <= len(g.Seq); lo += 800 {
		reads = append(reads, g.Seq[lo:lo+2000].Clone())
	}
	polished, err := PolishContext(context.Background(), g.Seq, reads, core.DefaultConfig(11, 600, 20), 0)
	if err != nil {
		t.Fatal(err)
	}
	if polished.String() != g.Seq.String() {
		d, _ := align.EditDistance(g.Seq, polished, align.EditGlobal)
		t.Errorf("perfect draft changed by polish (edit distance %d)", d)
	}
}

func TestPolishErrors(t *testing.T) {
	if _, err := PolishContext(context.Background(), nil, nil, core.DefaultConfig(11, 600, 20), 0); err == nil {
		t.Error("empty draft should error")
	}
}
