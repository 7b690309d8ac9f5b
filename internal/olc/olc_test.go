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

// mustLayout is BuildLayoutContext under a context that never cancels.
func mustLayout(t *testing.T, readLens []int, overlaps []core.Overlap) *Layout {
	t.Helper()
	l, err := BuildLayoutContext(context.Background(), readLens, overlaps)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestLayoutSimpleChain: three reads tiling a region with known
// overlaps must form one contig in the right order.
func TestLayoutSimpleChain(t *testing.T) {
	readLens := []int{1000, 1000, 1000}
	overlaps := []core.Overlap{
		// r1 starts 600 into r0; r2 starts 600 into r1.
		{Target: 0, Query: 1, TargetStart: 600, TargetEnd: 1000, QueryStart: 0, QueryEnd: 400, Score: 400},
		{Target: 1, Query: 2, TargetStart: 600, TargetEnd: 1000, QueryStart: 0, QueryEnd: 400, Score: 390},
	}
	l := mustLayout(t, readLens, overlaps)
	if len(l.Contigs) != 1 {
		t.Fatalf("contigs = %d, want 1", len(l.Contigs))
	}
	c := l.Contigs[0]
	if c.Len != 2200 {
		t.Errorf("contig length = %d, want 2200", c.Len)
	}
	wantOrder := []int{0, 1, 2}
	for i, p := range c.Placements {
		if p.Read != wantOrder[i] || p.Rev {
			t.Errorf("placement %d = %+v, want read %d forward", i, p, wantOrder[i])
		}
		if p.Offset != i*600 {
			t.Errorf("placement %d offset = %d, want %d", i, p.Offset, i*600)
		}
	}
}

// TestLayoutReverseOrientation: an overlap with a reverse-complement
// query must place the read reversed and still produce one contig.
func TestLayoutReverseOrientation(t *testing.T) {
	readLens := []int{1000, 1000}
	overlaps := []core.Overlap{
		{Target: 0, Query: 1, QueryRev: true, TargetStart: 600, TargetEnd: 1000, QueryStart: 0, QueryEnd: 400, Score: 400},
	}
	l := mustLayout(t, readLens, overlaps)
	if len(l.Contigs) != 1 {
		t.Fatalf("contigs = %d, want 1", len(l.Contigs))
	}
	c := l.Contigs[0]
	if len(c.Placements) != 2 {
		t.Fatalf("placements = %d", len(c.Placements))
	}
	// Read 1 is reversed relative to read 0 (or vice versa).
	if c.Placements[0].Rev == c.Placements[1].Rev {
		t.Errorf("orientations should differ: %+v", c.Placements)
	}
	if c.Len != 1600 {
		t.Errorf("contig length = %d, want 1600", c.Len)
	}
}

func TestLayoutSkipsCycles(t *testing.T) {
	readLens := []int{500, 500}
	overlaps := []core.Overlap{
		{Target: 0, Query: 1, TargetStart: 300, TargetEnd: 500, QueryStart: 0, QueryEnd: 200, Score: 200},
		// A second, conflicting overlap between the same pair must be
		// ignored (same fragment).
		{Target: 1, Query: 0, TargetStart: 400, TargetEnd: 500, QueryStart: 0, QueryEnd: 100, Score: 100},
	}
	l := mustLayout(t, readLens, overlaps)
	if len(l.Contigs) != 1 {
		t.Fatalf("contigs = %d, want 1", len(l.Contigs))
	}
	if got := len(l.Contigs[0].Placements); got != 2 {
		t.Errorf("placements = %d, want 2", got)
	}
}

func TestSpliceExactTiling(t *testing.T) {
	// A genome cut into overlapping error-free pieces must splice back
	// to exactly the genome.
	g, err := genome.Generate(genome.Config{Length: 3000, GC: 0.5, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	reads := []dna.Seq{g.Seq[0:1200].Clone(), g.Seq[800:2200].Clone(), g.Seq[1800:3000].Clone()}
	readLens := []int{1200, 1400, 1200}
	overlaps := []core.Overlap{
		{Target: 0, Query: 1, TargetStart: 800, TargetEnd: 1200, QueryStart: 0, QueryEnd: 400, Score: 400},
		{Target: 1, Query: 2, TargetStart: 1000, TargetEnd: 1400, QueryStart: 0, QueryEnd: 400, Score: 399},
	}
	l := mustLayout(t, readLens, overlaps)
	if len(l.Contigs) != 1 {
		t.Fatalf("contigs = %d, want 1", len(l.Contigs))
	}
	contig := Splice(reads, l.Contigs[0])
	if contig.String() != g.Seq.String() {
		t.Errorf("spliced contig (len %d) differs from genome (len %d)", len(contig), len(g.Seq))
	}
}

// TestEndToEndAssembly: reads → Darwin overlaps → layout → splice, and
// the draft contig must align to the source genome along ~its whole
// length.
func TestEndToEndAssembly(t *testing.T) {
	g, err := genome.Generate(genome.Config{Length: 20000, GC: 0.45, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := readsim.SimulateN(g.Seq, 80, readsim.Config{Profile: readsim.PacBio, MeanLen: 2000, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([]dna.Seq, len(reads))
	readLens := make([]int, len(reads))
	for i := range reads {
		seqs[i] = reads[i].Seq
		readLens[i] = len(reads[i].Seq)
	}
	ovCfg := core.DefaultConfig(11, 800, 20)
	ovCfg.SeedStride = 2
	ov, err := core.NewOverlapper(seqs, ovCfg)
	if err != nil {
		t.Fatal(err)
	}
	overlaps, _ := ov.FindOverlaps(500)
	l := mustLayout(t, readLens, overlaps)
	st := Summarize(l)
	if st.Contigs > 20 {
		t.Errorf("assembly too fragmented: %s", st)
	}
	if st.LargestLen < 10000 {
		t.Errorf("largest contig %d, want ≥ 10000 (%s)", st.LargestLen, st)
	}
	// Draft accuracy: the largest contig must map back to the genome
	// with identity limited only by raw read error (~15%): edit
	// distance below ~25% of its length over a large prefix.
	contig := Splice(seqs, l.Contigs[0])
	probe := contig
	if len(probe) > 5000 {
		probe = probe[:5000]
	}
	// The contig's global orientation is arbitrary: compare both.
	dist, err := align.EditDistance(g.Seq, probe, align.EditInfix)
	if err != nil {
		t.Fatal(err)
	}
	distRC, err := align.EditDistance(g.Seq, dna.RevComp(probe), align.EditInfix)
	if err != nil {
		t.Fatal(err)
	}
	if distRC < dist {
		dist = distRC
	}
	if frac := float64(dist) / float64(len(probe)); frac > 0.25 {
		t.Errorf("draft contig error fraction %.2f vs genome, want ≤ 0.25", frac)
	}
}

func TestSummarizeStats(t *testing.T) {
	l := &Layout{Contigs: []Contig{
		{Len: 5000, Placements: make([]Placement, 5)},
		{Len: 3000, Placements: make([]Placement, 3)},
		{Len: 1000, Placements: make([]Placement, 1)},
	}}
	s := Summarize(l)
	if s.Contigs != 3 || s.TotalLen != 9000 || s.LargestLen != 5000 {
		t.Errorf("stats = %+v", s)
	}
	if s.N50 != 5000 {
		t.Errorf("N50 = %d, want 5000", s.N50)
	}
	if s.SingletonCnt != 1 || s.ReadsPlaced != 9 {
		t.Errorf("stats = %+v", s)
	}
	if s.String() == "" {
		t.Error("empty render")
	}
}

// TestContextCancel: every context-taking stage must honour an
// already-cancelled context.
func TestContextCancel(t *testing.T) {
	seqs := testReads(t, 15000, 40)
	readLens := make([]int, len(seqs))
	for i := range seqs {
		readLens[i] = len(seqs[i])
	}
	ovp, err := core.NewOverlapper(seqs, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	overlaps, _ := ovp.FindOverlaps(500)
	if len(overlaps) == 0 {
		t.Fatal("no overlaps for cancellation probe")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildLayoutContext(ctx, readLens, overlaps); err == nil {
		t.Error("BuildLayoutContext ignored cancelled context")
	}
	if _, err := PolishContext(ctx, seqs[0], seqs, testConfig(), 0); err == nil {
		t.Error("PolishContext ignored cancelled context")
	}
	if _, err := Assemble(ctx, seqs, WithConfig(testConfig())); err == nil {
		t.Error("Assemble ignored cancelled context")
	}
}
