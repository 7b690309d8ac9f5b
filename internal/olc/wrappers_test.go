package olc

import (
	"context"
	"testing"

	"darwin/internal/core"
)

// TestBuildLayoutWrapperIdentical: the deprecated positional
// BuildLayout must return the same layout as BuildLayoutContext with a
// background context — the wrapper contract.
func TestBuildLayoutWrapperIdentical(t *testing.T) {
	seqs := testReads(t, 20000, 50)
	readLens := make([]int, len(seqs))
	for i := range seqs {
		readLens[i] = len(seqs[i])
	}
	ovp, err := core.NewOverlapper(seqs, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	overlaps, _ := ovp.FindOverlaps(500)

	old := BuildLayout(readLens, overlaps)
	now, err := BuildLayoutContext(context.Background(), readLens, overlaps)
	if err != nil {
		t.Fatal(err)
	}
	if len(old.Contigs) != len(now.Contigs) {
		t.Fatalf("contig counts differ: %d vs %d", len(old.Contigs), len(now.Contigs))
	}
	for i := range old.Contigs {
		a, b := old.Contigs[i], now.Contigs[i]
		if a.Len != b.Len || len(a.Placements) != len(b.Placements) {
			t.Fatalf("contig %d differs: %+v vs %+v", i, a, b)
		}
		for j := range a.Placements {
			if a.Placements[j] != b.Placements[j] {
				t.Fatalf("contig %d placement %d differs: %+v vs %+v",
					i, j, a.Placements[j], b.Placements[j])
			}
		}
	}
}

// TestContextWrappersCancel: the context variants must honour an
// already-cancelled context.
func TestContextWrappersCancel(t *testing.T) {
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
