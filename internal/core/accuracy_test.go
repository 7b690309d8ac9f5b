package core

import (
	"context"
	"testing"

	"darwin/internal/dna"
	"darwin/internal/readsim"
)

// accuracy is one read set's exact mapping outcome under the paper's
// criterion: correct when the best alignment is on the read's strand
// and within 50 bp of the region it was drawn from.
type accuracy struct {
	Correct, Wrong, Unmapped int
	Candidates, Alignments   int
}

// TestAccuracyPinned pins exact mapping outcomes for a fixed read set
// per Table 1 class on one fixed genome, so a seeding or filtering
// change cannot trade recall silently: any drift in correct, wrong or
// unmapped reads — or in the candidate and alignment totals behind
// them — fails here and must be re-pinned on purpose.
func TestAccuracyPinned(t *testing.T) {
	ref := testGenome(t, 120_000, 401)
	eng, err := New(ref, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]accuracy{
		readsim.PacBio.Name: {Correct: 60, Wrong: 0, Unmapped: 0, Candidates: 359, Alignments: 185},
		readsim.ONT2D.Name:  {Correct: 58, Wrong: 0, Unmapped: 2, Candidates: 94, Alignments: 61},
		readsim.ONT1D.Name:  {Correct: 34, Wrong: 0, Unmapped: 26, Candidates: 54, Alignments: 37},
	}
	for i, p := range readsim.Profiles {
		reads, err := readsim.SimulateN(ref, 60, readsim.Config{Profile: p, MeanLen: 2000, LenSpread: 0.1, Seed: 402 + int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		seqs := make([]dna.Seq, len(reads))
		for j := range reads {
			seqs[j] = reads[j].Seq
		}
		results, err := eng.Map(context.Background(), seqs, WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		var got accuracy
		for j, res := range results {
			if res.Err != nil {
				t.Fatalf("%s read %d: %v", p.Name, j, res.Err)
			}
			got.Candidates += res.Stats.Candidates
			got.Alignments += len(res.Alignments)
			r := &reads[j]
			switch best := Best(res.Alignments); {
			case best == nil:
				got.Unmapped++
			case best.Reverse == r.Reverse && best.Result.RefStart >= r.RefStart-50 && best.Result.RefEnd <= r.RefEnd+50:
				got.Correct++
			default:
				got.Wrong++
			}
		}
		if got != want[p.Name] {
			t.Errorf("%s: got %+v, pinned %+v", p.Name, got, want[p.Name])
		}
	}
}
