package core

import (
	"context"
	"reflect"
	"testing"

	"darwin/internal/dna"
	"darwin/internal/readsim"
)

func TestMapMatchesSequential(t *testing.T) {
	ref := testGenome(t, 150000, 191)
	d, err := New(ref, DefaultConfig(11, 600, 20))
	if err != nil {
		t.Fatal(err)
	}
	reads, err := readsim.SimulateN(ref, 12, readsim.Config{Profile: readsim.PacBio, MeanLen: 2000, Seed: 192})
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([]dna.Seq, len(reads))
	for i := range reads {
		seqs[i] = reads[i].Seq
	}
	seq, err := d.Map(context.Background(), seqs, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := d.Map(context.Background(), seqs, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("result counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if par[i].Index != i {
			t.Fatalf("result %d out of order (index %d)", i, par[i].Index)
		}
		a, b := Best(seq[i].Alignments), Best(par[i].Alignments)
		switch {
		case a == nil && b == nil:
		case a == nil || b == nil:
			t.Fatalf("read %d: mapped-ness differs between sequential and parallel", i)
		case a.Result.Score != b.Result.Score || a.Result.RefStart != b.Result.RefStart:
			t.Fatalf("read %d: results differ: %+v vs %+v", i, a.Result, b.Result)
		}
		if seq[i].Stats.DSOFT.Hits != par[i].Stats.DSOFT.Hits {
			t.Fatalf("read %d: stats differ", i)
		}
	}
}

// TestMapDeterministicOrdering is the tie-breaking regression test:
// a read matching two identical reference copies produces equal-score
// alignments, whose order must be bit-stable across worker counts
// (SortAlignments breaks score ties on reference span, query span,
// then strand — a plain score sort left them in scheduling order).
func TestMapDeterministicOrdering(t *testing.T) {
	ref := testGenome(t, 60000, 195)
	// Plant an exact duplicate so equal-score ties actually occur.
	copy(ref[40000:43000], ref[10000:13000])
	d, err := New(ref, DefaultConfig(11, 600, 20))
	if err != nil {
		t.Fatal(err)
	}
	reads := []dna.Seq{
		ref[10200:12800].Clone(),
		dna.RevComp(ref[10200:12800]),
		ref[40500:42500].Clone(),
		ref[5000:7000].Clone(),
	}
	var baseline []MapResult
	sawTie := false
	for _, workers := range []int{1, 2, 4} {
		res, err := d.Map(context.Background(), reads, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for i := range res {
			alns := res[i].Alignments
			for j := 1; j < len(alns); j++ {
				prev, cur := &alns[j-1], &alns[j]
				if prev.Result.Score < cur.Result.Score {
					t.Fatalf("workers=%d read %d: scores out of order at %d", workers, i, j)
				}
				if prev.Result.Score == cur.Result.Score {
					sawTie = true
					if prev.Result.RefStart > cur.Result.RefStart {
						t.Fatalf("workers=%d read %d: equal-score tie not broken by RefStart", workers, i)
					}
				}
			}
		}
		if baseline == nil {
			baseline = res
			continue
		}
		for i := range res {
			// Alignments must be bit-identical; stats are compared on
			// their deterministic work counts (stage times vary by run).
			if !reflect.DeepEqual(res[i].Alignments, baseline[i].Alignments) {
				t.Fatalf("workers=%d read %d: alignments differ from single-worker baseline", workers, i)
			}
			if res[i].Stats.Candidates != baseline[i].Stats.Candidates ||
				res[i].Stats.Tiles != baseline[i].Stats.Tiles {
				t.Fatalf("workers=%d read %d: work stats differ from single-worker baseline", workers, i)
			}
		}
	}
	if !sawTie {
		t.Fatal("duplicate region produced no equal-score alignments; test is vacuous")
	}
}

func TestCloneIndependentState(t *testing.T) {
	ref := testGenome(t, 50000, 193)
	d, err := New(ref, DefaultConfig(11, 400, 18))
	if err != nil {
		t.Fatal(err)
	}
	c, err := d.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if c.Table() != d.Table() {
		t.Error("clone should share the seed table")
	}
	// Interleaved queries on both engines must match fresh queries.
	q1 := ref[1000:3000].Clone()
	q2 := ref[20000:22000].Clone()
	a1, _ := d.MapRead(q1)
	b1, _ := c.MapRead(q2)
	a2, _ := d.MapRead(q1)
	b2, _ := c.MapRead(q2)
	if Best(a1).Result.Score != Best(a2).Result.Score {
		t.Error("original engine state leaked across queries")
	}
	if Best(b1).Result.Score != Best(b2).Result.Score {
		t.Error("cloned engine state leaked across queries")
	}
}
