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

// TestPooledWorkersCarryNoState interleaves single-read calls with a
// four-worker Map that grows the engine's pool: a query must map the
// same whichever pooled worker runs it, and whatever ran there before.
func TestPooledWorkersCarryNoState(t *testing.T) {
	ref := testGenome(t, 50000, 193)
	d, err := New(ref, DefaultConfig(11, 400, 18))
	if err != nil {
		t.Fatal(err)
	}
	q1 := ref[1000:3000].Clone()
	q2 := ref[20000:22000].Clone()
	a1, _ := d.MapRead(q1)
	b1, _ := d.MapRead(q2)
	res, err := d.Map(context.Background(), []dna.Seq{q2, q1, q2, q1}, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := d.MapRead(q1)
	b2, _ := d.MapRead(q2)
	for _, c := range []struct {
		name      string
		got, want []ReadAlignment
	}{
		{"q1 after a batch", a2, a1},
		{"q2 after a batch", b2, b1},
		{"q1 in the batch", res[1].Alignments, a1},
		{"q2 in the batch", res[2].Alignments, b1},
	} {
		if len(c.want) == 0 || !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s: %d alignments differ from the first query's %d", c.name, len(c.got), len(c.want))
		}
	}
}
