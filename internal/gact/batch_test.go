package gact

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"darwin/internal/align"
	"darwin/internal/dna"
	"darwin/internal/faults"
	"darwin/internal/genome"
	"darwin/internal/obs"
	"darwin/internal/readsim"
)

// batchRun is what one engine's pass over a candidate list leaves that
// a caller or an operator can see: the outcomes, the engine's kernel
// stats, the registry's counter and histogram deltas, the read span's
// attributes and its children (name and attributes), and the fault
// point's fire count.
type batchRun struct {
	out      []Outcome
	ks       align.KernelStats
	counters map[string]int64
	hists    map[string]obs.HistogramSnapshot
	attrs    map[string]int64
	children []string
	fires    int64
}

// runCandidates extends cands on a fresh engine for cfg, through
// ExtendBatch or a loop of Extend, with the gact/extend fault point
// armed by spec ("" for none).
func runCandidates(t *testing.T, cfg *Config, cands []Candidate, batch bool, spec string) batchRun {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp := obs.NewRequestSpan("batch-test", "read")
	e.SetSpan(sp)
	if spec != "" {
		if err := faults.Default.Enable(spec); err != nil {
			t.Fatal(err)
		}
		defer faults.Default.Reset()
	}
	before := obs.Default.Snapshot()
	out := make([]Outcome, len(cands))
	if batch {
		e.ExtendBatch(cands, out)
	} else {
		for k, c := range cands {
			out[k].Res, out[k].Stats, out[k].Err = e.Extend(c.R, c.Q, c.ISeed, c.JSeed)
		}
	}
	d := obs.Default.Snapshot().Sub(before)
	run := batchRun{out: out, ks: e.KernelStats(), counters: d.Counters, attrs: map[string]int64{}}
	run.fires = faults.Default.Point("gact/extend").Fires()
	run.hists = map[string]obs.HistogramSnapshot{}
	for name, h := range d.Histograms {
		if strings.HasPrefix(name, "gact/") {
			run.hists[name] = h
		}
	}
	sp.End()
	snap := sp.Snapshot()
	run.attrs = snap.Attrs
	for _, c := range snap.Children {
		run.children = append(run.children, fmt.Sprintf("%s %v", c.Name, c.Attrs))
	}
	return run
}

// TestExtendBatchFollowsRejectShare: a chunk is batched only when the
// engine's reject share so far predicts minBatch rejects in it. An
// engine warmed up on true anchors (mostly accepted) runs a full chunk
// one candidate at a time, with no ScoreFirstTiles call (one
// gact/first_tile interval per candidate); one warmed up on random
// anchors (rejected) batches it (one interval for the batch, one per lane it
// accepts). Either way the outcomes are a loop of Extend's.
func TestExtendBatchFollowsRejectShare(t *testing.T) {
	g, err := genome.Generate(genome.Config{Length: 20000, GC: 0.5, Seed: 50})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := readsim.SimulateN(g.Seq, 1, readsim.Config{Profile: readsim.ONT1D, MeanLen: 3000, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	ref, fwd, trueI := g.Seq, reads[0].Seq, reads[0].RefStart
	if reads[0].Reverse {
		ref, trueI = dna.RevComp(g.Seq), len(g.Seq)-reads[0].RefEnd
	}
	cfg := DefaultConfig()
	cfg.MinFirstTile = 90
	rng := rand.New(rand.NewSource(53))
	cands := batchCandidates(rng, ref, fwd, trueI, align.BatchLanes)
	want := runCandidates(t, &cfg, cands, false, "")
	for _, warmAccepts := range []bool{true, false} {
		e, err := NewEngine(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !e.ta.FirstTileBatchOK(cfg.MinFirstTile) {
			t.Skip("no first-tile batch on this build or CPU")
		}
		for k := 0; k < 10; k++ {
			j := rng.Intn(len(fwd) / 2)
			c := Candidate{R: ref, Q: fwd, ISeed: trueI + j, JSeed: j}
			if !warmAccepts {
				c.ISeed, c.JSeed = rng.Intn(len(ref)), rng.Intn(len(fwd))
			}
			if _, _, err := e.Extend(c.R, c.Q, c.ISeed, c.JSeed); err != nil {
				t.Fatal(err)
			}
		}
		if e.batchPays(len(cands)) == warmAccepts {
			t.Fatalf("warm-up left %d rejects of %d first tiles", e.rejects, e.firstTiles)
		}
		before := obs.Default.Snapshot()
		out := make([]Outcome, len(cands))
		e.ExtendBatch(cands, out)
		tiles := obs.Default.Snapshot().Sub(before).Timers["gact/first_tile"].Count
		decided, accepted := 0, 0
		for k, o := range out {
			w := want.out[k]
			if fmt.Sprint(o.Err) != fmt.Sprint(w.Err) || o.Stats != w.Stats || !reflect.DeepEqual(o.Res, w.Res) {
				t.Fatalf("warm accepts %v: candidate %d differs from Extend", warmAccepts, k)
			}
			if o.Err == nil {
				decided++
			}
			if o.Res != nil {
				accepted++
			}
		}
		if accepted == 0 || accepted == decided {
			t.Fatalf("chunk accepted %d of %d candidates: want some of each", accepted, decided)
		}
		wantTiles := int64(decided) // one Extend per candidate
		if !warmAccepts {
			wantTiles = int64(1 + accepted) // the batch, then Extend per accepted lane
		}
		if tiles != wantTiles {
			t.Errorf("warm accepts %v: %d gact/first_tile intervals, want %d", warmAccepts, tiles, wantTiles)
		}
	}
}

// batchCandidates draws size candidates over both strands of a read
// against ref: true anchors (accepted first tiles) and random ones
// (rejected), anchors whose first tile is clipped at the end of R or
// of Q, anchors outside R × Q, N-rich query windows, and, as the
// overlap path cuts them, candidates on a window of ref whose anchor is
// relative to the window.
func batchCandidates(rng *rand.Rand, ref, fwd dna.Seq, trueI int, size int) []Candidate {
	rev := dna.RevComp(fwd)
	nRich := append(dna.Seq(nil), fwd...)
	for i := range nRich {
		if rng.Intn(4) == 0 {
			nRich[i] = 'N'
		}
	}
	cands := make([]Candidate, size)
	for k := range cands {
		q := fwd
		switch rng.Intn(6) {
		case 0:
			q = rev
		case 1:
			q = nRich
		}
		c := Candidate{R: ref, Q: q, ISeed: rng.Intn(len(ref)), JSeed: rng.Intn(len(q))}
		switch rng.Intn(8) {
		case 0, 1: // a true anchor
			j := rng.Intn(len(fwd) / 2)
			c.Q, c.ISeed, c.JSeed = fwd, trueI+j, j
		case 2: // clipped at R's end
			c.ISeed = len(ref) - 1 - rng.Intn(300)
		case 3: // clipped at Q's end
			c.JSeed = len(q) - 1 - rng.Intn(300)
		case 4: // outside R × Q
			c.ISeed = len(ref) + rng.Intn(3)
		case 5: // a window of ref, anchored inside it
			lo := max(0, c.ISeed-rng.Intn(500))
			hi := min(len(ref), c.ISeed+1+rng.Intn(500))
			c.R, c.ISeed = ref[lo:hi], c.ISeed-lo
		}
		cands[k] = c
	}
	return cands
}

// ExtendBatch is a loop of Extend, field for field: over ragged batches
// of 1–70 candidates (one chunk just below the crossover and one at it,
// a full chunk, two batched chunks, a full chunk and a tail), under h_tile thresholds the batch
// takes and ones it must leave to Extend, with and without an armed
// every= fault spec on gact/extend (the same candidates must drop).
// Registry timers are the one thing allowed to differ: a batch is one
// interval of stage/align and gact/first_tile.
func TestExtendBatchMatchesExtend(t *testing.T) {
	g, err := genome.Generate(genome.Config{Length: 20000, GC: 0.5, Seed: 50})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := readsim.SimulateN(g.Seq, 1, readsim.Config{Profile: readsim.ONT1D, MeanLen: 3000, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	ref, fwd, trueI := g.Seq, reads[0].Seq, reads[0].RefStart
	if reads[0].Reverse {
		ref, trueI = dna.RevComp(g.Seq), len(g.Seq)-reads[0].RefEnd
	}
	rng := rand.New(rand.NewSource(52))
	// Candidates of chunks the batch scored, accepted and rejected.
	var accepted, rejected int
	for _, hTile := range []int{90, 25, 0, 200} {
		for _, spec := range []string{"", "gact/extend=every=3,error"} {
			for _, size := range []int{1, minBatch - 1, minBatch, 31, 32, 33, 32 + minBatch, 64, 70} {
				cfg := DefaultConfig()
				cfg.MinFirstTile = hTile
				cands := batchCandidates(rng, ref, fwd, trueI, size)
				want := runCandidates(t, &cfg, cands, false, spec)
				got := runCandidates(t, &cfg, cands, true, spec)
				label := fmt.Sprintf("h_tile %d, %d candidates, faults %q", hTile, size, spec)
				for k := range cands {
					w, g := want.out[k], got.out[k]
					if fmt.Sprint(g.Err) != fmt.Sprint(w.Err) || g.Stats != w.Stats || !reflect.DeepEqual(g.Res, w.Res) {
						t.Fatalf("%s: candidate %d: ExtendBatch (%v, %+v, %v), Extend (%v, %+v, %v)",
							label, k, g.Res, g.Stats, g.Err, w.Res, w.Stats, w.Err)
					}
				}
				if hTile == 90 && size >= minBatch {
					for _, o := range got.out {
						if o.Res != nil {
							accepted++
						} else if o.Err == nil {
							rejected++
						}
					}
				}
				if got.ks != want.ks {
					t.Errorf("%s: kernel stats %+v, want %+v", label, got.ks, want.ks)
				}
				if !reflect.DeepEqual(got.counters, want.counters) {
					t.Errorf("%s: counter deltas %v, want %v", label, got.counters, want.counters)
				}
				if !reflect.DeepEqual(got.hists, want.hists) {
					t.Errorf("%s: histogram deltas %v, want %v", label, got.hists, want.hists)
				}
				if !reflect.DeepEqual(got.attrs, want.attrs) || !reflect.DeepEqual(got.children, want.children) {
					t.Errorf("%s: span attrs %v children %v, want %v %v", label, got.attrs, got.children, want.attrs, want.children)
				}
				if got.fires != want.fires {
					t.Errorf("%s: gact/extend fired %d times, want %d", label, got.fires, want.fires)
				}
			}
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Errorf("batched chunks accepted %d and rejected %d candidates: want both", accepted, rejected)
	}
}
