package core

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"darwin/internal/dna"
	"darwin/internal/readsim"
)

func simReads(t *testing.T, ref dna.Seq, n int, seed int64) []dna.Seq {
	t.Helper()
	reads, err := readsim.SimulateN(ref, n, readsim.Config{Profile: readsim.PacBio, MeanLen: 1500, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([]dna.Seq, len(reads))
	for i := range reads {
		seqs[i] = reads[i].Seq
	}
	return seqs
}

// TestMapDefaultsWorkers: workers <= 0 must behave like a sensible
// parallel run (one worker per CPU), not zero workers — and produce
// the same results as an explicit single worker.
func TestMapDefaultsWorkers(t *testing.T) {
	ref := testGenome(t, 80000, 311)
	d, err := New(ref, DefaultConfig(11, 400, 18))
	if err != nil {
		t.Fatal(err)
	}
	seqs := simReads(t, ref, 12, 312)
	want, err := d.Map(context.Background(), seqs, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, -3} {
		got, err := d.Map(context.Background(), seqs, WithWorkers(workers))
		if err != nil {
			t.Fatalf("Map(workers=%d): %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("Map(workers=%d): %d results, want %d", workers, len(got), len(want))
		}
		for i := range got {
			a, b := Best(got[i].Alignments), Best(want[i].Alignments)
			switch {
			case a == nil && b == nil:
			case a == nil || b == nil:
				t.Fatalf("workers=%d read %d: mapped-ness differs", workers, i)
			case a.Result.Score != b.Result.Score || a.Result.RefStart != b.Result.RefStart:
				t.Fatalf("workers=%d read %d: results differ", workers, i)
			}
		}
		wantWorkers := min(DefaultWorkers(workers), len(seqs))
		if g := gWorkers.Value(); g != int64(wantWorkers) {
			t.Errorf("workers=%d: core/workers gauge = %d, want %d", workers, g, wantWorkers)
		}
	}
}

// TestMapContextCancelled: an already-cancelled context returns
// immediately with context.Canceled from both the inline and the
// worker-pool paths.
func TestMapContextCancelled(t *testing.T) {
	ref := testGenome(t, 60000, 313)
	d, err := New(ref, DefaultConfig(11, 400, 18))
	if err != nil {
		t.Fatal(err)
	}
	seqs := simReads(t, ref, 8, 314)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		if _, err := d.Map(ctx, seqs, WithWorkers(workers)); !errors.Is(err, context.Canceled) {
			t.Errorf("Map(cancelled, workers=%d) = %v, want context.Canceled", workers, err)
		}
	}
}

// TestMapContextMidwayCancel cancels after the first read completes
// and asserts the call reports the cancellation instead of mapping the
// whole set.
func TestMapContextMidwayCancel(t *testing.T) {
	ref := testGenome(t, 60000, 315)
	d, err := New(ref, DefaultConfig(11, 400, 18))
	if err != nil {
		t.Fatal(err)
	}
	seqs := simReads(t, ref, 64, 316)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Cancel as soon as the engine has mapped at least one read.
		base := obs_coreReads()
		for obs_coreReads() == base {
			runtime.Gosched()
		}
		cancel()
	}()
	_, err = d.Map(ctx, seqs, WithWorkers(2))
	<-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Map after midway cancel = %v, want context.Canceled", err)
	}
}

// obs_coreReads reads the pipeline's read counter (test helper).
func obs_coreReads() int64 { return cReads.Value() }
