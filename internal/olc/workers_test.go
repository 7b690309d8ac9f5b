package olc

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"darwin/internal/core"
	"darwin/internal/faults"
)

// TestAssembleCancelResumeAcrossWorkerCounts: a pass cancelled after
// any number of merged reads and resumed with a different worker count
// ends with the overlaps and contigs of an uninterrupted one-worker
// run.
func TestAssembleCancelResumeAcrossWorkerCounts(t *testing.T) {
	seqs := testReads(t, 25000, 40)
	cfg := core.DefaultConfig(11, 500, 20)
	cfg.SeedStride = 2
	ovp, err := core.NewOverlapper(seqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := []Option{WithConfig(cfg), WithMinOverlap(1000), WithPolishRounds(0), WithOverlapper(ovp)}
	full, err := Assemble(context.Background(), seqs, append(opts, WithWorkers(1))...)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Overlaps) == 0 || len(full.Contigs) == 0 {
		t.Fatalf("test setup: %d overlaps, %d contigs", len(full.Overlaps), len(full.Contigs))
	}

	rng := rand.New(rand.NewSource(7))
	counts := []int{1, 2, 3, 8}
	for trial := 0; trial < 10; trial++ {
		boundary := 1 + rng.Intn(len(seqs)-1)
		a := rng.Intn(len(counts))
		first, second := counts[a], counts[(a+1+rng.Intn(len(counts)-1))%len(counts)]
		ctx, cancel := context.WithCancel(context.Background())
		var last *core.OverlapCheckpoint
		_, err := Assemble(ctx, seqs, append(opts, WithWorkers(first),
			WithProgress(func(stage string, done, _ int) {
				if stage == "overlap" && done == boundary {
					cancel()
				}
			}),
			WithCheckpoint(0, nil, func(c core.OverlapCheckpoint) error {
				last = &c
				return nil
			}))...)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("boundary %d: err = %v, want context.Canceled", boundary, err)
		}
		if last == nil || last.NextRead != boundary {
			t.Fatalf("boundary %d: cancellation checkpoint %+v", boundary, last)
		}
		resumed, err := Assemble(context.Background(), seqs,
			append(opts, WithWorkers(second), WithCheckpoint(0, last, nil))...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resumed.Overlaps, full.Overlaps) {
			t.Errorf("boundary %d, workers %d then %d: overlaps differ from the uninterrupted run", boundary, first, second)
		}
		if !contigsEqual(resumed.Contigs, full.Contigs) {
			t.Errorf("boundary %d, workers %d then %d: contigs differ from the uninterrupted run", boundary, first, second)
		}
	}
}

// TestPolishWorkerCountInvariance: votes are integer counts folded in
// read order, so the polished sequence is the same on one engine or
// several. The read set spans more than one pileupBatch.
func TestPolishWorkerCountInvariance(t *testing.T) {
	seqs := testReads(t, 6000, pileupBatch+8)
	cfg := testConfig()
	draft := seqs[0] // a raw read: ~80 others cover it and out-vote its errors
	want, err := PolishContext(context.Background(), draft, seqs, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(want, draft) {
		t.Fatal("test setup: polishing changed nothing")
	}
	got, err := PolishContext(context.Background(), draft, seqs, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("workers=3: polished sequence differs from workers=1")
	}
}

// TestPolishSurfacesReadFailure: a read that fails to map fails the
// polish; its votes are not silently dropped.
func TestPolishSurfacesReadFailure(t *testing.T) {
	defer faults.Default.Reset()
	seqs := testReads(t, 6000, 12)
	for _, workers := range []int{1, 3} {
		if err := faults.Default.Enable("core/map_read=after=5,times=1,error=bad read"); err != nil {
			t.Fatal(err)
		}
		_, err := PolishContext(context.Background(), seqs[0], seqs, testConfig(), workers)
		faults.Default.Reset()
		if !faults.IsInjected(err) {
			t.Errorf("workers=%d: err = %v, want the injected read failure", workers, err)
		}
	}
}
