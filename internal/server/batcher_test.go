package server

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/readsim"
)

func testReads(t *testing.T, entry *IndexEntry, n int, seed int64) []dna.Seq {
	t.Helper()
	reads, err := readsim.SimulateN(entry.Engine.Ref(), n, readsim.Config{
		Profile: readsim.PacBio, MeanLen: 800, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([]dna.Seq, len(reads))
	for i := range reads {
		seqs[i] = reads[i].Seq
	}
	return seqs
}

// TestBatcherResultsMatchDirectMapping: jobs submitted through the
// batcher return exactly what mapping their reads directly would.
func TestBatcherResultsMatchDirectMapping(t *testing.T) {
	entry := testEntry(t, "k", 51, 60000)
	reads := testReads(t, entry, 12, 52)

	b := NewBatcher(BatcherConfig{MaxBatchReads: 8, MaxWait: time.Millisecond, QueueBound: 64, Executors: 2})
	b.Start()
	defer b.Drain(context.Background())

	// Three jobs of four reads each, coalesced arbitrarily.
	jobs := make([]*Job, 3)
	for i := range jobs {
		j, err := b.Submit(context.Background(), entry, reads[i*4:(i+1)*4], false)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	direct, err := entry.Engine.Map(context.Background(), reads, core.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		res := j.Wait()
		if res.Err != nil {
			t.Fatalf("job %d: %v", i, res.Err)
		}
		if len(res.Results) != 4 {
			t.Fatalf("job %d: %d results, want 4", i, len(res.Results))
		}
		for k, mr := range res.Results {
			if mr.Index != k {
				t.Errorf("job %d result %d: index %d not re-based to job order", i, k, mr.Index)
			}
			want := direct[i*4+k].Alignments
			if !reflect.DeepEqual(mr.Alignments, want) {
				t.Errorf("job %d read %d: batched alignments differ from direct mapping", i, k)
			}
		}
	}
}

// TestBatcherQueueBound: with no dispatcher running, Submit admits
// exactly QueueBound jobs then rejects with ErrQueueFull.
func TestBatcherQueueBound(t *testing.T) {
	entry := testEntry(t, "k", 53, 20000)
	read := dna.Random(rand.New(rand.NewSource(54)), 500, 0.5)
	b := NewBatcher(BatcherConfig{QueueBound: 2}) // not started
	for i := 0; i < 2; i++ {
		if _, err := b.Submit(context.Background(), entry, []dna.Seq{read}, false); err != nil {
			t.Fatalf("Submit %d within bound: %v", i, err)
		}
	}
	if _, err := b.Submit(context.Background(), entry, []dna.Seq{read}, false); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit past bound = %v, want ErrQueueFull", err)
	}
}

// TestBatcherDrainFlushesInFlight: every job admitted before Drain is
// answered (zero dropped), and Submit after Drain returns ErrDraining.
func TestBatcherDrainFlushesInFlight(t *testing.T) {
	entry := testEntry(t, "k", 55, 60000)
	reads := testReads(t, entry, 8, 56)

	// A long MaxWait guarantees the jobs are still pending coalescing
	// when Drain is called — the flush must come from the drain path.
	b := NewBatcher(BatcherConfig{MaxBatchReads: 1024, MaxWait: time.Hour, QueueBound: 64, Executors: 2})
	b.Start()
	jobs := make([]*Job, len(reads))
	for i := range reads {
		j, err := b.Submit(context.Background(), entry, reads[i:i+1], false)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := b.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for i, j := range jobs {
		select {
		case res := <-j.resp:
			if res.Err != nil {
				t.Errorf("job %d: drained with error %v", i, res.Err)
			}
			if len(res.Results) != 1 {
				t.Errorf("job %d: %d results, want 1", i, len(res.Results))
			}
		default:
			t.Errorf("job %d: dropped during drain (no response)", i)
		}
	}
	if _, err := b.Submit(context.Background(), entry, reads[:1], false); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit after Drain = %v, want ErrDraining", err)
	}
	// Drain is idempotent.
	if err := b.Drain(context.Background()); err != nil {
		t.Fatalf("second Drain: %v", err)
	}
}

// TestBatcherCancelledJobSkipped: a job whose context is already dead
// when its batch executes gets a context error, not wasted mapping.
func TestBatcherCancelledJobSkipped(t *testing.T) {
	entry := testEntry(t, "k", 57, 60000)
	reads := testReads(t, entry, 2, 58)

	b := NewBatcher(BatcherConfig{MaxBatchReads: 1024, MaxWait: 50 * time.Millisecond, QueueBound: 8, Executors: 1})
	b.Start()
	defer b.Drain(context.Background())

	cancelled, cancel := context.WithCancel(context.Background())
	cancel() // dead before the batch ever runs
	jDead, err := b.Submit(cancelled, entry, reads[:1], false)
	if err != nil {
		t.Fatal(err)
	}
	jLive, err := b.Submit(context.Background(), entry, reads[1:], false)
	if err != nil {
		t.Fatal(err)
	}
	if res := jDead.Wait(); !errors.Is(res.Err, context.Canceled) {
		t.Errorf("cancelled job result = %v, want context.Canceled", res.Err)
	}
	if res := jLive.Wait(); res.Err != nil || len(res.Results) != 1 {
		t.Errorf("live job in the same batch: err=%v results=%d, want success", res.Err, len(res.Results))
	}
}
