package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"darwin/internal/dna"
	"darwin/internal/readsim"
)

// stripTimes zeroes the wall-clock fields so stats compare on work
// counts alone (timings are nondeterministic by nature).
func stripTimes(s MapStats) MapStats {
	s.FiltrationTime, s.AlignmentTime = 0, 0
	return s
}

// TestMapWorkerCountInvariance maps one read set with 1 and 8
// workers and asserts bit-identical alignments and per-read stats —
// under `go test -race` this also exercises the cloned-engine and
// registry instrumentation paths for data races.
func TestMapWorkerCountInvariance(t *testing.T) {
	ref := testGenome(t, 120000, 227)
	d, err := New(ref, DefaultConfig(11, 500, 20))
	if err != nil {
		t.Fatal(err)
	}
	reads, err := readsim.SimulateN(ref, 16, readsim.Config{Profile: readsim.PacBio, MeanLen: 1500, Seed: 228})
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([]dna.Seq, len(reads))
	for i := range reads {
		seqs[i] = reads[i].Seq
	}

	serial, err := d.Map(context.Background(), seqs, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := d.Map(context.Background(), seqs, WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(parallel))
	}

	var aggSerial, aggParallel MapStats
	for i := range serial {
		if !reflect.DeepEqual(serial[i].Alignments, parallel[i].Alignments) {
			t.Errorf("read %d: alignments differ between 1 and 8 workers", i)
		}
		if !reflect.DeepEqual(stripTimes(serial[i].Stats), stripTimes(parallel[i].Stats)) {
			t.Errorf("read %d: stats differ between 1 and 8 workers:\n  %+v\nvs\n  %+v",
				i, stripTimes(serial[i].Stats), stripTimes(parallel[i].Stats))
		}
		aggSerial.Add(serial[i].Stats)
		aggParallel.Add(parallel[i].Stats)
	}
	if !reflect.DeepEqual(stripTimes(aggSerial), stripTimes(aggParallel)) {
		t.Errorf("aggregated stats differ:\n  %+v\nvs\n  %+v", stripTimes(aggSerial), stripTimes(aggParallel))
	}
	if aggSerial.Tiles == 0 || aggSerial.Cells == 0 {
		t.Error("aggregated stats empty — instrumentation lost")
	}
}

// TestClonePerWorkerConcurrentUse exercises the serving pattern: a
// shared warm engine, one long-lived clone per worker, and concurrent
// MapRead traffic interleaved across all clones (the index cache +
// pooled-clone layout of internal/server). Each read's alignments
// and work counts must be byte-identical to mapping it serially on
// the original engine — under `go test -race` this also proves the
// clones share no mutable state.
func TestClonePerWorkerConcurrentUse(t *testing.T) {
	ref := testGenome(t, 100000, 331)
	d, err := New(ref, DefaultConfig(11, 500, 20))
	if err != nil {
		t.Fatal(err)
	}
	reads, err := readsim.SimulateN(ref, 24, readsim.Config{Profile: readsim.PacBio, MeanLen: 1200, Seed: 332})
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([]dna.Seq, len(reads))
	for i := range reads {
		seqs[i] = reads[i].Seq
	}

	serialAlns := make([][]ReadAlignment, len(seqs))
	serialStats := make([]MapStats, len(seqs))
	for i, q := range seqs {
		serialAlns[i], serialStats[i] = d.MapRead(q)
	}

	const workers = 6
	gotAlns := make([][]ReadAlignment, len(seqs))
	gotStats := make([]MapStats, len(seqs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		clone, err := d.Clone()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(e *Darwin) {
			defer wg.Done()
			for i := range next {
				// Each clone maps several reads back to back, like a
				// pooled clone serving successive requests.
				gotAlns[i], gotStats[i] = e.MapRead(seqs[i])
			}
		}(clone)
	}
	for i := range seqs {
		next <- i
	}
	close(next)
	wg.Wait()

	for i := range seqs {
		if !reflect.DeepEqual(serialAlns[i], gotAlns[i]) {
			t.Errorf("read %d: alignments differ between serial engine and concurrent clones", i)
		}
		if !reflect.DeepEqual(stripTimes(serialStats[i]), stripTimes(gotStats[i])) {
			t.Errorf("read %d: stats differ between serial engine and concurrent clones:\n  %+v\nvs\n  %+v",
				i, stripTimes(serialStats[i]), stripTimes(gotStats[i]))
		}
	}
}
