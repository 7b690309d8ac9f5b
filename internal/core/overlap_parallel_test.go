package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"

	"darwin/internal/dna"
)

// overlapTestSet is a 64-read set over a small genome, dense enough
// that most reads overlap several others on both strands.
func overlapTestSet(t *testing.T) (*Overlapper, []dna.Seq) {
	t.Helper()
	ref := testGenome(t, 32000, 811)
	seqs := simReads(t, ref, 64, 812)
	cfg := DefaultConfig(11, 600, 20)
	cfg.SeedStride = 2
	ov, err := NewOverlapper(seqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ov, seqs
}

// TestOverlapRunWorkerCountInvariance: overlaps, work counters, the
// first-tile score sequence and every checkpoint handed to Save are the
// same for any worker count — the ordered merge is the serial fold.
func TestOverlapRunWorkerCountInvariance(t *testing.T) {
	ov, _ := overlapTestSet(t)
	type pass struct {
		overlaps []Overlap
		stats    MapStats
		ckpts    []OverlapCheckpoint
	}
	run := func(workers int) pass {
		var p pass
		out, st, err := ov.Run(context.Background(), OverlapRun{
			MinOverlap:      400,
			Workers:         workers,
			CheckpointEvery: 5,
			Save: func(c OverlapCheckpoint) error {
				p.ckpts = append(p.ckpts, c)
				return nil
			},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		p.overlaps, p.stats = out, stripTimes(st.Map)
		return p
	}
	want := run(1)
	if len(want.overlaps) == 0 || len(want.ckpts) != 12 {
		t.Fatalf("test setup: %d overlaps, %d checkpoints", len(want.overlaps), len(want.ckpts))
	}
	for _, workers := range []int{2, 3, 8} {
		got := run(workers)
		if !reflect.DeepEqual(got.overlaps, want.overlaps) {
			t.Errorf("workers=%d: overlaps differ from workers=1", workers)
		}
		if !reflect.DeepEqual(got.stats, want.stats) {
			t.Errorf("workers=%d: stats differ from workers=1:\n got %+v\nwant %+v", workers, got.stats, want.stats)
		}
		if !reflect.DeepEqual(got.ckpts, want.ckpts) {
			t.Errorf("workers=%d: checkpoint sequence differs from workers=1", workers)
		}
		if g := gOverlapWorkers.Value(); g != int64(workers) {
			t.Errorf("overlap/workers gauge = %d, want %d", g, workers)
		}
	}
}

// goid returns the calling goroutine's id, read off its stack header.
func goid() int {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, _ := strconv.Atoi(string(buf[:bytes.IndexByte(buf, ' ')]))
	return id
}

// TestOverlapRunCallbacksOnCallerGoroutine: Progress and Save run on
// the goroutine that called Run (callers' callbacks need no locking),
// and Progress counts 1..n with no gaps or repeats.
func TestOverlapRunCallbacksOnCallerGoroutine(t *testing.T) {
	ov, seqs := overlapTestSet(t)
	caller := goid()
	var calls []int
	_, _, err := ov.Run(context.Background(), OverlapRun{
		MinOverlap:      400,
		Workers:         4,
		CheckpointEvery: 16,
		Save: func(OverlapCheckpoint) error {
			if g := goid(); g != caller {
				t.Errorf("Save ran on goroutine %d, Run was called on %d", g, caller)
			}
			return nil
		},
		Progress: func(done, total int) {
			if g := goid(); g != caller {
				t.Errorf("Progress ran on goroutine %d, Run was called on %d", g, caller)
			}
			if total != len(seqs) {
				t.Errorf("Progress total = %d, want %d", total, len(seqs))
			}
			calls = append(calls, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != len(seqs) {
		t.Fatalf("%d Progress calls, want %d", len(calls), len(seqs))
	}
	for i, done := range calls {
		if done != i+1 {
			t.Fatalf("Progress call %d reported done=%d", i, done)
		}
	}
}

// waitGoroutines waits for the goroutine count to fall back to base:
// a goroutine that has returned may take a moment to be uncounted.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after Run returned, %d before it was called", n, base)
	}
}

// TestOverlapRunEarlyExits: a failed periodic Save and a cancelled
// context both stop the workers promptly, leave no goroutine behind,
// still count the overlaps returned, and report errors a caller can
// tell apart.
func TestOverlapRunEarlyExits(t *testing.T) {
	ov, _ := overlapTestSet(t)
	errDisk := errors.New("disk full")
	const stopAt = 24

	t.Run("save error", func(t *testing.T) {
		base, found := runtime.NumGoroutine(), cOverlapsOut.Value()
		start := time.Now()
		var failed time.Time
		out, _, err := ov.Run(context.Background(), OverlapRun{
			MinOverlap: 400, Workers: 4, CheckpointEvery: stopAt,
			Save: func(c OverlapCheckpoint) error {
				if c.NextRead != stopAt {
					t.Errorf("first checkpoint at read %d, want %d", c.NextRead, stopAt)
				}
				failed = time.Now()
				return errDisk
			},
		})
		stopping, before := time.Since(failed), failed.Sub(start)
		if !errors.Is(err, errDisk) {
			t.Fatalf("err = %v, want the Save error", err)
		}
		// One read's pass at most is in flight per worker when Save
		// fails; stopAt reads had been merged by then.
		if stopping > before {
			t.Errorf("stopping took %v, longer than the %v the first %d reads took", stopping, before, stopAt)
		}
		if got := cOverlapsOut.Value() - found; len(out) == 0 || got != int64(len(out)) {
			t.Errorf("overlap/overlaps_found advanced by %d for %d overlaps returned", got, len(out))
		}
		waitGoroutines(t, base)
	})

	t.Run("cancel", func(t *testing.T) {
		for _, saveErr := range []error{nil, errDisk} {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			var saved []int
			_, _, err := ov.Run(ctx, OverlapRun{
				MinOverlap: 400, Workers: 4,
				Progress: func(done, _ int) {
					if done == stopAt {
						cancel()
					}
				},
				Save: func(c OverlapCheckpoint) error {
					saved = append(saved, c.NextRead)
					return saveErr
				},
			})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Errorf("save error %v: err = %v, want it to wrap context.Canceled", saveErr, err)
			}
			if saveErr != nil && !errors.Is(err, saveErr) {
				t.Errorf("err = %v, want it to wrap the Save error too", err)
			}
			if saveErr == nil && err != context.Canceled {
				t.Errorf("err = %#v, want ctx.Err() itself when the save succeeded", err)
			}
			if !reflect.DeepEqual(saved, []int{stopAt}) {
				t.Errorf("checkpoints at reads %v, want one at the first unmerged read %d", saved, stopAt)
			}
			waitGoroutines(t, base)
		}
	})
}
