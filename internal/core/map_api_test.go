package core_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/faults"
	"darwin/internal/genome"
	"darwin/internal/obs"
	"darwin/internal/readsim"
	"darwin/internal/shard"
)

// mapContractEngines builds the three engines every Map contract case
// runs over — the monolithic Darwin and the sharded mapper at 1 and 4
// shards — on one genome, plus n reads simulated from it. The per-read
// contract (isolation, deadline, progress, cancellation) is the shared
// per-read body's, so it must hold identically for all of them.
func mapContractEngines(t *testing.T, n int) (map[string]core.Mapper, []dna.Seq) {
	t.Helper()
	g, err := genome.Generate(genome.Config{
		Length: 80000, GC: 0.45, RepeatFraction: 0.2, RepeatFamilies: 5,
		RepeatUnitLen: 250, RepeatDivergence: 0.1, TandemFraction: 0.1, Seed: 403,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(11, 400, 18)
	engines := map[string]core.Mapper{}
	if engines["monolith"], err = core.New(g.Seq, cfg); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		if engines[fmt.Sprintf("shards=%d", shards)], err = shard.New(g.Seq, cfg, shard.Config{Shards: shards}); err != nil {
			t.Fatal(err)
		}
	}
	sim, err := readsim.SimulateN(g.Seq, n, readsim.Config{Profile: readsim.PacBio, MeanLen: 1500, Seed: 404})
	if err != nil {
		t.Fatal(err)
	}
	reads := make([]dna.Seq, len(sim))
	for i := range sim {
		reads[i] = sim[i].Seq
	}
	return engines, reads
}

// TestMapPerReadContract is the Map contract every engine shares, at
// workers 1 (inline) and 3 (pooled). Which read a fault lands on depends
// on scheduling once there are several workers, so the cases count
// failed reads rather than name them.
func TestMapPerReadContract(t *testing.T) {
	defer faults.Default.Reset()
	engines, reads := mapContractEngines(t, 7)
	ctx := context.Background()
	for name, eng := range engines {
		clean, err := eng.Map(ctx, reads, core.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		// failedReads maps under the fault spec and returns the indices of
		// reads whose Err satisfies isFault; every other read must be
		// untouched by its neighbour's failure.
		failedReads := func(t *testing.T, spec string, isFault func(error) bool, options ...core.MapOption) []int {
			t.Helper()
			if err := faults.Default.Enable(spec); err != nil {
				t.Fatal(err)
			}
			got, err := eng.Map(ctx, reads, options...)
			faults.Default.Reset()
			if err != nil {
				t.Fatalf("a per-read failure must not fail the batch: %v", err)
			}
			var failed []int
			for i := range got {
				switch {
				case got[i].Err == nil:
					if !reflect.DeepEqual(got[i].Alignments, clean[i].Alignments) {
						t.Errorf("read %d: alignments changed by a neighbour's failure (blast radius exceeded one read)", i)
					}
				case isFault(got[i].Err):
					failed = append(failed, i)
					if got[i].Alignments != nil {
						t.Errorf("read %d: failed read still has alignments", i)
					}
				default:
					t.Errorf("read %d: unexpected Err %v", i, got[i].Err)
				}
			}
			return failed
		}
		for _, workers := range []int{1, 3} {
			w := core.WithWorkers(workers)
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				// A panic becomes that read's Err; every=3 fires on the
				// 3rd and 6th of 7 reads.
				isPanic := func(err error) bool { return strings.Contains(err.Error(), "panicked") }
				if failed := failedReads(t, "core/map_read=every=3,panic=poisoned read", isPanic, w); len(failed) != 2 {
					t.Errorf("panicked reads %v, want 2 of them", failed)
				} else if workers == 1 && !reflect.DeepEqual(failed, []int{2, 5}) {
					t.Errorf("panicked reads %v, want [2 5]", failed)
				}

				// An injected error is confined to its read and
				// recognizable via IsInjected.
				if failed := failedReads(t, "core/map_read=after=1,times=1,error=bad read", faults.IsInjected, w); len(failed) != 1 {
					t.Errorf("injected-error reads %v, want exactly one", failed)
				} else if workers == 1 && failed[0] != 1 {
					t.Errorf("injected error on read %d, want 1", failed[0])
				}

				// A read held past WithDeadlinePerRead fails alone with
				// DeadlineExceeded. The stall is at the fault point, before
				// any extension, so a clock that starts late or is only
				// consulted between extensions misses it. Margins are wide
				// (a read maps in well under 1s even under the race
				// detector; 4s is well past the budget).
				isDeadline := func(err error) bool { return errors.Is(err, context.DeadlineExceeded) }
				if failed := failedReads(t, "core/map_read=after=2,times=1,delay=4s", isDeadline, w, core.WithDeadlinePerRead(time.Second)); len(failed) != 1 {
					t.Errorf("deadline-expired reads %v, want exactly one", failed)
				} else if workers == 1 && failed[0] != 2 {
					t.Errorf("deadline expired on read %d, want 2", failed[0])
				}

				// A cancelled context is a batch-level failure: ctx.Err()
				// and no results.
				cctx, cancel := context.WithCancel(ctx)
				cancel()
				if res, err := eng.Map(cctx, reads, w); !errors.Is(err, context.Canceled) || res != nil {
					t.Errorf("Map(cancelled) = %d results, %v; want none, context.Canceled", len(res), err)
				}

				// An empty batch is not an error.
				if res, err := eng.Map(ctx, nil, w); err != nil || len(res) != 0 {
					t.Errorf("Map(no reads) = %d results, %v; want 0, nil", len(res), err)
				}
			})
		}
	}
}

// TestMapRecordsUtilization: every engine's Map sets core/workers and
// charges one core/worker_busy observation per read, so utilization =
// busy / (wall × workers) is derivable from any run report — it read 0
// for the sharded engine before both went through the shared per-read
// body.
func TestMapRecordsUtilization(t *testing.T) {
	engines, reads := mapContractEngines(t, 6)
	for name, eng := range engines {
		for _, workers := range []int{1, 3} {
			before := obs.Default.Snapshot()
			if _, err := eng.Map(context.Background(), reads, core.WithWorkers(workers)); err != nil {
				t.Fatal(err)
			}
			d := obs.Default.Snapshot().Sub(before)
			if got := d.Gauges["core/workers"]; got != int64(workers) {
				t.Errorf("%s workers=%d: core/workers = %d", name, workers, got)
			}
			if busy := d.Timers["core/worker_busy"]; busy.Count != int64(len(reads)) || busy.Seconds <= 0 {
				t.Errorf("%s workers=%d: core/worker_busy = %+v, want %d observations of non-zero time", name, workers, busy, len(reads))
			}
			if got := d.Counters["core/reads"]; got != int64(len(reads)) {
				t.Errorf("%s workers=%d: core/reads advanced by %d, want %d", name, workers, got, len(reads))
			}
		}
	}
}
