package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"darwin/internal/dna"
	"darwin/internal/obs"
)

// Overlap-step observability: overlap/reads_done advances once per
// queried read (both strands), which is what drives -progress in
// cmd/darwin-overlap; filter/align time lands in the shared stage
// timers via the dsoft/gact packages. overlap/workers and
// overlap/worker_busy mirror core/workers and core/worker_busy:
// utilization = busy seconds / (wall × workers).
var (
	cOverlapReads   = obs.Default.Counter("overlap/reads_done")
	cOverlapsOut    = obs.Default.Counter("overlap/overlaps_found")
	gOverlapWorkers = obs.Default.Gauge("overlap/workers")
	tOverlapBusy    = obs.Default.Timer("overlap/worker_busy")
)

// Overlap is a detected pairwise overlap between two reads in the
// de novo overlap step (Figure 6, right).
type Overlap struct {
	// Target is the read found in the concatenated reference; Query is
	// the read used as the D-SOFT/GACT query.
	Target, Query int
	// QueryRev is true if the reverse complement of the query read
	// produced the overlap.
	QueryRev bool
	// TargetStart, TargetEnd delimit the overlap on the target read.
	TargetStart, TargetEnd int
	// QueryStart, QueryEnd delimit the overlap on the query read (in
	// reverse-complement coordinates when QueryRev).
	QueryStart, QueryEnd int
	// Score is the GACT alignment score.
	Score int
}

// Pair returns the unordered read pair.
func (o *Overlap) Pair() (int, int) {
	if o.Target < o.Query {
		return o.Target, o.Query
	}
	return o.Query, o.Target
}

// Len returns the overlap length on the target read.
func (o *Overlap) Len() int { return o.TargetEnd - o.TargetStart }

// Overlapper runs the overlap step of de novo assembly: reads are
// concatenated (each padded with N to a whole number of D-SOFT bins,
// Section 5) to form the reference, and every read is queried against
// it in both orientations.
type Overlapper struct {
	darwin  *Darwin
	reads   []dna.Seq
	offsets []int // start of each read in the concatenated reference
}

// OverlapStats aggregates the pipeline statistics of an overlap run.
type OverlapStats struct {
	// Map aggregates MapStats across all reads.
	Map MapStats
	// TableBuildTime is the software-side seed-table construction time
	// (the dominant software cost in the paper's de novo accounting:
	// 370 of 385 seconds for C. elegans).
	TableBuildTime time.Duration
}

// NewOverlapper builds the concatenated reference and indexes it.
func NewOverlapper(reads []dna.Seq, cfg Config) (*Overlapper, error) {
	if len(reads) == 0 {
		return nil, fmt.Errorf("core: no reads to overlap")
	}
	B := cfg.BinSize
	if B <= 0 {
		return nil, fmt.Errorf("core: bin size must be positive")
	}
	total := 0
	for _, r := range reads {
		pad := B - len(r)%B
		total += len(r) + pad
	}
	ref := make(dna.Seq, 0, total)
	offsets := make([]int, len(reads))
	for i, r := range reads {
		offsets[i] = len(ref)
		ref = append(ref, r...)
		pad := B - len(r)%B
		for p := 0; p < pad; p++ {
			ref = append(ref, 'N')
		}
	}
	d, err := New(ref, cfg)
	if err != nil {
		return nil, err
	}
	return &Overlapper{darwin: d, reads: reads, offsets: offsets}, nil
}

// readAt returns the index of the read containing reference position p.
func (o *Overlapper) readAt(p int) int {
	i := sort.SearchInts(o.offsets, p+1) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// FindOverlaps queries every read against the concatenated reference
// and returns deduplicated overlaps of at least minOverlap bases: Run
// with only the threshold set.
func (o *Overlapper) FindOverlaps(minOverlap int) ([]Overlap, OverlapStats) {
	out, stats, _ := o.Run(context.Background(), OverlapRun{MinOverlap: minOverlap})
	return out, stats
}

// OverlapCheckpoint is a resumable snapshot of an overlap pass taken
// at a read boundary: every read below NextRead has been queried (both
// strands) and Overlaps holds the best overlap per (pair, orientation)
// seen so far in canonical order. Because reads are processed in index
// order and deduplication keeps only the best-scoring overlap per key,
// resuming from a checkpoint yields output bit-identical to an
// uninterrupted run.
type OverlapCheckpoint struct {
	// NextRead is the first read index not yet processed.
	NextRead int
	// Overlaps is the deduplicated best-so-far set, in the same
	// canonical order FindOverlaps returns.
	Overlaps []Overlap
}

// Done reports whether the checkpoint covers all n reads.
func (c *OverlapCheckpoint) Done(n int) bool { return c != nil && c.NextRead >= n }

// overlapKey identifies one deduplication slot: an unordered read pair
// in one relative orientation.
type overlapKey struct {
	a, b int
	rev  bool
}

func keyOf(ov *Overlap) overlapKey {
	lo, hi := ov.Pair()
	return overlapKey{lo, hi, ov.QueryRev}
}

// OverlapRun configures one overlap pass: the reporting threshold plus
// the optional resume point, checkpoint cadence, and progress hook.
type OverlapRun struct {
	// MinOverlap is the minimum reported overlap length on the target
	// read.
	MinOverlap int
	// Workers is how many engine clones query reads concurrently
	// (0 = DefaultWorkers). The output does not depend on it.
	Workers int
	// Resume, when non-nil, restarts the pass at Resume.NextRead with
	// the deduplication state rebuilt from Resume.Overlaps.
	Resume *OverlapCheckpoint
	// CheckpointEvery is how many reads between Save calls (0 disables
	// periodic saves; a cancellation save still fires when Save is set).
	CheckpointEvery int
	// Save receives checkpoints, on the goroutine that called Run. A
	// non-nil return aborts the pass with that error; best-effort
	// checkpointing swallows errors inside the callback.
	Save func(OverlapCheckpoint) error
	// Progress, when non-nil, is called on the goroutine that called Run
	// after each read is merged, with the cumulative count (including
	// reads skipped via Resume).
	Progress func(done, total int)
}

// readOverlaps is one read's contribution to a pass: its candidate
// overlaps (forward strand then reverse, each in extension order) and
// the statistics of producing them.
type readOverlaps struct {
	ovs []Overlap
	st  MapStats
}

// queryRead runs read q, both strands, against the concatenated
// reference on engine e. Each GACT extension is clipped to the segment
// of the read its candidate falls in: N padding contributes nothing to
// scores (the hardware's Σext semantics), so an unclipped extension
// would silently bridge adjacent reads and misattribute the overlap. A
// read's trivial self-hit in the concatenated reference is dropped.
func (o *Overlapper) queryRead(e *Darwin, q, minOverlap int) readOverlaps {
	alns, st := e.mapRead(o.reads[q], func(refPos int) (lo, hi int, ok bool) {
		t := o.readAt(refPos)
		lo, hi = o.offsets[t], o.offsets[t]+len(o.reads[t])
		return lo, hi, t != q && refPos < hi
	})
	out := readOverlaps{st: st}
	for _, a := range alns {
		target := o.readAt(a.Result.RefStart)
		tStart := a.Result.RefStart - o.offsets[target]
		tEnd := min(a.Result.RefEnd-o.offsets[target], len(o.reads[target]))
		if tEnd-tStart < minOverlap {
			continue
		}
		out.ovs = append(out.ovs, Overlap{
			Target:      target,
			Query:       q,
			QueryRev:    a.Reverse,
			TargetStart: tStart,
			TargetEnd:   tEnd,
			QueryStart:  a.Result.QueryStart,
			QueryEnd:    a.Result.QueryEnd,
			Score:       a.Result.Score,
		})
	}
	return out
}

// Run executes the overlap pass described by r. Workers query reads
// concurrently on engine clones, at most a window of reads ahead of
// the merge; the calling goroutine alone folds their results, strictly
// in read order, and is the only one to call Progress and Save. The
// fold is therefore the serial one — same tie-breaks, same checkpoint
// boundaries, same statistic sums — so overlaps, counters and every
// checkpoint are identical for any worker count and any resume point.
//
// ctx is checked before each read is merged: on cancellation Run saves
// a checkpoint at the first unmerged read (when Save is set) and
// returns the overlaps merged so far with ctx.Err(), joined with the
// save's error if that failed too. No goroutine outlives Run.
//
// Stats cover only the reads processed by this call: a resumed pass
// reports the remaining work, not the pre-checkpoint history. With
// more than one worker Map.FiltrationTime and Map.AlignmentTime are
// CPU time summed over workers, not wall time.
func (o *Overlapper) Run(ctx context.Context, r OverlapRun) ([]Overlap, OverlapStats, error) {
	stats := OverlapStats{TableBuildTime: o.darwin.TableBuildTime}
	best := map[overlapKey]Overlap{}
	merge := func(ovs []Overlap) {
		for i := range ovs {
			k := keyOf(&ovs[i])
			if cur, ok := best[k]; !ok || ovs[i].Score > cur.Score {
				best[k] = ovs[i]
			}
		}
	}
	start, n := 0, len(o.reads)
	if r.Resume != nil {
		start = max(r.Resume.NextRead, 0)
		merge(r.Resume.Overlaps)
	}
	workers := max(min(DefaultWorkers(r.Workers), n-start), 1)
	gOverlapWorkers.Set(int64(workers))
	// Each in-flight read owns the slot at its index modulo the window;
	// a slot is free again once its read is merged, which is before the
	// read a window later is fed, so no worker ever blocks on its send.
	window := 2 * workers
	slots := make([]chan readOverlaps, window)
	for i := range slots {
		slots[i] = make(chan readOverlaps, 1)
	}
	pool, err := o.darwin.clonePool(workers)
	if err != nil {
		return nil, stats, err
	}
	var stopped atomic.Bool // set by finish: reads still queued are dropped
	feed, join := startWorkers(workers, window, func(tid, q int) {
		if stopped.Load() {
			return
		}
		busy := time.Now()
		endSpan := obs.Trace.StartTID("overlap.read", tid)
		res := o.queryRead(pool[tid-1], q, r.MinOverlap)
		endSpan()
		tOverlapBusy.Observe(time.Since(busy))
		slots[q%window] <- res
	})
	// finish is every exit once workers run: it stops and joins them.
	finish := func(err error) ([]Overlap, OverlapStats, error) {
		stopped.Store(true)
		join()
		out := collectOverlaps(best)
		cOverlapsOut.Add(int64(len(out)))
		return out, stats, err
	}
	snapshot := func(nextRead int) OverlapCheckpoint {
		return OverlapCheckpoint{NextRead: nextRead, Overlaps: collectOverlaps(best)}
	}
	next := start
	for q := start; q < n; q++ {
		if err := ctx.Err(); err != nil {
			// Read q has not been merged, so the interrupted pass
			// resumes there. Workers stop before the save, not after it.
			stopped.Store(true)
			if r.Save != nil {
				if serr := r.Save(snapshot(q)); serr != nil {
					err = errors.Join(err, serr)
				}
			}
			return finish(err)
		}
		for ; next < n && next < q+window; next++ {
			feed <- next
		}
		res := <-slots[q%window]
		merge(res.ovs)
		stats.Map.add(res.st)
		cOverlapReads.Inc()
		if r.Progress != nil {
			r.Progress(q+1, n)
		}
		if r.Save != nil && r.CheckpointEvery > 0 && (q+1)%r.CheckpointEvery == 0 && q+1 < n {
			if err := r.Save(snapshot(q + 1)); err != nil {
				return finish(err)
			}
		}
	}
	return finish(nil)
}

// collectOverlaps flattens the deduplication map into the canonical
// output order: unordered pair ascending, forward orientation first.
// The map is keyed by (pair, orientation), so this order is total and
// the output is deterministic regardless of map iteration order.
func collectOverlaps(best map[overlapKey]Overlap) []Overlap {
	out := make([]Overlap, 0, len(best))
	for _, ov := range best {
		out = append(out, ov)
	}
	sort.Slice(out, func(a, b int) bool {
		pa1, pa2 := out[a].Pair()
		pb1, pb2 := out[b].Pair()
		if pa1 != pb1 {
			return pa1 < pb1
		}
		if pa2 != pb2 {
			return pa2 < pb2
		}
		return !out[a].QueryRev && out[b].QueryRev
	})
	return out
}

// NumReads returns the number of reads the overlapper was built over.
func (o *Overlapper) NumReads() int { return len(o.reads) }

// Reads returns the read set the overlapper indexes (shared, not a
// copy — callers must not mutate).
func (o *Overlapper) Reads() []dna.Seq { return o.reads }
