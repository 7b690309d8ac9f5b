// Package dsoft implements D-SOFT (Section 3, Algorithm 1), Darwin's
// seed filtration algorithm: seeds drawn from the query are looked up
// in a seed position table, each hit is assigned to a diagonal band
// (bin) of width B, and the filter counts the number of *unique query
// bases* covered by seed hits in each band. Bands whose count crosses
// the threshold h become candidate alignment positions.
//
// Counting unique bases (rather than seed hits) is what makes D-SOFT
// more precise than hit-counting filters at the same sensitivity — the
// contrast Figure 2 illustrates; the hit-counting side of it is the
// GraphMap-class filter in internal/baseline.
//
// The implementation mirrors the hardware's structures: per-bin
// bp_count and last_hit_pos arrays (the bin-count SRAM) and an NZ list
// so only touched bins are cleared between queries.
package dsoft

import (
	"fmt"

	"darwin/internal/dna"
	"darwin/internal/obs"
	"darwin/internal/seedtable"
)

// Pipeline observability (package obs): filter work counters are
// aggregated once per Query from the returned Stats, and the whole
// query is timed under the disjoint stage/filter timer — the
// "filtration" half of the paper's Figure 13 runtime split.
var (
	cSeedsIssued  = obs.Default.Counter("dsoft/seeds_issued")
	cSeedsSkipped = obs.Default.Counter("dsoft/seeds_skipped")
	cHits         = obs.Default.Counter("dsoft/hits")
	cBinsTouched  = obs.Default.Counter("dsoft/bins_touched")
	cCandidates   = obs.Default.Counter("dsoft/candidates")
	cQueries      = obs.Default.Counter("dsoft/queries")
	tFilter       = obs.Default.Timer("stage/filter")
)

// Config holds D-SOFT parameters. The paper's defaults are B=128,
// stride=1; (k, N, h) are the tuning knobs of Figure 11 and Table 4.
type Config struct {
	// N is the number of seeds drawn from the query (from its first
	// base, advancing by Stride).
	N int
	// H is the threshold: bins whose unique-base count reaches H are
	// reported as candidates.
	H int
	// BinSize is the diagonal band width B (a power of two in
	// hardware; Darwin uses 128).
	BinSize int
	// Stride is the distance between consecutive seed start positions
	// (Darwin uses 1).
	Stride int
	// ResetGap, when positive, clears a bin whose last hit is more
	// than ResetGap query bases behind the current seed, letting the
	// bin fire again. Read mapping never needs this (one alignment
	// per band per read), but whole-genome queries can host several
	// distinct collinear blocks on one diagonal band — e.g. segments
	// flanking an inversion (Section 11's whole-genome-alignment
	// extension).
	ResetGap int
}

// DefaultConfig returns the paper's fixed parameters with the given
// tuning knobs.
func DefaultConfig(n, h int) Config {
	return Config{N: n, H: h, BinSize: 128, Stride: 1}
}

// Candidate is one filtered alignment position: the last seed hit of a
// bin whose count crossed the threshold (<i, j> of Algorithm 1 line 13).
type Candidate struct {
	// Bin is the canonical diagonal band index ⌊(i−j)/B⌋; it may be
	// negative and is stable across queries of different lengths.
	Bin int
	// RefPos is the reference position i of the triggering hit.
	RefPos int
	// QueryPos is the query offset j of the triggering seed.
	QueryPos int
}

// Stats counts the work one query generated; the hardware model
// converts these into DRAM and SRAM cycles.
type Stats struct {
	// SeedsIssued is the number of seed lookups performed.
	SeedsIssued int
	// SeedsSkipped counts seeds skipped for containing N.
	SeedsSkipped int
	// Hits is the total number of position-table hits processed
	// (= bin-update operations).
	Hits int
	// BinsTouched is the number of distinct bins updated.
	BinsTouched int
	// Candidates is the number of candidate positions emitted.
	Candidates int
}

// Add accumulates another query's work counts. Aggregation lives here
// (not field-by-field at call sites) so a new Stats field can't be
// silently dropped from roll-ups; a reflection test enforces that
// every numeric field is summed.
func (s *Stats) Add(o Stats) {
	s.SeedsIssued += o.SeedsIssued
	s.SeedsSkipped += o.SeedsSkipped
	s.Hits += o.Hits
	s.BinsTouched += o.BinsTouched
	s.Candidates += o.Candidates
}

// publish folds the query's counts into the process-wide registry.
func (s *Stats) publish() {
	cQueries.Inc()
	cSeedsIssued.Add(int64(s.SeedsIssued))
	cSeedsSkipped.Add(int64(s.SeedsSkipped))
	cHits.Add(int64(s.Hits))
	cBinsTouched.Add(int64(s.BinsTouched))
	cCandidates.Add(int64(s.Candidates))
}

// Filter runs D-SOFT queries against one reference's seed table.
// It is not safe for concurrent use; create one per goroutine.
type Filter struct {
	table *seedtable.Table
	cfg   Config
	k     int // seed size, pinned by the first table bound so SetTable can't change it

	// Bin state, sized to cover every possible diagonal. Diagonal
	// d = i − j ranges over (−maxQ, refLen); bins are indexed by
	// (d + qPad) / B. The arrays are grown on demand and cleared via
	// the nz list, exactly like the hardware's NZ queue.
	bpCount []int32
	lastHit []int32
	nz      []int32
	qPad    int

	// lo and hi bound the hit positions a query sees to [lo, hi)
	// (SetWindow); a table bound by SetTable sees all of them.
	lo, hi uint32

	codes []uint32 // the query's packed seeds (appendSeeds), then their ranks; reused across queries
}

// New creates a filter over the given seed table. A nil table yields
// an unbound filter, to be pointed at a table with SetTable before its
// first Query (the sharded mapper's workers, which exist before any
// shard table does).
func New(table *seedtable.Table, cfg Config) (*Filter, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("dsoft: seed count N=%d must be positive", cfg.N)
	}
	if cfg.H <= 0 {
		return nil, fmt.Errorf("dsoft: threshold h=%d must be positive", cfg.H)
	}
	if cfg.BinSize <= 0 {
		return nil, fmt.Errorf("dsoft: bin size B=%d must be positive", cfg.BinSize)
	}
	if cfg.BinSize&(cfg.BinSize-1) != 0 {
		return nil, fmt.Errorf("dsoft: bin size B=%d must be a power of two (hardware constraint)", cfg.BinSize)
	}
	if cfg.Stride <= 0 {
		cfg.Stride = 1
	}
	f := &Filter{cfg: cfg}
	return f, f.SetTable(table)
}

// Config returns the filter's configuration.
func (f *Filter) Config() Config { return f.cfg }

// SetTable rebinds the filter to another seed table with the same seed
// size — the sharded mapper's hot path, where one filter's bin-count
// arrays are reused across every shard of a partitioned reference
// (bins are sized to the largest table seen and smaller tables use a
// prefix). Passing nil drops the table reference so an evictable
// shard table is not pinned between queries; the filter must be
// rebound before its next Query.
func (f *Filter) SetTable(t *seedtable.Table) error {
	if t != nil {
		if f.k == 0 {
			f.k = t.K()
		} else if t.K() != f.k {
			return fmt.Errorf("dsoft: cannot rebind filter from k=%d to k=%d", f.k, t.K())
		}
	}
	f.table = t
	f.lo, f.hi = 0, ^uint32(0)
	return nil
}

// SetWindow restricts the filter, until the next SetTable, to the hits
// whose seed lies wholly inside the table positions [start, end) —
// exactly the hits a table built over that window alone
// (seedtable.BuildRange) would hold, at their unshifted positions. Bins
// stay indexed by table position, so a window starting at a multiple
// of B counts every bin as that window's own table would.
func (f *Filter) SetWindow(start, end int) {
	f.lo, f.hi = uint32(max(start, 0)), uint32(max(end-f.k+1, 0))
}

// ensureBins sizes the bin arrays for a query of length qLen.
func (f *Filter) ensureBins(qLen int) {
	B := f.cfg.BinSize
	qPad := (qLen/B + 2) * B
	nb := (f.table.RefLen()+qPad)/B + 2
	if qPad <= f.qPad && nb <= len(f.bpCount) {
		return
	}
	f.qPad = qPad
	f.bpCount = make([]int32, nb)
	f.lastHit = make([]int32, nb)
	for i := range f.lastHit {
		f.lastHit[i] = int32(-f.table.K())
	}
	f.nz = f.nz[:0]
}

// Query runs Algorithm 1 for one query sequence, returning candidate
// positions and work statistics. Bin state is cleared (via the NZ
// list) before returning, so calls are independent. Each call
// allocates a fresh candidate slice; hot loops that map many queries
// use QueryInto with a reused buffer instead.
func (f *Filter) Query(q dna.Seq) ([]Candidate, Stats) {
	return f.QueryInto(q, nil)
}

// QueryInto is Query appending candidates to out (typically a reused
// buffer truncated with out[:0]) and returning the extended slice, so
// steady-state mapping pays no per-query candidate allocation once the
// buffer has grown to the working-set size.
func (f *Filter) QueryInto(q dna.Seq, out []Candidate) ([]Candidate, Stats) {
	defer tFilter.Start(nil).End()
	k := f.table.K()
	B := f.cfg.BinSize
	f.ensureBins(len(q))
	defer f.clear()

	var st Stats

	// Pack every seed first, then issue the lookups back to back: no
	// packing work sits between one seed-table miss and the next, so
	// the misses overlap, as the hardware streams them to DRAM.
	// Then resolve them all to ranks in one pass, so the directory reads
	// also go back to back, before any hit list is walked.
	f.codes = appendSeeds(f.codes[:0], q, k, f.cfg.N, f.cfg.Stride)
	f.table.Ranks(f.codes)
	for s, rank := range f.codes {
		if rank == noSeed {
			st.SeedsSkipped++
			continue
		}
		j := s * f.cfg.Stride
		st.SeedsIssued++
		for _, hit := range f.table.Hits(rank) {
			if hit < f.lo || hit >= f.hi {
				continue
			}
			st.Hits++
			i := int(hit)
			bin := (i - j + f.qPad) / B
			last := f.lastHit[bin]
			count := f.bpCount[bin]
			if count == 0 && last == int32(-k) {
				f.nz = append(f.nz, int32(bin))
				st.BinsTouched++
			}
			if f.cfg.ResetGap > 0 && last != int32(-k) && int32(j)-last > int32(f.cfg.ResetGap) {
				count = 0 // stale bin: allow a fresh crossing
			}
			overlap := int32(0)
			if o := last + int32(k) - int32(j); o > 0 {
				overlap = o
			}
			f.lastHit[bin] = int32(j)
			newCount := count + int32(k) - overlap
			f.bpCount[bin] = newCount
			// Emit on first crossing of h (Algorithm 1 line 12). The
			// reported bin is canonical (⌊(i−j)/B⌋): qPad is a multiple
			// of B, so subtracting qPad/B removes the padding offset.
			if count < int32(f.cfg.H) && newCount >= int32(f.cfg.H) {
				out = append(out, Candidate{Bin: bin - f.qPad/B, RefPos: i, QueryPos: j})
				st.Candidates++
			}
		}
	}
	st.publish()
	return out, st
}

// Trace runs the seed-lookup front half of Algorithm 1 and returns,
// for each issued seed, the list of bin indices its hits update — the
// (bin, j) stream the D-SOFT accelerator's NoC routes to the
// bin-count SRAM banks (Section 6). Used by the accelerator simulator
// (package dsoftsim); bin state is not modified.
func (f *Filter) Trace(q dna.Seq) [][]int {
	k := f.table.K()
	B := f.cfg.BinSize
	f.ensureBins(len(q))
	var out [][]int
	f.codes = appendSeeds(f.codes[:0], q, k, f.cfg.N, f.cfg.Stride)
	f.table.Ranks(f.codes)
	for s, rank := range f.codes {
		if rank == noSeed {
			continue
		}
		j := s * f.cfg.Stride
		hits := f.table.Hits(rank)
		bins := make([]int, 0, len(hits))
		for _, hit := range hits {
			if hit >= f.lo && hit < f.hi {
				bins = append(bins, (int(hit)-j+f.qPad)/B)
			}
		}
		out = append(out, bins)
	}
	return out
}

// noSeed marks a seed window holding a base with no 2-bit code. A real
// code has at most 2·dna.MaxSeedSize = 30 bits, so it never equals it,
// and it lies above seedtable.Absent, so Table.Ranks passes it through.
const noSeed = ^uint32(0)

// appendSeeds appends to dst one entry per seed a query issues — the
// starts j = 0, stride, 2·stride, … with j < n·stride and j+k ≤ len(q)
// — holding the seed's packed 2k-bit code, or noSeed when its k bases
// hold a byte dna.Code maps to CodeN. The code rolls over every base
// (one shift-and-mask each, restarting after an N), as the seed table
// is built, instead of repacking k bases per seed.
func appendSeeds(dst []uint32, q dna.Seq, k, n, stride int) []uint32 {
	if len(q) < k || n <= 0 {
		return dst
	}
	seeds := min(n, (len(q)-k)/stride+1) // the last start is (seeds−1)·stride
	mask := uint32(1)<<(2*k) - 1
	var code uint32
	valid := 0    // bases since the last N
	next := k - 1 // the base that ends the next emitted seed
	end := (seeds-1)*stride + k
	for i := 0; i < end; i++ {
		c := dna.Code(q[i])
		if c == dna.CodeN {
			valid = 0
		} else {
			valid++
		}
		code = (code<<2 | uint32(c&3)) & mask
		if i == next {
			next += stride
			if valid >= k {
				dst = append(dst, code)
			} else {
				dst = append(dst, noSeed)
			}
		}
	}
	return dst
}

// clear resets only the touched bins, as the hardware's NZ queue does
// between queries.
func (f *Filter) clear() {
	k := int32(f.table.K())
	for _, bin := range f.nz {
		f.bpCount[bin] = 0
		f.lastHit[bin] = -k
	}
	f.nz = f.nz[:0]
}

// BinOf returns the canonical bin index ⌊(refPos−queryPos)/B⌋ a hit
// falls into, for ground-truth evaluation of candidates.
func (f *Filter) BinOf(refPos, queryPos int) int {
	d := refPos - queryPos
	b := f.cfg.BinSize
	if d < 0 {
		return -((-d + b - 1) / b)
	}
	return d / b
}
