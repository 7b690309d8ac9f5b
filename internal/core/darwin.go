// Package core is the Darwin engine: the composition of D-SOFT
// filtering and GACT alignment described in Section 5 and Figure 6.
// It provides the two applications the paper evaluates — reference-
// guided read mapping and the overlap step of de novo assembly — with
// per-stage instrumentation feeding the hardware performance model
// (Figure 13, Table 4).
//
// The engine follows the paper's system configuration: seeds from each
// query (forward and reverse complement) feed D-SOFT with B=128 and
// stride 1; high-frequency seeds are discarded by the seed table; each
// candidate bin's last-hit position anchors a GACT first tile of size
// 384 whose score must reach h_tile to survive; surviving candidates
// are extended with (T=320, O=128) tiles.
package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"darwin/internal/align"
	"darwin/internal/dna"
	"darwin/internal/dsoft"
	"darwin/internal/gact"
	"darwin/internal/obs"
	"darwin/internal/seedtable"
)

// Pipeline observability (package obs): per-read roll-ups on top of
// the dsoft/gact package counters. Seed-table construction is the
// stage/index timer (the dominant software cost in the paper's de novo
// accounting); filter and align stage time is recorded by the
// dsoft/gact packages themselves so it is never double-counted here.
var (
	cReads      = obs.Default.Counter("core/reads")
	cAlignments = obs.Default.Counter("core/alignments")
	cUnmapped   = obs.Default.Counter("core/unmapped")
	tIndex      = obs.Default.Timer("stage/index")
	hMapLatency = obs.Default.Histogram("core/map_latency_ms", 0, 2000, 50)
	hCandidates = obs.Default.Histogram("core/candidates_per_read", 0, 512, 64)
)

// Config holds the full Darwin parameter set.
type Config struct {
	// SeedK is the seed size k (Table 4 uses 11-14 depending on the
	// read class).
	SeedK int
	// SeedN is the number of seeds N drawn from each query strand.
	SeedN int
	// SeedStride spaces the N seeds (default 1, the paper's
	// reference-guided setting, sampling the read head densely). The
	// de novo overlap step spreads seeds across the whole read
	// (stride ≈ readLen/N): an overlap can sit at either end of a
	// read, and head-only seeding is blind to tail-side overlaps of
	// reverse-orientation pairs.
	SeedStride int
	// Threshold is the D-SOFT base-count threshold h.
	Threshold int
	// BinSize is the D-SOFT band width B (paper: 128).
	BinSize int
	// HTile is the first-tile score threshold (paper: 90 at first-tile
	// size 384). Zero disables it.
	HTile int
	// GACT holds the tile parameters, scoring, and kernel-tier
	// selection (GACT.Kernel; under the zero value the bitvector fast
	// path, with its bit-identical LUT fallback, runs only on tiles the
	// vector fill does not take).
	GACT gact.Config
	// MaxCandidates bounds GACT work per query strand as a safety
	// valve against pathological repeat regions. Zero means no bound.
	MaxCandidates int
	// TableOptions configures seed-table masking.
	TableOptions seedtable.Options
}

// DefaultConfig returns the paper's system defaults with the given
// D-SOFT tuning knobs (k, N, h); Table 4 lists the per-read-class
// values, e.g. (14, 750, 24) for PacBio reference-guided assembly.
func DefaultConfig(k, n, h int) Config {
	g := gact.DefaultConfig()
	return Config{
		SeedK:         k,
		SeedN:         n,
		Threshold:     h,
		BinSize:       128,
		HTile:         90,
		GACT:          g,
		MaxCandidates: 256,
	}
}

// Mapper is the read-mapping surface shared by the monolithic engine
// (Darwin) and the sharded scatter-gather mapper (internal/shard): one
// read or a batch in, score-sorted alignments in global reference
// coordinates out, bit-identical across the two implementations.
// Construct one with indexio.OpenSource, which selects the
// implementation from shard geometry; the serving layer holds this
// interface so an index cache entry can be backed by either engine.
//
// The surface splits into three concerns:
//
//   - Mapping: Map is the primary batch entrypoint (context-first,
//     functional options); MapRead maps a single read inline on the
//     receiver.
//   - Concurrency: CloneMapper derives an engine that shares the
//     immutable index (seed tables, reference bytes) but owns private
//     mutable scratch — D-SOFT bin state, GACT traceback, candidate
//     buffers — so clones map concurrently without locks. This
//     mirrors the hardware split between replicated read-only DRAM
//     seed tables and per-array SRAM.
//   - Introspection: Ref exposes the indexed (concatenated)
//     reference; IndexBuildTime reports cumulative index-construction
//     time, the one-time cost the paper's Table 3 separates from
//     per-read work (for a sharded mapper it grows as shards are
//     (re)built on demand).
type Mapper interface {
	// MapRead maps one read, both strands; alignments are sorted by
	// SortAlignments order.
	MapRead(q dna.Seq) ([]ReadAlignment, MapStats)
	// Map maps every read under ctx, results in input order. Options:
	// WithWorkers, WithDeadlinePerRead. Per-read
	// failures land in MapResult.Err; batch-level failures (cancelled
	// context) are returned as the error.
	Map(ctx context.Context, reads []dna.Seq, options ...MapOption) ([]MapResult, error)
	// CloneMapper returns an engine sharing immutable index state but
	// with private mutable scratch, safe for another goroutine.
	CloneMapper() (Mapper, error)
	// Ref returns the indexed (concatenated) reference sequence.
	Ref() dna.Seq
	// IndexBuildTime reports cumulative index-construction time.
	IndexBuildTime() time.Duration
}

// SortAlignments orders alignments deterministically: descending
// score, then ascending reference span, query span, and finally
// forward before reverse strand. Every mapper output passes through
// this one sort, so results are bit-stable across worker counts and
// shard counts (equal-score ties used to fall in goroutine-scheduling
// order under a non-stable sort).
func SortAlignments(alns []ReadAlignment) {
	sort.SliceStable(alns, func(a, b int) bool {
		x, y := &alns[a], &alns[b]
		if x.Result.Score != y.Result.Score {
			return x.Result.Score > y.Result.Score
		}
		if x.Result.RefStart != y.Result.RefStart {
			return x.Result.RefStart < y.Result.RefStart
		}
		if x.Result.RefEnd != y.Result.RefEnd {
			return x.Result.RefEnd < y.Result.RefEnd
		}
		if x.Result.QueryStart != y.Result.QueryStart {
			return x.Result.QueryStart < y.Result.QueryStart
		}
		return !x.Reverse && y.Reverse
	})
}

// Darwin maps queries against one reference.
type Darwin struct {
	ref    dna.Seq
	table  *seedtable.Table
	filter *dsoft.Filter
	engine *gact.Engine
	cfg    Config

	// Per-engine scratch, reused across reads so the steady-state map
	// loop allocates only its results: the D-SOFT candidate buffer and
	// the reverse-complement query buffer. Clones get fresh scratch
	// (see Clone), so engines never share mutable state.
	cands  []dsoft.Candidate
	revBuf dna.Seq

	// TableBuildTime records seed-table construction (software-side in
	// the paper's de novo accounting).
	TableBuildTime time.Duration
}

// New indexes the reference and returns an engine.
func New(ref dna.Seq, cfg Config) (*Darwin, error) {
	if len(ref) == 0 {
		return nil, fmt.Errorf("core: empty reference")
	}
	start := time.Now()
	if err := fpIndexBuild.Fire(); err != nil {
		return nil, fmt.Errorf("core: building seed table: %w", err)
	}
	endSpan := obs.Trace.Start("core.index")
	table, err := seedtable.Build(ref, cfg.SeedK, cfg.TableOptions)
	endSpan()
	if err != nil {
		return nil, fmt.Errorf("core: building seed table: %w", err)
	}
	buildTime := time.Since(start)
	tIndex.Observe(buildTime)
	return assemble(ref, table, cfg, buildTime)
}

// NewWithTable assembles an engine around a prebuilt seed table — the
// path a persistent index load takes (internal/indexio): the table's
// storage is a view over mapped file bytes, so no build pass runs, the
// stage/index timer never fires, and TableBuildTime stays zero. The
// table must describe exactly this reference under this configuration;
// only the structural invariants are checked here (the index loader
// owns content integrity via its checksums).
func NewWithTable(ref dna.Seq, table *seedtable.Table, cfg Config) (*Darwin, error) {
	if len(ref) == 0 {
		return nil, fmt.Errorf("core: empty reference")
	}
	if table == nil {
		return nil, fmt.Errorf("core: nil seed table")
	}
	if table.K() != cfg.SeedK {
		return nil, fmt.Errorf("core: seed table k=%d but config k=%d", table.K(), cfg.SeedK)
	}
	if table.RefLen() != len(ref) {
		return nil, fmt.Errorf("core: seed table covers %d bases but reference has %d", table.RefLen(), len(ref))
	}
	return assemble(ref, table, cfg, 0)
}

// Parts is one goroutine's private mapping machinery — the hardware's
// per-array SRAM: a D-SOFT filter (bin counts) and a GACT engine
// (traceback). Everything else an engine holds is immutable and shared.
type Parts struct {
	Filter *dsoft.Filter
	Engine *gact.Engine
}

// NewParts derives the filter and GACT engine cfg describes; it is the
// one place the Config → dsoft.Config / gact.Config plumbing lives
// (HTile becomes the engine's first-tile threshold), used by every
// engine constructor here and by the sharded mapper's workers. A nil
// table leaves the filter unbound, to be pointed at shard tables with
// Filter.SetTable.
func NewParts(table *seedtable.Table, cfg Config) (Parts, error) {
	filter, err := dsoft.New(table, dsoft.Config{
		N:       cfg.SeedN,
		H:       cfg.Threshold,
		BinSize: cfg.BinSize,
		Stride:  cfg.SeedStride,
	})
	if err != nil {
		return Parts{}, fmt.Errorf("core: configuring D-SOFT: %w", err)
	}
	g := cfg.GACT
	g.MinFirstTile = cfg.HTile
	engine, err := gact.NewEngine(&g)
	if err != nil {
		return Parts{}, fmt.Errorf("core: configuring GACT: %w", err)
	}
	return Parts{Filter: filter, Engine: engine}, nil
}

// assemble wraps fresh Parts around an index: the tail of New and
// NewWithTable, and all of Clone.
func assemble(ref dna.Seq, table *seedtable.Table, cfg Config, buildTime time.Duration) (*Darwin, error) {
	parts, err := NewParts(table, cfg)
	if err != nil {
		return nil, err
	}
	return &Darwin{ref: ref, table: table, filter: parts.Filter, engine: parts.Engine, cfg: cfg, TableBuildTime: buildTime}, nil
}

// Ref returns the indexed reference.
func (d *Darwin) Ref() dna.Seq { return d.ref }

// Table returns the underlying seed table (for statistics).
func (d *Darwin) Table() *seedtable.Table { return d.table }

// Config returns the engine configuration.
func (d *Darwin) Config() Config { return d.cfg }

// ReadAlignment is one alignment of a query to the reference.
type ReadAlignment struct {
	// Result holds the alignment in forward-reference coordinates.
	// For Reverse alignments, query coordinates refer to the
	// reverse-complemented query.
	Result align.Result
	// Reverse marks reverse-complement strand alignments.
	Reverse bool
	// FirstTileScore is the candidate's first GACT tile score.
	FirstTileScore int
}

// MapStats instruments one MapRead call for the performance model and
// the Figure 13 breakdown.
type MapStats struct {
	// DSOFT aggregates filter work across both strands.
	DSOFT dsoft.Stats
	// Candidates is the number of candidate bins D-SOFT emitted.
	Candidates int
	// PassedHTile counts candidates surviving the first-tile filter.
	PassedHTile int
	// Tiles is the total number of GACT tiles processed.
	Tiles int
	// Cells is the total DP cells filled by GACT.
	Cells int64
	// FirstTileScores records each candidate's first-tile score
	// (Figure 12's histogram input).
	FirstTileScores []int
	// FiltrationTime and AlignmentTime split the software runtime.
	FiltrationTime, AlignmentTime time.Duration
}

func (s *MapStats) add(o MapStats) {
	s.DSOFT.Add(o.DSOFT)
	s.Candidates += o.Candidates
	s.PassedHTile += o.PassedHTile
	s.Tiles += o.Tiles
	s.Cells += o.Cells
	s.FirstTileScores = append(s.FirstTileScores, o.FirstTileScores...)
	s.FiltrationTime += o.FiltrationTime
	s.AlignmentTime += o.AlignmentTime
}

// Add accumulates another call's statistics (exported aggregation so
// callers never hand-sum fields; see the reflection test).
func (s *MapStats) Add(o MapStats) { s.add(o) }

// AddExtension folds one candidate's GACT extension outcome into the
// read's statistics and alignment list — the single accounting rule
// behind every mapping path (monolithic, overlap, sharded gather,
// cluster merge). res is nil when the first tile fell below h_tile.
func (s *MapStats) AddExtension(alns []ReadAlignment, res *align.Result, gst gact.Stats, rev bool) []ReadAlignment {
	s.Tiles += gst.Tiles
	s.Cells += gst.Cells
	s.FirstTileScores = append(s.FirstTileScores, gst.FirstTileScore)
	if res == nil {
		return alns
	}
	s.PassedHTile++
	return append(alns, ReadAlignment{Result: *res, Reverse: rev, FirstTileScore: gst.FirstTileScore})
}

// publishRead records one successfully mapped read in the core/*
// roll-ups, whichever engine and entrypoint mapped it.
func publishRead(alns []ReadAlignment, st *MapStats, elapsed time.Duration) {
	cReads.Inc()
	cAlignments.Add(int64(len(alns)))
	if len(alns) == 0 {
		cUnmapped.Inc()
	}
	hCandidates.Observe(float64(st.Candidates))
	hMapLatency.Observe(float64(elapsed) / float64(time.Millisecond))
}

// MapRead maps a read against the reference, querying both strands
// (Figure 6: "the forward and reverse-complement of P reads are used
// as queries"). Alignments are sorted by descending score.
func (d *Darwin) MapRead(q dna.Seq) ([]ReadAlignment, MapStats) {
	endSpan := obs.Trace.Start("core.map_read")
	start := time.Now()
	out, stats := d.mapRead(q, nil)
	SortAlignments(out)
	publishRead(out, &stats, time.Since(start))
	endSpan()
	return out, stats
}

// mapRead runs the Fig. 6 pipeline for both orientations of q:
// alignments in extension order, forward strand first, not yet sorted
// or published. window, when non-nil, restricts each candidate's GACT
// extension to the reference segment [lo, hi) it names for the
// candidate's position, or drops the candidate (ok false) — the de novo
// overlap step clips to the target read and drops self-hits this way.
// Returned coordinates are global either way.
func (d *Darwin) mapRead(q dna.Seq, window func(refPos int) (lo, hi int, ok bool)) ([]ReadAlignment, MapStats) {
	var out []ReadAlignment
	var stats MapStats
	for _, rev := range []bool{false, true} {
		query := q
		if rev {
			d.revBuf = dna.AppendRevComp(d.revBuf[:0], q)
			query = d.revBuf
		}
		start := time.Now()
		cands, dst := d.filter.QueryInto(query, d.cands[:0])
		d.cands = cands
		stats.DSOFT.Add(dst)
		stats.Candidates += len(cands)
		stats.FiltrationTime += time.Since(start)

		if d.cfg.MaxCandidates > 0 && len(cands) > d.cfg.MaxCandidates {
			cands = cands[:d.cfg.MaxCandidates]
		}

		start = time.Now()
		for _, c := range cands {
			lo, hi := 0, len(d.ref)
			if window != nil {
				var ok bool
				if lo, hi, ok = window(c.RefPos); !ok {
					continue
				}
			}
			res, gst, err := d.engine.Extend(d.ref[lo:hi], query, c.RefPos-lo, c.QueryPos)
			if err != nil {
				continue // invalid anchor geometry; candidate is unusable
			}
			if res != nil {
				res.RefStart += lo
				res.RefEnd += lo
			}
			out = stats.AddExtension(out, res, gst, rev)
		}
		stats.AlignmentTime += time.Since(start)
	}
	return out, stats
}

// Best returns the highest-scoring alignment, or nil.
func Best(alns []ReadAlignment) *ReadAlignment {
	if len(alns) == 0 {
		return nil
	}
	return &alns[0]
}
