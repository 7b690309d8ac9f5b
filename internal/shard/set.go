package shard

import (
	"container/list"
	"fmt"
	"sync"
	"time"

	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/obs"
	"darwin/internal/seedtable"
)

// Shard-set observability: build cost and residency. The gauges are
// process-wide (mirroring the most recently active set), while each Set
// also tracks its own resident/peak bytes so tests and /v1/indexes can
// assert per-index budgets.
var (
	tIndex          = obs.Default.Timer("stage/index") // core.New's: the index builds of a run's stage accounting, lazy shard builds included
	tBuild          = obs.Default.Timer("shard/build")
	cBuilds         = obs.Default.Counter("shard/builds")
	cEvictions      = obs.Default.Counter("shard/evictions")
	cAcquireHits    = obs.Default.Counter("shard/acquire_hits")
	gResidentBytes  = obs.Default.Gauge("shard/resident_bytes")
	gResidentPeak   = obs.Default.Gauge("shard/resident_bytes_peak")
	gResidentShards = obs.Default.Gauge("shard/resident_shards")
)

// Config is the shard geometry and residency budget: one type with
// core.ShardSpec, so no layer copies it field by field.
type Config = core.ShardSpec

// shardState is one shard's lazily built seed table plus its LRU hook.
// The per-shard mutex singleflights concurrent builds of the same
// shard; the Set mutex guards table/elem/residency bookkeeping. Lock
// order is always shard.mu before Set.mu.
type shardState struct {
	part  Part
	mu    sync.Mutex
	table *seedtable.Table
	elem  *list.Element
}

// Set owns the shards of one partitioned reference: geometry and seed
// tables. With no residency budget every shard maps on one
// whole-reference table (whole); under a budget each shard has its own
// table over its extent, built lazily under the shared global mask (so
// it masks exactly the seeds the whole table would) and held in a
// byte-budgeted LRU. Acquire is safe for concurrent use.
type Set struct {
	ref   dna.Seq
	k     int
	opts  seedtable.Options // TableOptions with the global Mask injected (budgeted sets)
	geo   *Geometry
	whole *seedtable.Table // nil under a budget

	mu            sync.Mutex
	budget        int64
	residentBytes int64
	peakBytes     int64
	buildTime     time.Duration
	lru           *list.List // of *shardState, front = most recent
	shards        []*shardState
}

// NewSet partitions the reference and builds what its budget calls
// for, counted as index build time: with no budget the one
// whole-reference table, under one only the global high-frequency seed
// mask (one O(refLen) pass), the shard tables materializing on first
// Acquire.
func NewSet(ref dna.Seq, cfg core.Config, scfg Config) (*Set, error) {
	s, err := newSet(ref, cfg, scfg)
	if err != nil {
		return nil, err
	}
	stage := tIndex.Start(nil)
	if err := fpIndexBuild.Fire(); err != nil {
		return nil, fmt.Errorf("shard: building the seed index: %w", err)
	}
	if s.budget == 0 {
		t, err := seedtable.Build(ref, cfg.SeedK, cfg.TableOptions)
		if err != nil {
			return nil, fmt.Errorf("shard: building the seed table: %w", err)
		}
		s.hold(t)
	} else if s.opts.Mask, err = seedtable.ComputeMask(ref, cfg.SeedK, cfg.TableOptions); err != nil {
		return nil, fmt.Errorf("shard: computing global mask: %w", err)
	}
	s.buildTime = stage.End()
	return s, nil
}

// NewSetFrom is NewSet over index content that already exists — a
// persistent index's whole-reference table and its global mask — so no
// build pass runs at construction: with no budget every shard maps on
// table, under one the shard tables are built from ref under mask.
// Only the one the budget calls for is read; the other may be nil.
func NewSetFrom(ref dna.Seq, cfg core.Config, scfg Config, table *seedtable.Table, mask *seedtable.MaskSet) (*Set, error) {
	s, err := newSet(ref, cfg, scfg)
	if err != nil {
		return nil, err
	}
	switch {
	case s.budget > 0 && mask == nil:
		return nil, fmt.Errorf("shard: a budgeted set needs the global mask")
	case s.budget > 0:
		s.opts.Mask = mask
	case table == nil || table.K() != cfg.SeedK || table.RefLen() != len(ref):
		return nil, fmt.Errorf("shard: the whole-reference table does not index this %d bp reference at k=%d", len(ref), cfg.SeedK)
	default:
		s.hold(table)
	}
	return s, nil
}

// newSet partitions ref under cfg's margin; the tables come later.
func newSet(ref dna.Seq, cfg core.Config, scfg Config) (*Set, error) {
	geo, err := Partition(len(ref), scfg.Shards, MinOverlap(cfg), cfg.BinSize)
	if err != nil {
		return nil, err
	}
	s := &Set{
		ref:    ref,
		k:      cfg.SeedK,
		opts:   cfg.TableOptions,
		geo:    geo,
		budget: scfg.MaxResidentBytes,
		lru:    list.New(),
	}
	for i := range geo.Parts {
		s.shards = append(s.shards, &shardState{part: geo.Parts[i]})
	}
	return s, nil
}

// hold makes t the whole-reference table every shard maps on.
func (s *Set) hold(t *seedtable.Table) {
	s.whole = t
	s.residentBytes, s.peakBytes = t.Bytes(), t.Bytes()
	gResidentBytes.Set(s.residentBytes)
	gResidentPeak.Set(s.peakBytes)
	gResidentShards.Set(int64(len(s.shards)))
}

// Geometry returns the partition.
func (s *Set) Geometry() *Geometry { return s.geo }

// Ref returns the concatenated reference.
func (s *Set) Ref() dna.Seq { return s.ref }

// Acquire returns the table shard i maps on: the whole-reference table
// when the set has no budget; otherwise shard i's own, building it if
// absent and evicting least-recently-used tables if the build pushes
// residency over budget. The most recently acquired shard is never
// evicted, so a caller's table stays valid while it queries it even if
// concurrent acquires of other shards thrash the budget; at least one
// shard stays resident no matter how small the budget is.
func (s *Set) Acquire(i int) (*seedtable.Table, error) {
	if i < 0 || i >= len(s.shards) {
		return nil, fmt.Errorf("shard: index %d out of range [0,%d)", i, len(s.shards))
	}
	if s.whole != nil {
		cAcquireHits.Inc()
		return s.whole, nil
	}
	sh := s.shards[i]
	s.mu.Lock()
	if sh.table != nil {
		s.lru.MoveToFront(sh.elem)
		t := sh.table
		s.mu.Unlock()
		cAcquireHits.Inc()
		return t, nil
	}
	s.mu.Unlock()

	sh.mu.Lock()
	defer sh.mu.Unlock()
	s.mu.Lock()
	if sh.table != nil { // another goroutine built it while we waited
		s.lru.MoveToFront(sh.elem)
		t := sh.table
		s.mu.Unlock()
		cAcquireHits.Inc()
		return t, nil
	}
	s.mu.Unlock()

	// A lazy build is index work, so it counts under stage/index too;
	// Acquire runs between the other stages, never inside one.
	index := tIndex.Start(nil)
	stage := tBuild.Start(nil)
	if err := fpShardBuild.Fire(); err != nil {
		return nil, fmt.Errorf("shard: building shard %d: %w", i, err)
	}
	t, err := seedtable.BuildRange(s.ref, sh.part.Extent.Start, sh.part.Extent.End, s.k, s.opts)
	if err != nil {
		return nil, fmt.Errorf("shard: building shard %d: %w", i, err)
	}
	cBuilds.Inc()
	elapsed := stage.End()
	index.End()

	s.mu.Lock()
	defer s.mu.Unlock()
	sh.table = t
	sh.elem = s.lru.PushFront(sh)
	s.residentBytes += t.Bytes()
	s.buildTime += elapsed
	for s.residentBytes > s.budget && s.lru.Len() > 1 {
		victim := s.lru.Back().Value.(*shardState)
		s.residentBytes -= victim.table.Bytes()
		s.lru.Remove(victim.elem)
		victim.table = nil // the GC reclaims it once in-flight queries drop it
		victim.elem = nil
		cEvictions.Inc()
	}
	if s.residentBytes > s.peakBytes {
		s.peakBytes = s.residentBytes
	}
	gResidentBytes.Set(s.residentBytes)
	gResidentPeak.Set(s.peakBytes)
	gResidentShards.Set(int64(s.lru.Len()))
	return t, nil
}

// BuildTime returns cumulative index-construction time so far: the
// whole-reference table, or the global mask pass plus every shard
// table built (including rebuilds after eviction); zero for a set over
// a persistent index that built nothing yet.
func (s *Set) BuildTime() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buildTime
}

// ResidentBytes returns current resident seed-table bytes.
func (s *Set) ResidentBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.residentBytes
}

// PeakResidentBytes returns the high-water mark of resident bytes.
func (s *Set) PeakResidentBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peakBytes
}

// ShardInfo is one shard's residency snapshot for /v1/indexes.
type ShardInfo struct {
	Index    int  `json:"index"`
	Core     Span `json:"core"`
	Resident bool `json:"resident"`
	// Bytes is the shard's own table's size when resident, 0 otherwise
	// — and 0 for every shard of a set with no budget, whose one
	// whole-reference table Stats.ResidentBytes reports once.
	Bytes int64 `json:"bytes"`
}

// Stats is a point-in-time residency summary.
type Stats struct {
	Shards        int   `json:"shards"`
	Resident      int   `json:"resident"`
	ShardSize     int   `json:"shard_size"`
	Overlap       int   `json:"overlap"`
	ResidentBytes int64 `json:"resident_bytes"`
	PeakBytes     int64 `json:"peak_resident_bytes"`
	BudgetBytes   int64 `json:"budget_bytes"`
}

// Snapshot returns the residency summary and the per-shard detail.
func (s *Set) Snapshot() (Stats, []ShardInfo) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Shards:        len(s.shards),
		ShardSize:     s.geo.ShardSize,
		Overlap:       s.geo.Overlap,
		ResidentBytes: s.residentBytes,
		PeakBytes:     s.peakBytes,
		BudgetBytes:   s.budget,
	}
	infos := make([]ShardInfo, len(s.shards))
	for i, sh := range s.shards {
		infos[i] = ShardInfo{Index: i, Core: sh.part.Core, Resident: s.whole != nil}
		if sh.table != nil {
			infos[i].Resident = true
			infos[i].Bytes = sh.table.Bytes()
		}
		if infos[i].Resident {
			st.Resident++
		}
	}
	return st, infos
}
