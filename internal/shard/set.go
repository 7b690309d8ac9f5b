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
	tBuild          = obs.Default.Timer("shard/build")
	cBuilds         = obs.Default.Counter("shard/builds")
	tLoad           = obs.Default.Timer("shard/load")
	cLoads          = obs.Default.Counter("shard/loads")
	cEvictions      = obs.Default.Counter("shard/evictions")
	cAcquireHits    = obs.Default.Counter("shard/acquire_hits")
	gResidentBytes  = obs.Default.Gauge("shard/resident_bytes")
	gResidentPeak   = obs.Default.Gauge("shard/resident_bytes_peak")
	gResidentShards = obs.Default.Gauge("shard/resident_shards")
)

// TableLoader materializes shard i's seed table from an external
// source — a persistent index file's per-shard sections — instead of a
// BuildRange pass. The Set stays loader-agnostic: a loaded table whose
// slices are views over mapped memory reports its mapped footprint
// through Table.Bytes, so the byte-budgeted LRU counts mapped bytes
// exactly as it counts rebuilt bytes.
type TableLoader func(i int) (*seedtable.Table, error)

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

// Set owns the shards of one partitioned reference: geometry, the
// shared global mask (so per-shard tables mask exactly the seeds the
// monolithic table would), and a byte-budgeted LRU of resident tables.
// Acquire is safe for concurrent use.
type Set struct {
	ref  dna.Seq
	k    int
	opts seedtable.Options // TableOptions with the global Mask injected
	geo  *Geometry
	load TableLoader // non-nil: tables load from a persistent index

	mu            sync.Mutex
	budget        int64
	residentBytes int64
	peakBytes     int64
	buildTime     time.Duration
	lru           *list.List // of *shardState, front = most recent
	shards        []*shardState
}

// NewSet partitions the reference and precomputes the global
// high-frequency seed mask (one O(refLen) pass, counted as index build
// time). No shard tables are built yet — they materialize on first
// Acquire.
func NewSet(ref dna.Seq, cfg core.Config, scfg Config) (*Set, error) {
	geo, err := Partition(len(ref), scfg.Shards, MinOverlap(cfg), cfg.BinSize)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := fpIndexBuild.Fire(); err != nil {
		return nil, fmt.Errorf("shard: computing global mask: %w", err)
	}
	mask, err := seedtable.ComputeMask(ref, cfg.SeedK, cfg.TableOptions)
	if err != nil {
		return nil, fmt.Errorf("shard: computing global mask: %w", err)
	}
	opts := cfg.TableOptions
	opts.Mask = mask
	s := &Set{
		ref:       ref,
		k:         cfg.SeedK,
		opts:      opts,
		geo:       geo,
		budget:    scfg.MaxResidentBytes,
		buildTime: time.Since(start),
		lru:       list.New(),
	}
	for i := range geo.Parts {
		s.shards = append(s.shards, &shardState{part: geo.Parts[i]})
	}
	return s, nil
}

// NewSetPrebuilt constructs a Set over an externally supplied geometry
// whose tables materialize through load instead of BuildRange — the
// persistent-index path, where geometry and tables come from a mapped
// file. The loader is invoked lazily per shard under the same
// singleflight and byte-budgeted LRU as organic builds, so eviction
// and re-acquire behave identically; only the materialization cost
// changes (a page-in versus a build).
func NewSetPrebuilt(ref dna.Seq, k int, geo *Geometry, maxResidentBytes int64, load TableLoader) (*Set, error) {
	if len(ref) == 0 {
		return nil, fmt.Errorf("shard: empty reference")
	}
	if geo == nil || len(geo.Parts) == 0 {
		return nil, fmt.Errorf("shard: prebuilt set needs a non-empty geometry")
	}
	if load == nil {
		return nil, fmt.Errorf("shard: prebuilt set needs a table loader")
	}
	if geo.RefLen != len(ref) {
		return nil, fmt.Errorf("shard: geometry covers %d bases but reference has %d", geo.RefLen, len(ref))
	}
	s := &Set{
		ref:    ref,
		k:      k,
		geo:    geo,
		load:   load,
		budget: maxResidentBytes,
		lru:    list.New(),
	}
	for i := range geo.Parts {
		s.shards = append(s.shards, &shardState{part: geo.Parts[i]})
	}
	return s, nil
}

// Geometry returns the partition.
func (s *Set) Geometry() *Geometry { return s.geo }

// Ref returns the concatenated reference.
func (s *Set) Ref() dna.Seq { return s.ref }

// Acquire returns shard i's seed table, building it if absent and
// evicting least-recently-used tables if the build pushes residency
// over budget. The most recently acquired shard is never evicted, so a
// caller's table stays valid while it queries it even if concurrent
// acquires of other shards thrash the budget; at least one shard stays
// resident no matter how small the budget is.
func (s *Set) Acquire(i int) (*seedtable.Table, error) {
	if i < 0 || i >= len(s.shards) {
		return nil, fmt.Errorf("shard: index %d out of range [0,%d)", i, len(s.shards))
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

	timer := tBuild
	if s.load != nil {
		timer = tLoad
	}
	stage := timer.Start(nil)
	if err := fpShardBuild.Fire(); err != nil {
		return nil, fmt.Errorf("shard: building shard %d: %w", i, err)
	}
	var t *seedtable.Table
	var err error
	if s.load != nil {
		t, err = s.load(i)
		if err != nil {
			return nil, fmt.Errorf("shard: loading shard %d: %w", i, err)
		}
		cLoads.Inc()
	} else {
		t, err = seedtable.BuildRange(s.ref, sh.part.Extent.Start, sh.part.Extent.End, s.k, s.opts)
		if err != nil {
			return nil, fmt.Errorf("shard: building shard %d: %w", i, err)
		}
		cBuilds.Inc()
	}
	elapsed := stage.End()

	s.mu.Lock()
	defer s.mu.Unlock()
	sh.table = t
	sh.elem = s.lru.PushFront(sh)
	s.residentBytes += t.Bytes()
	s.buildTime += elapsed
	for s.budget > 0 && s.residentBytes > s.budget && s.lru.Len() > 1 {
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
// global mask pass plus every shard table built (including rebuilds
// after eviction).
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
	// Bytes is the shard table's size when resident, 0 otherwise.
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
		infos[i] = ShardInfo{Index: i, Core: sh.part.Core}
		if sh.table != nil {
			infos[i].Resident = true
			infos[i].Bytes = sh.table.Bytes()
			st.Resident++
		}
	}
	return st, infos
}
