// Package server is the darwind serving layer: a resident index
// cache, an admission gate that runs each request's context-bounded
// Map call on its own core, and the HTTP/JSON front end with graceful
// drain.
//
// The paper's co-processor only reaches its headline throughput
// because the host amortizes index construction: the reference seed
// table is built once and reused across every read (Section 5; Table
// 3 separates the one-time index cost from per-read filter+align
// work). A batch CLI pays that cost per invocation; a long-running
// service pays it once. This package is the software realization of
// that host-side regime — warm indexes, every core mapping, and
// explicit backpressure when offered load exceeds capacity.
package server

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"time"

	"darwin/internal/core"
	"darwin/internal/indexio"
	"darwin/internal/obs"
	"darwin/internal/sam"
	"darwin/internal/shard"
)

// Index-cache observability.
var (
	cCacheHits      = obs.Default.Counter("server/index_cache_hits")
	cCacheMisses    = obs.Default.Counter("server/index_cache_misses")
	cCacheEvictions = obs.Default.Counter("server/index_cache_evictions")
	tIndexBuild     = obs.Default.Timer("server/index_build")
	tIndexLoad      = obs.Default.Timer("server/index_load")
	gCacheEntries   = obs.Default.Gauge("server/index_cache_entries")
)

// IndexEntry is one resident index: a warm engine plus the reference
// metadata needed to emit SAM records, and a small pool of engine
// clones so concurrent single-worker requests never share mutable
// D-SOFT bin state.
type IndexEntry struct {
	// Key identifies the entry in the cache.
	Key string
	// Engine is the warm engine — monolithic (*core.Darwin) or sharded
	// (*shard.ScatterMapper). Never call MapRead on it directly from
	// concurrent request paths — acquire a clone.
	Engine core.Mapper
	// Shards is the sharded engine's residency-managed set; nil for a
	// monolithic index. Exposed for /v1/indexes reporting.
	Shards *shard.Set
	// Ref maps concatenated coordinates back to sequence names.
	Ref *core.Reference
	// SQ is the SAM @SQ header set for this reference.
	SQ []sam.RefSeq
	// BuildTime is the one-time index construction cost this cache
	// amortizes (the paper's Table 3 accounting). For sharded indexes
	// it covers the global mask pass; shard tables build lazily.
	BuildTime time.Duration
	// IndexFile is the persistent index file this entry was mapped
	// from; empty for entries built from FASTA.
	IndexFile string
	// Fingerprint is the mapped index file's content fingerprint
	// (zero for built entries). It is folded into the cache key, so a
	// rewritten sidecar yields a new entry instead of serving stale
	// tables.
	Fingerprint uint64
	// MappedBytes is the size of the mapping backing this entry's
	// tables and reference (zero for built entries).
	MappedBytes int64

	clones chan core.Mapper
}

// newIndexEntry wraps an opened reference as a cache entry, keeping up
// to poolSize idle clones. For a mapped index file the mapping lives as
// long as the process (the entry's engine aliases it), so the file is
// never closed here.
func newIndexEntry(key string, l *indexio.Loaded, poolSize int) *IndexEntry {
	if poolSize < 1 {
		poolSize = 1
	}
	sqs := make([]sam.RefSeq, l.Ref.NumSeqs())
	for i := range sqs {
		sqs[i] = sam.RefSeq{Name: l.Ref.Name(i), Len: l.Ref.Len(i)}
	}
	e := &IndexEntry{
		Key:       key,
		Engine:    l.Mapper,
		Shards:    l.Set,
		Ref:       l.Ref,
		SQ:        sqs,
		BuildTime: l.Mapper.IndexBuildTime(),
		clones:    make(chan core.Mapper, poolSize),
	}
	if l.File != nil {
		e.IndexFile = l.File.Path()
		e.Fingerprint = l.File.Info().Fingerprint
		e.MappedBytes = l.File.MappedBytes()
	}
	return e
}

// Acquire returns an engine clone for exclusive use; pair with
// Release. Clones share the immutable seed table (and, for sharded
// indexes, the residency budget), so this is cheap relative to an
// index build but still worth pooling per request.
func (e *IndexEntry) Acquire() (core.Mapper, error) {
	select {
	case c := <-e.clones:
		return c, nil
	default:
		return e.Engine.CloneMapper()
	}
}

// Release returns a clone to the pool (dropped if the pool is full).
func (e *IndexEntry) Release(c core.Mapper) {
	select {
	case e.clones <- c:
	default:
	}
}

// IndexKey derives the cache key for a reference source, engine
// configuration, and shard geometry: two requests share an index only
// if every parameter that shapes the seed table, filter, or sharding
// (shard count/size, overlap, residency budget) matches.
func IndexKey(source string, cfg core.Config, scfg shard.Config) string {
	return fmt.Sprintf("%s|k=%d n=%d stride=%d h=%d B=%d htile=%d gact=%+v table=%+v maxcand=%d shard=%+v",
		source, cfg.SeedK, cfg.SeedN, cfg.SeedStride, cfg.Threshold, cfg.BinSize, cfg.HTile,
		cfg.GACT, cfg.TableOptions, cfg.MaxCandidates, scfg)
}

// buildCall is one in-flight singleflight build.
type buildCall struct {
	done  chan struct{}
	entry *IndexEntry
	err   error
}

// IndexCache is an LRU cache of warm indexes with singleflight
// builds: concurrent requests for the same key wait on one build
// instead of each paying the index cost the cache exists to amortize.
type IndexCache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used; values are *IndexEntry
	entries  map[string]*list.Element
	inflight map[string]*buildCall
}

// NewIndexCache returns a cache holding at most capacity indexes
// (minimum 1).
func NewIndexCache(capacity int) *IndexCache {
	if capacity < 1 {
		capacity = 1
	}
	return &IndexCache{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*buildCall),
	}
}

// Get returns the entry for key, building it with build on a miss.
// Concurrent Gets for the same missing key run build exactly once and
// share its result (including its error — a failed build is not
// cached, so a later Get retries).
//
// The build runs in its own goroutine: every waiter — the leader
// included — selects on the build finishing or its own ctx ending, so
// a request's index-stage budget bounds how long it waits for a slow
// build without killing the build itself (the finished index is still
// inserted for future requests). A panicking build is recovered into
// a build error; the panic poisons nothing but that attempt.
func (c *IndexCache) Get(ctx context.Context, key string, build func() (*IndexEntry, error)) (*IndexEntry, bool, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.mu.Unlock()
		cCacheHits.Inc()
		return el.Value.(*IndexEntry), true, nil
	}
	call, shared := c.inflight[key]
	if !shared {
		call = &buildCall{done: make(chan struct{})}
		c.inflight[key] = call
		cCacheMisses.Inc()
		go func() {
			entry, err := buildRecovered(build)
			call.entry, call.err = entry, err
			c.mu.Lock()
			delete(c.inflight, key)
			if err == nil {
				c.insertLocked(key, entry)
			}
			c.mu.Unlock()
			close(call.done)
		}()
	}
	c.mu.Unlock()

	select {
	case <-call.done:
	case <-ctx.Done():
		return nil, false, fmt.Errorf("server: waiting for index build: %w", ctx.Err())
	}
	if call.err != nil {
		return nil, false, call.err
	}
	if shared {
		// The leader's build satisfied us too; count it as a hit on
		// the shared build.
		cCacheHits.Inc()
	}
	return call.entry, shared, nil
}

// buildRecovered runs build with panic containment: an index build
// that panics (poisoned input, injected fault) fails that one build
// attempt instead of crashing the process.
func buildRecovered(build func() (*IndexEntry, error)) (entry *IndexEntry, err error) {
	defer func() {
		if r := recover(); r != nil {
			entry, err = nil, fmt.Errorf("server: index build panicked: %v", r)
		}
	}()
	return build()
}

// insertLocked adds an entry, evicting from the LRU tail past
// capacity. Evicted entries are simply unreferenced; in-flight
// requests holding them finish normally.
func (c *IndexCache) insertLocked(key string, entry *IndexEntry) {
	if el, ok := c.entries[key]; ok {
		el.Value = entry
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(entry)
	for c.order.Len() > c.capacity {
		tail := c.order.Back()
		evicted := tail.Value.(*IndexEntry)
		c.order.Remove(tail)
		delete(c.entries, evicted.Key)
		cCacheEvictions.Inc()
	}
	gCacheEntries.Set(int64(c.order.Len()))
}

// Len returns the number of resident indexes.
func (c *IndexCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Entries returns the resident entries, most recently used first.
func (c *IndexCache) Entries() []*IndexEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*IndexEntry, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*IndexEntry))
	}
	return out
}
