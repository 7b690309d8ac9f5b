package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/faults"
	"darwin/internal/indexfile"
	"darwin/internal/indexio"
	"darwin/internal/jobs"
	"darwin/internal/obs"
	"darwin/internal/sam"
	"darwin/internal/shard"
)

// cMapPanics counts mapping stages that panicked and were recovered
// into their request's error.
var cMapPanics = obs.Default.Counter("server/map_panics")

// Config assembles the service.
type Config struct {
	// DefaultRef is the reference FASTA warmed at startup; requests
	// that name no reference use it.
	DefaultRef string
	// DefaultIndex, when set, cold-starts the default reference from
	// this persistent index file (internal/indexfile) instead of
	// building from the FASTA. Loading it is mandatory: a broken
	// explicit index fails Warm rather than silently rebuilding.
	DefaultIndex string
	// DisableSidecar turns off automatic discovery of `<ref>.dwi`
	// sidecar index files next to reference FASTAs. Sidecars are
	// opportunistic: a sidecar that fails to load logs a warning and
	// falls back to a FASTA build.
	DisableSidecar bool
	// Core is the engine configuration applied to every index.
	Core core.Config
	// Shard, when enabled, serves every index through the sharded
	// scatter-gather engine with the given geometry and residency
	// budget instead of the monolithic engine.
	Shard shard.Config
	// CacheSize bounds resident indexes (default 4).
	CacheSize int
	// QueueBound caps the /v1/map requests waiting for a mapping slot
	// (one slot per CPU); a request past it is refused with 429
	// (default 256).
	QueueBound int
	// ReadDeadline bounds one read's wall-clock mapping time
	// (core.WithDeadlinePerRead); zero disables it. One stuck read then
	// fails individually instead of stalling its request.
	ReadDeadline time.Duration
	// RequestTimeout caps per-request wall time (default 60s); a
	// request's timeout_ms can only shorten it.
	RequestTimeout time.Duration
	// MaxReadsPerRequest rejects oversized requests (default 1024).
	MaxReadsPerRequest int
	// MaxBodyBytes caps request bodies (default 64 MiB).
	MaxBodyBytes int64
	// AllowRefLoad permits requests to name reference FASTA paths,
	// loading them on demand into the cache. Off by default: a serving
	// deployment usually pins its reference set.
	AllowRefLoad bool
	// IndexBudgetFrac splits a request's deadline across its stages:
	// an on-demand index load may consume at most this fraction of the
	// request timeout before the request gives up waiting (the build
	// itself continues for future requests); the map stage gets
	// whatever remains of the total. Default 0.5.
	IndexBudgetFrac float64
	// BreakerThreshold is how many consecutive build failures for one
	// reference source open its circuit breaker (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects before
	// admitting a probe build (default 5s).
	BreakerCooldown time.Duration
	// Logger receives the service's structured logs, including the
	// per-request access lines (default slog.Default()).
	Logger *slog.Logger
	// SlowCapture is how many of the slowest requests to retain with
	// their full span trees for the /debug/slow endpoint and the drain
	// dump (default 16).
	SlowCapture int
	// Worker enables cluster-worker mode: the /v1/shards ownership
	// endpoint and the shard-scoped /v1/cluster/scatter API a router
	// fans sub-requests out to. Requires Shard to be enabled.
	Worker WorkerConfig
	// Jobs, when non-nil, enables the assembly job API (/v1/jobs): the
	// manager owns execution and persistence, the server is its HTTP
	// face. The caller wires the manager's Recover/Drain into the
	// process lifecycle.
	Jobs *jobs.Manager
}

func (c Config) withDefaults() Config {
	if c.CacheSize <= 0 {
		c.CacheSize = 4
	}
	if c.IndexBudgetFrac <= 0 || c.IndexBudgetFrac > 1 {
		c.IndexBudgetFrac = 0.5
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.QueueBound <= 0 {
		c.QueueBound = 256
	}
	c.Worker = c.Worker.withDefaults()
	return c
}

// Server is the darwind service: index cache + admission gates behind
// the serving front the cluster router shares.
type Server struct {
	*Front
	cfg   Config
	cache *IndexCache

	// mapGate admits /v1/map requests: one slot per CPU, QueueBound
	// waiters. scatterGate admits cluster sub-requests in worker mode:
	// ScatterConcurrency slots and no waiters, because the router
	// prefers a fast 429 it can fail over or hedge against to a queue
	// that smears tail latency.
	mapGate     *gate
	scatterGate *gate
	scatterEP   *Endpoint

	defaultEntry atomic.Pointer[IndexEntry]

	// breakers holds one circuit breaker per index key, so one doomed
	// reference fails fast without touching any other source's builds.
	brMu     sync.Mutex
	breakers map[string]*Breaker

	// jobs is the assembly job manager (nil when the job API is off).
	jobs *jobs.Manager
}

// New assembles a server; call Warm to load the default index and
// mark it ready.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		Front:       NewFront("server", cfg.Logger, cfg.RequestTimeout, cfg.MaxReadsPerRequest, cfg.MaxBodyBytes, cfg.SlowCapture),
		cfg:         cfg,
		cache:       NewIndexCache(cfg.CacheSize),
		mapGate:     newGate(core.DefaultWorkers(0), cfg.QueueBound),
		scatterGate: newGate(cfg.Worker.ScatterConcurrency, 0),
		breakers:    make(map[string]*Breaker),
	}
	s.Front.tierStats = s.darwindStats
	s.HandleFunc("/v1/map", s.handleMap)
	s.HandleFunc("/v1/indexes", s.handleIndexes)
	s.scatterEP = s.endpoint("scatter_requests", "scatter_requests_failed", "scatter_canceled", "scatter_reads", true)
	if cfg.Worker.Enabled {
		s.HandleFunc("/v1/shards", s.handleShards)
		s.HandleFunc("/v1/cluster/scatter", s.handleScatter)
	}
	if cfg.Jobs != nil {
		s.jobs = cfg.Jobs
		s.HandleFunc("/v1/jobs", s.handleJobs)
		s.HandleFunc("/v1/jobs/", s.handleJob)
	}
	return s
}

// Warm loads the default reference into the cache and marks the
// server ready. Blocking by design: readiness means the index is
// resident, so the first request is as fast as the millionth.
func (s *Server) Warm(ctx context.Context) error {
	if s.cfg.DefaultRef == "" {
		return fmt.Errorf("server: no default reference configured")
	}
	entry, _, err := s.loadEntry(ctx, s.cfg.DefaultRef)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.cfg.Worker.Enabled {
		// Worker readiness includes the owned shards being resident:
		// the first sub-request must be as fast as the millionth, and a
		// geometry the cluster map disagrees with must fail boot, not
		// the first scatter.
		if err := s.warmOwnedShards(ctx, entry); err != nil {
			return err
		}
	}
	s.defaultEntry.Store(entry)
	s.SetReady()
	return nil
}

// Drain completes a graceful shutdown: after StartDrain it closes both
// admission gates and waits for every request they admitted, waiting
// or mapping, to finish. Returns ctx.Err() if the deadline passes with
// work still in flight.
func (s *Server) Drain(ctx context.Context) error {
	s.StartDrain()
	if err := s.mapGate.drain(ctx); err != nil {
		return err
	}
	return s.scatterGate.drain(ctx)
}

// breakerFor returns (creating if needed) the circuit breaker for an
// index key.
func (s *Server) breakerFor(key string) *Breaker {
	s.brMu.Lock()
	defer s.brMu.Unlock()
	br, ok := s.breakers[key]
	if !ok {
		br = NewBreaker(s.cfg.BreakerThreshold, s.cfg.BreakerCooldown)
		s.breakers[key] = br
	}
	return br
}

// sourceFor names where a reference source (a FASTA path) is opened
// from: the explicitly configured DefaultIndex when source is the
// default reference, else the FASTA itself with `<source>.dwi` sidecar
// discovery unless disabled. What a failed index load means for each
// is indexio.OpenSource's rule.
func (s *Server) sourceFor(source string) indexio.Source {
	src := indexio.Source{Path: source, Sidecar: !s.cfg.DisableSidecar}
	if s.cfg.DefaultIndex != "" && source == s.cfg.DefaultRef {
		src.Index = s.cfg.DefaultIndex
	}
	return src
}

// loadEntry resolves source (a FASTA path) to a warm index via the
// cache. ctx bounds only how long this caller waits — a build that
// outlives it still completes and is cached for future requests. The
// source's circuit breaker wraps the build: once it opens, requests
// fail fast with ErrCircuitOpen instead of re-queuing a doomed build,
// and a breaker rejection is never itself counted as a build failure.
//
// When a persistent index file resolves for the source, its content
// fingerprint joins the cache key — rewriting the file invalidates the
// cached entry (a file whose header cannot be read leaves the key
// unsalted, and the open below decides whether that is fatal) — and
// the singleflighted "build" maps the file instead of indexing the
// FASTA. A mapped load is just a fast build: breaker accounting and
// the index-stage budget apply unchanged.
func (s *Server) loadEntry(ctx context.Context, source string) (*IndexEntry, bool, error) {
	key := IndexKey(source, s.cfg.Core, s.cfg.Shard)
	src := s.sourceFor(source)
	if ipath, _ := src.IndexFile(); ipath != "" {
		if fp, err := indexfile.ReadFingerprint(ipath); err == nil {
			key += fmt.Sprintf("|dwi=%016x", fp)
		}
	}
	br := s.breakerFor(key)
	return s.cache.Get(ctx, key, func() (*IndexEntry, error) {
		if !br.Allow() {
			return nil, fmt.Errorf("%w: reference %q (retry after %v)", ErrCircuitOpen, source, s.cfg.BreakerCooldown)
		}
		// buildRecovered here (not just in the cache) so a panicking
		// build counts as a breaker failure like any other.
		entry, err := buildRecovered(func() (*IndexEntry, error) {
			start := time.Now()
			l, err := indexio.OpenSource(src, s.cfg.Core, s.cfg.Shard)
			if err != nil {
				return nil, fmt.Errorf("server: opening reference %s: %w", source, err)
			}
			e := newIndexEntry(key, l, cap(s.mapGate.slots))
			if l.File != nil {
				tIndexLoad.Observe(time.Since(start))
				s.log.Info("index mapped from file",
					"path", e.IndexFile, "mapped_bytes", e.MappedBytes,
					"fingerprint", fmt.Sprintf("%016x", e.Fingerprint))
				return e, nil
			}
			tIndexBuild.Observe(time.Since(start))
			if l.Fallback != nil {
				s.log.Warn("sidecar index load failed; rebuilding from FASTA",
					"path", indexfile.SidecarPath(source), "error", l.Fallback)
			}
			return e, nil
		})
		if err != nil {
			br.Failure()
			return nil, err
		}
		br.Success()
		return entry, nil
	})
}

// retryAfterSeconds rounds a cooldown up to whole seconds for the
// Retry-After header (minimum 1).
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func (s *Server) handleIndexes(w http.ResponseWriter, _ *http.Request) {
	type shardingInfo struct {
		shard.Stats
		Shards []shard.ShardInfo `json:"shard_detail"`
	}
	type indexInfo struct {
		Key          string        `json:"key"`
		Sequences    int           `json:"sequences"`
		Bases        int           `json:"bases"`
		BuildSeconds float64       `json:"build_seconds"`
		IndexFile    string        `json:"index_file,omitempty"`
		Fingerprint  string        `json:"index_fingerprint,omitempty"`
		MappedBytes  int64         `json:"mapped_bytes,omitempty"`
		Sharding     *shardingInfo `json:"sharding,omitempty"`
	}
	out := []indexInfo{}
	for _, e := range s.cache.Entries() {
		info := indexInfo{
			Key:          e.Key,
			Sequences:    e.Ref.NumSeqs(),
			Bases:        len(e.Ref.Seq()),
			BuildSeconds: e.BuildTime.Seconds(),
			IndexFile:    e.IndexFile,
			MappedBytes:  e.MappedBytes,
		}
		if e.Fingerprint != 0 {
			info.Fingerprint = fmt.Sprintf("%016x", e.Fingerprint)
		}
		if e.Shards != nil {
			st, detail := e.Shards.Snapshot()
			info.Sharding = &shardingInfo{Stats: st, Shards: detail}
		}
		out = append(out, info)
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

// ReadInput is one query read on the wire.
type ReadInput struct {
	Name string  `json:"name"`
	Seq  dna.Seq `json:"seq"`
}

// MapRequest is the /v1/map request body.
type MapRequest struct {
	// Reference names a FASTA path to map against; empty uses the
	// warm default. Non-default references require AllowRefLoad.
	Reference string `json:"reference,omitempty"`
	// Reads are the queries (at least one).
	Reads []ReadInput `json:"reads"`
	// All reports every alignment per read instead of only the best.
	All bool `json:"all,omitempty"`
	// TimeoutMS optionally shortens the server's request deadline.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// MapResponseLine is one NDJSON response line: a read's SAM records,
// stamped with the request identity so any line quoted from a log or
// a client joins back to the server-side trace.
type MapResponseLine struct {
	Read      string       `json:"read"`
	Mapped    bool         `json:"mapped"`
	Records   []sam.Record `json:"records,omitempty"`
	Error     string       `json:"error,omitempty"`
	RequestID string       `json:"request_id,omitempty"`
}

func (s *Server) handleMap(w http.ResponseWriter, r *http.Request) {
	ep := s.Map()
	body, reads, timeout, ok := ep.Read(w, r)
	if !ok {
		return
	}
	req := body.MapRequest

	// The total budget is split across stages — an on-demand index load
	// may consume at most IndexBudgetFrac of it, the map stage gets
	// whatever remains.
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// Resolve the index: warm default, or an on-demand load when the
	// deployment allows it.
	entry := s.defaultEntry.Load()
	if req.Reference != "" && req.Reference != s.cfg.DefaultRef {
		if !s.cfg.AllowRefLoad {
			ep.Reject(w, r, http.StatusForbidden, CodeRefLoadDisabled, "on-demand reference loading is disabled (-allow-ref-load)")
			return
		}
		indexBudget := time.Duration(float64(timeout) * s.cfg.IndexBudgetFrac)
		ictx, icancel := context.WithTimeout(ctx, indexBudget)
		idxSpan := obs.SpanFromContext(ctx).StartChild("server.index")
		entry2, hit, err := s.loadEntry(ictx, req.Reference)
		icancel()
		if hit {
			idxSpan.SetAttr("cache_hit", 1)
		}
		idxSpan.End()
		if err != nil {
			switch {
			case errors.Is(err, ErrCircuitOpen):
				w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSeconds(s.cfg.BreakerCooldown)))
				ep.Reject(w, r, http.StatusServiceUnavailable, CodeCircuitOpen, "reference %q: %v", req.Reference, err)
			case errors.Is(err, context.DeadlineExceeded):
				ep.Reject(w, r, http.StatusGatewayTimeout, CodeDeadline,
					"index build for %q exceeded its stage budget (%v of the request deadline)", req.Reference, indexBudget)
			case faults.IsInjected(err):
				ep.Reject(w, r, http.StatusServiceUnavailable, CodeFaultInjected, "loading reference %q: %v", req.Reference, err)
			default:
				ep.Reject(w, r, http.StatusBadRequest, CodeRefLoadFailed, "loading reference %q: %v", req.Reference, err)
			}
			return
		}
		entry = entry2
	}
	if entry == nil {
		ep.Reject(w, r, http.StatusServiceUnavailable, CodeNoIndex, "no default index")
		return
	}

	results, err := s.mapReads(ctx, entry, reads)
	if err != nil {
		if ctx.Err() != nil {
			cJobsCancelled.Inc()
		}
		ep.Fail(ctx, w, r, err, http.StatusInternalServerError, CodeInternal)
		return
	}
	s.WriteResults(w, r, entry.Ref, entry.SQ, req, results)
}

// mapReads is the map stage of one /v1/map request: wait for a slot of
// the map gate, then map the reads with one worker on a pooled engine
// clone, under the request's own context — a request that is cancelled
// or out of time stops mapping at its next read and frees its slot.
//
// The slot is the shared resource a faulty request must not take down:
// a panic anywhere in the stage (or injected at server/flush) is
// recovered into the request's error. Per-read failures never reach
// this level — core's Map confines them to MapResult.Err.
func (s *Server) mapReads(ctx context.Context, entry *IndexEntry, reads []dna.Seq) (results []core.MapResult, err error) {
	span := obs.SpanFromContext(ctx)
	enqueued := time.Now()
	err = s.mapGate.acquire(ctx)
	if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrDraining) {
		cJobsRejected.Inc()
		return nil, err
	}
	cJobs.Inc()
	wait := time.Since(enqueued)
	hQueueWait.Observe(float64(wait) / float64(time.Millisecond))
	span.AddTimedChild("server.queue_wait", enqueued, wait)
	if err != nil {
		return nil, err // ctx ended before a slot came free
	}
	defer s.mapGate.release()

	stage := span.StartChild("server.map")
	defer stage.End()
	defer func() {
		if r := recover(); r != nil {
			cMapPanics.Inc()
			results, err = nil, fmt.Errorf("server: mapping panicked: %v", r)
		}
	}()
	stage.SetAttr("reads", int64(len(reads)))
	if err := fpFlush.Fire(); err != nil {
		return nil, err
	}
	engine, err := entry.Acquire()
	if err != nil {
		return nil, err
	}
	results, err = engine.Map(obs.ContextWithSpan(ctx, stage), reads,
		core.WithWorkers(1), core.WithDeadlinePerRead(s.cfg.ReadDeadline))
	// Not deferred: a clone that panicked mid-read is not pooled again.
	entry.Release(engine)
	return results, err
}

// RecordsFor converts one read's alignments to SAM records — the same
// emission logic as cmd/darwin, shared by both response formats and by
// the cluster router (which holds only a layout Reference; ref's
// coordinate methods are all this needs). Byte-identical SAM across
// the monolith and the cluster hinges on every tier emitting through
// this one function.
func RecordsFor(ref *core.Reference, name string, seq dna.Seq, alns []core.ReadAlignment, all bool) []sam.Record {
	if len(alns) == 0 {
		return []sam.Record{{QName: name, Flag: sam.FlagUnmapped, Seq: seq}}
	}
	emit := alns[:1]
	if all {
		emit = alns
	}
	var out []sam.Record
	for _, a := range emit {
		seqIdx, localStart, _, err := ref.LocateSpan(a.Result.RefStart, a.Result.RefEnd)
		if err != nil {
			continue // degenerate cross-sequence span
		}
		flagBits := 0
		outSeq := seq
		if a.Reverse {
			flagBits |= sam.FlagReverse
			outSeq = dna.RevComp(seq)
		}
		out = append(out, sam.Record{
			QName: name,
			Flag:  flagBits,
			RName: ref.Name(seqIdx),
			Pos:   localStart,
			MapQ:  60,
			Cigar: sam.CigarWithClips(a.Result.Cigar, a.Result.QueryStart, a.Result.QueryEnd, len(outSeq)),
			Seq:   outSeq,
			Tags:  []string{fmt.Sprintf("AS:i:%d", a.Result.Score), fmt.Sprintf("ft:i:%d", a.FirstTileScore)},
		})
	}
	if len(out) == 0 {
		return []sam.Record{{QName: name, Flag: sam.FlagUnmapped, Seq: seq}}
	}
	return out
}
