package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"darwin/internal/core"
	"darwin/internal/dna"
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

// The one-time cost of the resident index: a FASTA build or a mapped
// index file.
var (
	tIndexBuild = obs.Default.Timer("server/index_build")
	tIndexLoad  = obs.Default.Timer("server/index_load")
)

// Config assembles the service.
type Config struct {
	// DefaultRef is the reference FASTA warmed at startup, the one
	// reference the server maps against.
	DefaultRef string
	// DefaultIndex, when set, cold-starts the default reference from
	// this persistent index file (internal/indexfile) instead of
	// building from the FASTA. Loading it is mandatory: a broken
	// explicit index fails Warm rather than silently rebuilding.
	DefaultIndex string
	// DisableSidecar turns off automatic discovery of the `<ref>.dwi`
	// sidecar index file next to the reference FASTA. A sidecar is
	// opportunistic: a sidecar that fails to load logs a warning and
	// falls back to a FASTA build.
	DisableSidecar bool
	// Core is the engine configuration of the index.
	Core core.Config
	// Shard, when enabled, serves the index through the sharded
	// scatter-gather engine with the given geometry and residency
	// budget instead of the monolithic engine.
	Shard shard.Config
	// QueueBound caps the /v1/map requests waiting for a mapping slot
	// (one slot per CPU); a request past it is refused with 429
	// (default 256).
	QueueBound int
	// RequestTimeout caps per-request wall time (default 60s); a
	// request's timeout_ms can only shorten it.
	RequestTimeout time.Duration
	// MaxReadsPerRequest rejects oversized requests (default 1024).
	MaxReadsPerRequest int
	// MaxBodyBytes caps request bodies (default 64 MiB).
	MaxBodyBytes int64
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
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.QueueBound <= 0 {
		c.QueueBound = 256
	}
	return c
}

// Server is the darwind service: one resident index + admission gates
// behind the serving front the cluster router shares.
type Server struct {
	*Front
	cfg Config

	// mapGate admits /v1/map requests: one slot per CPU, QueueBound
	// waiters. scatterGate admits cluster sub-requests in worker mode:
	// scatterConcurrency slots and no waiters, because the router
	// prefers a fast 429 it can fail over or hedge against to a queue
	// that smears tail latency.
	mapGate     *gate
	scatterGate *gate
	scatterEP   *Endpoint

	// index is the resident reference as indexio.OpenSource returned
	// it; nil until Warm. Its engine is safe for concurrent use, so
	// every request maps on it directly. A mapped index file stays open
	// for the life of the process: the engine's tables are views over
	// it. sq (its @SQ header) and owned (the worker's shards, sorted)
	// are set before index is stored and never change after.
	index atomic.Pointer[indexio.Loaded]
	sq    []sam.RefSeq
	owned []int

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
		mapGate:     newGate(core.DefaultWorkers(0), cfg.QueueBound),
		scatterGate: newGate(scatterConcurrency, 0),
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

// Warm opens the default reference and marks the server ready.
// Blocking by design: readiness means the index is resident, so the
// first request is as fast as the millionth.
func (s *Server) Warm(ctx context.Context) error {
	if s.cfg.DefaultRef == "" {
		return fmt.Errorf("server: no default reference configured")
	}
	l, err := s.openDefault()
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
		if s.owned, err = s.warmOwnedShards(ctx, l); err != nil {
			return err
		}
	}
	s.sq = RefSeqs(l.Ref)
	s.index.Store(l)
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

// openDefault opens the default reference through indexio.OpenSource:
// from the explicitly configured DefaultIndex, else from the FASTA with
// `<ref>.dwi` sidecar discovery unless disabled. What a failed index
// load means for each is OpenSource's rule.
func (s *Server) openDefault() (*indexio.Loaded, error) {
	src := indexio.Source{Path: s.cfg.DefaultRef, Index: s.cfg.DefaultIndex, Sidecar: !s.cfg.DisableSidecar}
	start := time.Now()
	l, err := indexio.OpenSource(src, s.cfg.Core, s.cfg.Shard)
	if err != nil {
		return nil, fmt.Errorf("server: opening reference %s: %w", s.cfg.DefaultRef, err)
	}
	if l.File != nil {
		tIndexLoad.Observe(time.Since(start))
		s.log.Info("index mapped from file",
			"path", l.File.Path(), "mapped_bytes", l.File.MappedBytes(),
			"fingerprint", fingerprint(l))
		return l, nil
	}
	tIndexBuild.Observe(time.Since(start))
	if l.Fallback != nil {
		s.log.Warn("sidecar index load failed; rebuilding from FASTA",
			"path", indexfile.SidecarPath(s.cfg.DefaultRef), "error", l.Fallback)
	}
	return l, nil
}

// fingerprint is the hex content fingerprint of the index file l was
// mapped from, "" for a reference built from FASTA.
func fingerprint(l *indexio.Loaded) string {
	if l.File == nil {
		return ""
	}
	return fmt.Sprintf("%016x", l.File.Info().Fingerprint)
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
	// The one resident index, as a one-entry array.
	out := []indexInfo{}
	if l := s.index.Load(); l != nil {
		info := indexInfo{
			Key:       s.cfg.DefaultRef,
			Sequences: l.Ref.NumSeqs(),
			Bases:     len(l.Ref.Seq()),
			// Cumulative: a sharded engine adds each shard table it
			// builds or loads from its file to the global mask pass.
			BuildSeconds: l.Mapper.IndexBuildTime().Seconds(),
			Fingerprint:  fingerprint(l),
		}
		if l.File != nil {
			info.IndexFile, info.MappedBytes = l.File.Path(), l.File.MappedBytes()
		}
		if l.Set != nil {
			st, detail := l.Set.Snapshot()
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
	// Reference must be empty: every tier serves the one reference it
	// warmed, and Endpoint.Read refuses a request that sets it with 403
	// ref_load_disabled. The field is declared so that such a request is
	// refused rather than decoded silently and mapped against the wrong
	// genome.
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
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	l := s.index.Load()
	results, err := s.mapReads(ctx, l.Mapper, reads)
	if err != nil {
		if ctx.Err() != nil {
			cJobsCancelled.Inc()
		}
		ep.Fail(ctx, w, r, err, http.StatusInternalServerError, CodeInternal)
		return
	}
	s.WriteResults(w, r, l.Ref, s.sq, body.MapRequest, results)
}

// mapReads is the map stage of one /v1/map request: wait for a slot of
// the map gate, then map the reads with one worker on the resident
// engine, under the request's own context — a request that is cancelled
// or out of time stops mapping at its next read and frees its slot.
//
// The slot is the shared resource a faulty request must not take down:
// a panic anywhere in the stage (or injected at server/flush) is
// recovered into the request's error. Per-read failures never reach
// this level — core's Map confines them to MapResult.Err.
func (s *Server) mapReads(ctx context.Context, m core.Mapper, reads []dna.Seq) (results []core.MapResult, err error) {
	span := obs.SpanFromContext(ctx)
	queued := tQueueWait.Start(span)
	err = s.mapGate.acquire(ctx)
	wait := queued.End()
	if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrDraining) {
		cJobsRejected.Inc()
		return nil, err
	}
	cJobs.Inc()
	hQueueWait.Observe(float64(wait) / float64(time.Millisecond))
	if err != nil {
		return nil, err // ctx ended before a slot came free
	}
	defer s.mapGate.release()

	stage := tMap.Start(span)
	defer stage.End()
	defer func() {
		if r := recover(); r != nil {
			cMapPanics.Inc()
			results, err = nil, fmt.Errorf("server: mapping panicked: %v", r)
		}
	}()
	stage.Span().SetAttr("reads", int64(len(reads)))
	if err := fpFlush.Fire(); err != nil {
		return nil, err
	}
	return m.Map(obs.ContextWithSpan(ctx, stage.Span()), reads, core.WithWorkers(1))
}

// RefSeqs is ref's SAM @SQ header, one entry per sequence: the one
// place every tier that writes SAM turns a Reference into it.
func RefSeqs(ref *core.Reference) []sam.RefSeq {
	sq := make([]sam.RefSeq, ref.NumSeqs())
	for i := range sq {
		sq[i] = sam.RefSeq{Name: ref.Name(i), Len: ref.Len(i)}
	}
	return sq
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
