package server

// Cluster-worker mode: the server-side half of distributed
// scatter-gather. A worker is an ordinary darwind whose sharded engine
// serves two extra endpoints — GET /v1/shards advertises which shards
// this process owns plus everything a stateless router needs to merge
// results (geometry, reference layout, truncation limit, index
// fingerprint), and POST /v1/cluster/scatter runs a shard-scoped
// sub-request via shard.ScatterShards, returning candidates and
// extension outcomes in global coordinates. The router recombines them
// with shard.MergeReadScatters; bit-identity to the monolith is proven
// in internal/shard's tests and asserted end to end by
// scripts/cluster_smoke.sh.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"

	"darwin/internal/obs"
	"darwin/internal/shard"
)

// cScatterShed counts sub-requests the scatter gate refused.
var cScatterShed = obs.Default.Counter("server/scatter_shed")

// WorkerConfig enables and tunes cluster-worker mode.
type WorkerConfig struct {
	// Enabled turns the worker endpoints on.
	Enabled bool
	// Name is this worker's identity in the cluster map; it must match
	// the name the router hashes shards against.
	Name string
	// OwnedShards are the shard indices this worker serves. Warm
	// pre-acquires them and scatter requests for any other shard are
	// rejected — ownership is a contract, not a hint, so a stale
	// router cannot silently double-serve a shard.
	OwnedShards []int
	// AssignShards, when set, computes OwnedShards once the index is
	// loaded and the true shard count is known (a -shard-mem geometry
	// is not knowable before the build). cmd/darwind wires this to the
	// cluster map's rendezvous assignment.
	AssignShards func(shards int) ([]int, error)
	// ScatterConcurrency is the scatter gate's slot count (default 4);
	// excess load sheds with 429 + Retry-After so the router's hedging
	// and failover see backpressure instead of queueing.
	ScatterConcurrency int
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.ScatterConcurrency <= 0 {
		c.ScatterConcurrency = 4
	}
	return c
}

// RefMeta is the reference coordinate layout on the wire — enough for
// a router to rebuild a layout-only core.Reference (LocateSpan, Name)
// and the SAM @SQ header without holding any bases.
type RefMeta struct {
	Names    []string `json:"names"`
	Offsets  []int    `json:"offsets"`
	Lengths  []int    `json:"lengths"`
	TotalLen int      `json:"total_len"`
}

// GeometryMeta is the shard geometry on the wire; routers compare it
// across workers to refuse mixed-geometry clusters.
type GeometryMeta struct {
	RefLen    int `json:"ref_len"`
	ShardSize int `json:"shard_size"`
	Overlap   int `json:"overlap"`
	BinSize   int `json:"bin_size"`
	Shards    int `json:"shards"`
}

// ShardsResponse is the GET /v1/shards ownership advertisement.
type ShardsResponse struct {
	Worker        string       `json:"worker"`
	Owned         []int        `json:"owned"`
	Geometry      GeometryMeta `json:"geometry"`
	Ref           RefMeta      `json:"ref"`
	MaxCandidates int          `json:"max_candidates"`
	// Fingerprint identifies the persistent index the worker serves
	// from (hex; empty for FASTA-built indexes). Routers refuse
	// clusters whose workers disagree.
	Fingerprint string `json:"fingerprint,omitempty"`
}

// ScatterRequest is the POST /v1/cluster/scatter body: a read batch
// scoped to a subset of this worker's shards.
type ScatterRequest struct {
	Shards    []int       `json:"shards"`
	Reads     []ReadInput `json:"reads"`
	TimeoutMS int         `json:"timeout_ms,omitempty"`
}

// ScatterResponse carries one ReadScatter per read, in request order.
type ScatterResponse struct {
	Worker  string              `json:"worker"`
	Results []shard.ReadScatter `json:"results"`
}

// warmOwnedShards validates worker-mode wiring at boot and makes the
// owned shards resident: the engine must be sharded, every owned index
// must exist in the geometry, and the residency budget must admit each
// owned table (Acquire builds or loads it now, so the budget shows its
// hand before the server reports ready).
func (s *Server) warmOwnedShards(ctx context.Context, entry *IndexEntry) error {
	if entry.Shards == nil {
		return fmt.Errorf("server: worker mode requires a sharded engine (-shards or -shard-mem)")
	}
	geo := entry.Shards.Geometry()
	if s.cfg.Worker.AssignShards != nil {
		owned, err := s.cfg.Worker.AssignShards(len(geo.Parts))
		if err != nil {
			return err
		}
		s.cfg.Worker.OwnedShards = owned
	}
	if len(s.cfg.Worker.OwnedShards) == 0 {
		return fmt.Errorf("server: worker %q owns no shards under the cluster map", s.cfg.Worker.Name)
	}
	s.log.Info("cluster worker mode",
		"worker", s.cfg.Worker.Name, "owned_shards", fmt.Sprint(s.cfg.Worker.OwnedShards),
		"shards_total", len(geo.Parts))
	for _, id := range s.cfg.Worker.OwnedShards {
		if id < 0 || id >= len(geo.Parts) {
			return fmt.Errorf("server: worker %q assigned shard %d but the index has %d shards",
				s.cfg.Worker.Name, id, len(geo.Parts))
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, err := entry.Shards.Acquire(id); err != nil {
			return fmt.Errorf("server: warming shard %d: %w", id, err)
		}
	}
	return nil
}

// ownsShard reports whether the worker serves shard id.
func (s *Server) ownsShard(id int) bool {
	for _, o := range s.cfg.Worker.OwnedShards {
		if o == id {
			return true
		}
	}
	return false
}

func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(r.Context(), w, http.StatusMethodNotAllowed, CodeMethodNotAllow, "GET required")
		return
	}
	entry := s.defaultEntry.Load()
	if entry == nil || !s.ready.Load() {
		w.Header().Set("Retry-After", "1")
		httpError(r.Context(), w, http.StatusServiceUnavailable, CodeWarming, "index warming")
		return
	}
	geo := entry.Shards.Geometry()
	ref := entry.Ref
	meta := RefMeta{TotalLen: len(ref.Seq())}
	for i := 0; i < ref.NumSeqs(); i++ {
		meta.Names = append(meta.Names, ref.Name(i))
		meta.Offsets = append(meta.Offsets, ref.Offset(i))
		meta.Lengths = append(meta.Lengths, ref.Len(i))
	}
	owned := append([]int(nil), s.cfg.Worker.OwnedShards...)
	sort.Ints(owned)
	resp := ShardsResponse{
		Worker: s.cfg.Worker.Name,
		Owned:  owned,
		Geometry: GeometryMeta{
			RefLen:    geo.RefLen,
			ShardSize: geo.ShardSize,
			Overlap:   geo.Overlap,
			BinSize:   geo.BinSize,
			Shards:    len(geo.Parts),
		},
		Ref:           meta,
		MaxCandidates: s.cfg.Core.MaxCandidates,
	}
	if entry.Fingerprint != 0 {
		resp.Fingerprint = fmt.Sprintf("%016x", entry.Fingerprint)
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(resp)
}

func (s *Server) handleScatter(w http.ResponseWriter, r *http.Request) {
	ep := s.scatterEP
	req, reads, timeout, ok := ep.Read(w, r)
	if !ok {
		return
	}
	for _, id := range req.Shards {
		if !s.ownsShard(id) {
			ep.Reject(w, r, http.StatusConflict, CodeShardNotOwned,
				"worker %q does not own shard %d (stale cluster map?)", s.cfg.Worker.Name, id)
			return
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// The scatter gate has no waiting places, so this never blocks; a
	// sub-request that slipped past the preamble as the drain began is
	// refused like any other, and the router fails over.
	if err := s.scatterGate.acquire(ctx); err != nil {
		cScatterShed.Inc()
		ep.Fail(ctx, w, r, err, http.StatusInternalServerError, CodeInternal)
		return
	}
	defer s.scatterGate.release()

	entry := s.defaultEntry.Load()
	mapper, err := entry.Acquire()
	if err != nil {
		ep.Reject(w, r, http.StatusInternalServerError, CodeInternal, "engine clone: %v", err)
		return
	}
	defer entry.Release(mapper)
	sm, ok := mapper.(*shard.ScatterMapper)
	if !ok {
		ep.Reject(w, r, http.StatusInternalServerError, CodeInternal, "worker engine is not sharded")
		return
	}
	results, err := sm.ScatterShards(ctx, reads, req.Shards, 1)
	if err != nil {
		// The router cancels losing hedge and failover attempts the
		// moment a sibling wins; Fail answers those 499, outside the
		// failure counter and the ERROR-level access log.
		ep.Fail(ctx, w, r, err, http.StatusInternalServerError, CodeInternal)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(ScatterResponse{Worker: s.cfg.Worker.Name, Results: results})
}
