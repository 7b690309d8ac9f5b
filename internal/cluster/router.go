package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"darwin/internal/core"
	"darwin/internal/faults"
	"darwin/internal/obs"
	"darwin/internal/sam"
	"darwin/internal/server"
	"darwin/internal/shard"
)

// Router observability. The cluster/* namespace is the router's own —
// its serving front counts requests under it too; worker-side scatter
// work shows up under server/* on each worker.
var (
	cSubreqs       = obs.Default.Counter("cluster/scatter_subreqs")
	cSubreqFails   = obs.Default.Counter("cluster/scatter_subreq_fails")
	cFailovers     = obs.Default.Counter("cluster/replica_failovers")
	cHedgeFired    = obs.Default.Counter("cluster/hedge_fired")
	cHedgeWins     = obs.Default.Counter("cluster/hedge_wins")
	cHedgeCancels  = obs.Default.Counter("cluster/hedge_cancelled")
	cBreakerOpens  = obs.Default.Counter("cluster/breaker_opens")
	cBreakerFast   = obs.Default.Counter("cluster/breaker_fast_fails")
	gWorkers       = obs.Default.Gauge("cluster/workers")
	hSubreqLatency = obs.Default.Histogram("cluster/subreq_latency_ms", 0, 10000, 100)

	fpScatter = faults.Default.Point("cluster/scatter")
)

// Config assembles a router.
type Config struct {
	// Workers is the cluster roster (see ParseWorkers).
	Workers []Worker
	// Replication is the per-shard replica count (default 2, clamped
	// to the roster size).
	Replication int
	// HedgeQuantile picks the per-worker latency quantile after which
	// a sub-request is hedged to the next replica (default 0.9).
	HedgeQuantile float64
	// HedgeMin and HedgeMax clamp the adaptive hedge delay; HedgeMax
	// also serves as the delay while a worker's latency window is
	// still empty (defaults 2ms and 2s).
	HedgeMin, HedgeMax time.Duration
	// HedgeDelay, when positive, overrides the adaptive delay with a
	// fixed one — deterministic hedging for tests and smoke scripts.
	HedgeDelay time.Duration
	// RequestTimeout caps one ingress request (default 60s).
	RequestTimeout time.Duration
	// MaxReadsPerRequest rejects oversized requests (default 1024).
	MaxReadsPerRequest int
	// MaxBodyBytes caps ingress bodies (default 64 MiB).
	MaxBodyBytes int64
	// BreakerThreshold consecutive sub-request failures open a
	// worker's breaker (default 3); BreakerCooldown is how long it
	// rejects before a half-open probe (default 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Logger receives structured logs (default slog.Default()).
	Logger *slog.Logger
	// Client performs sub-requests (default: http.Client with no
	// timeout — per-attempt contexts bound every call).
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.Replication <= 0 {
		c.Replication = 2
	}
	if c.HedgeQuantile <= 0 || c.HedgeQuantile >= 1 {
		c.HedgeQuantile = 0.9
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = 2 * time.Millisecond
	}
	if c.HedgeMax <= 0 {
		c.HedgeMax = 2 * time.Second
	}
	if c.HedgeMax < c.HedgeMin {
		c.HedgeMax = c.HedgeMin
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
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// workerState is the router's per-worker view: breaker and latency
// window, both shared across all shards the worker serves.
type workerState struct {
	Worker
	br  *server.Breaker
	lat *obs.RollingQuantile
}

// Router is the stateless scatter-gather tier: it owns no index, only
// the cluster map, a layout-only Reference for coordinate translation,
// and per-worker breakers/latency windows. Everything else is
// re-derived per request, so any number of routers can front the same
// worker fleet. Its HTTP face is the serving front darwind answers
// through, so a client cannot tell the two apart.
type Router struct {
	*server.Front
	cfg     Config
	cmap    *Map
	workers []*workerState
	log     *slog.Logger
	client  *http.Client

	// Cluster-wide invariants learned at Probe time.
	ref           *core.Reference
	sq            []sam.RefSeq
	shardCount    int
	maxCandidates int
	fingerprint   string
}

// New assembles a router; call Probe to learn the cluster's geometry
// and mark it ready.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	cmap, err := NewMap(cfg.Workers, cfg.Replication)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		Front:  server.NewFront("cluster", cfg.Logger, cfg.RequestTimeout, cfg.MaxReadsPerRequest, cfg.MaxBodyBytes, 0),
		cfg:    cfg,
		cmap:   cmap,
		log:    cfg.Logger,
		client: cfg.Client,
	}
	for _, w := range cmap.Workers {
		rt.workers = append(rt.workers, &workerState{
			Worker: w,
			br:     server.NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
			lat:    obs.NewRollingQuantile(time.Minute),
		})
	}
	gWorkers.Set(int64(len(rt.workers)))
	rt.HandleFunc("/v1/map", rt.handleMap)
	rt.HandleFunc("/v1/cluster", rt.handleTopology)
	return rt, nil
}

// Probe interrogates every worker's /v1/shards, checks the advertised
// geometries, reference layouts, fingerprints, and truncation limits
// agree, and checks each worker's owned set is exactly what the shared
// cluster map assigns it. Any disagreement is a boot failure: a
// cluster that cannot merge bit-identically must not serve.
func (rt *Router) Probe(ctx context.Context) error {
	var first *server.ShardsResponse
	for _, ws := range rt.workers {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ws.URL+"/v1/shards", nil)
		if err != nil {
			return err
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			return fmt.Errorf("cluster: probing %s (%s): %w", ws.Name, ws.URL, err)
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("cluster: probing %s: %w", ws.Name, err)
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("cluster: probing %s: HTTP %d: %s", ws.Name, resp.StatusCode, bytes.TrimSpace(body))
		}
		var sr server.ShardsResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			return fmt.Errorf("cluster: probing %s: %w", ws.Name, err)
		}
		if sr.Worker != ws.Name {
			return fmt.Errorf("cluster: %s identifies as %q — roster and -worker-name disagree", ws.URL, sr.Worker)
		}
		want, err := rt.cmap.OwnedBy(ws.Name, sr.Geometry.Shards)
		if err != nil {
			return err
		}
		if fmt.Sprint(want) != fmt.Sprint(sr.Owned) {
			return fmt.Errorf("cluster: %s owns shards %v but the map assigns %v — mismatched roster or replication",
				ws.Name, sr.Owned, want)
		}
		if first == nil {
			first = &sr
			continue
		}
		if sr.Geometry != first.Geometry {
			return fmt.Errorf("cluster: %s geometry %+v differs from %+v", ws.Name, sr.Geometry, first.Geometry)
		}
		if sr.Fingerprint != first.Fingerprint {
			return fmt.Errorf("cluster: %s serves index %q, others %q", ws.Name, sr.Fingerprint, first.Fingerprint)
		}
		if sr.MaxCandidates != first.MaxCandidates {
			return fmt.Errorf("cluster: %s max_candidates %d differs from %d", ws.Name, sr.MaxCandidates, first.MaxCandidates)
		}
	}
	ref, err := core.NewReferenceLayout(first.Ref.Names, first.Ref.Offsets, first.Ref.Lengths, first.Ref.TotalLen)
	if err != nil {
		return fmt.Errorf("cluster: reference layout: %w", err)
	}
	rt.ref = ref
	rt.sq = rt.sq[:0]
	for i := 0; i < ref.NumSeqs(); i++ {
		rt.sq = append(rt.sq, sam.RefSeq{Name: ref.Name(i), Len: ref.Len(i)})
	}
	rt.shardCount = first.Geometry.Shards
	rt.maxCandidates = first.MaxCandidates
	rt.fingerprint = first.Fingerprint
	rt.SetReady()
	return nil
}

// attemptResult is one replica attempt's outcome.
type attemptResult struct {
	results []shard.ReadScatter
	worker  int
	hedged  bool
	err     error
}

// hedgeDelay picks how long to wait on a worker before hedging its
// sub-request to the next replica: the fixed override if configured,
// else the worker's rolling latency quantile clamped to
// [HedgeMin, HedgeMax] — an empty window hedges at HedgeMax, so a
// cold router is conservative rather than doubling load.
func (rt *Router) hedgeDelay(ws *workerState) time.Duration {
	if rt.cfg.HedgeDelay > 0 {
		return rt.cfg.HedgeDelay
	}
	q := ws.lat.Quantile(time.Minute, rt.cfg.HedgeQuantile)
	d := time.Duration(q * float64(time.Millisecond))
	if d < rt.cfg.HedgeMin {
		if q <= 0 {
			return rt.cfg.HedgeMax
		}
		return rt.cfg.HedgeMin
	}
	if d > rt.cfg.HedgeMax {
		return rt.cfg.HedgeMax
	}
	return d
}

// scatterShard resolves one shard's sub-request against its replica
// set: the primary first, an immediate failover on error, and a hedge
// to the next replica once the primary outlives its latency quantile.
// Exactly one successful response is returned; the moment it arrives
// every other in-flight attempt's context is cancelled (the loser's
// work is abandoned, not merged — the exactly-one-merge property the
// duplicate guard in shard.MergeReadScatters backstops).
func (rt *Router) scatterShard(ctx context.Context, span *obs.Span, shardID int, body []byte, nReads int, reqID, traceparent string) ([]shard.ReadScatter, error) {
	replicas := rt.cmap.ReplicasFor(shardID)
	ctx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()

	results := make(chan attemptResult, len(replicas))
	next := 0
	inflight := 0
	// launch starts the next replica attempt that its breaker admits.
	launch := func(hedged bool) bool {
		for next < len(replicas) {
			wi := replicas[next]
			next++
			ws := rt.workers[wi]
			if !ws.br.Allow() {
				cBreakerFast.Inc()
				continue
			}
			if hedged {
				cHedgeFired.Inc()
			}
			cSubreqs.Inc()
			inflight++
			go rt.attempt(ctx, ws, wi, hedged, shardID, body, nReads, reqID, traceparent, results)
			return true
		}
		return false
	}
	if !launch(false) {
		return nil, fmt.Errorf("shard %d: no replica available (breakers open)", shardID)
	}
	primary := rt.workers[replicas[0]]
	hedge := time.NewTimer(rt.hedgeDelay(primary))
	defer hedge.Stop()

	var lastErr error
	for {
		select {
		case res := <-results:
			inflight--
			if res.err == nil {
				if res.hedged {
					cHedgeWins.Inc()
				}
				if inflight > 0 {
					cHedgeCancels.Add(int64(inflight))
				}
				span.SetLabel("worker", rt.cmap.Workers[res.worker].Name)
				if res.hedged {
					span.SetAttr("hedged", 1)
				}
				return res.results, nil
			}
			cSubreqFails.Inc()
			lastErr = res.err
			rt.log.Warn("scatter sub-request failed",
				"shard", shardID, "worker", rt.cmap.Workers[res.worker].Name,
				"hedged", res.hedged, "request_id", reqID, "error", res.err)
			// Immediate failover: a failed replica should not make the
			// request wait out the hedge timer.
			if launch(res.hedged) {
				cFailovers.Inc()
			} else if inflight == 0 {
				return nil, fmt.Errorf("shard %d: all replicas failed: %w", shardID, lastErr)
			}
		case <-hedge.C:
			launch(true)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// attempt performs one sub-request against one worker, feeding breaker
// and latency state. The cluster/scatter fault point fires per attempt
// — per backend — so chaos runs exercise failover and breaker opens
// exactly like organic worker failures.
func (rt *Router) attempt(ctx context.Context, ws *workerState, wi int, hedged bool, shardID int, body []byte, nReads int, reqID, traceparent string, out chan<- attemptResult) {
	start := time.Now()
	fail := func(err error) {
		// A canceled context here means the router gave up on this
		// attempt itself — a sibling hedge won, or the caller went
		// away. The worker did nothing wrong, so its breaker must not
		// be charged, or routine hedging against a slow-but-healthy
		// primary would eventually open its breaker.
		if ctx.Err() != context.Canceled {
			if ws.br.ReportFailure() {
				cBreakerOpens.Inc()
				rt.log.Warn("worker breaker opened", "worker", ws.Name)
			}
		}
		out <- attemptResult{worker: wi, hedged: hedged, err: err}
	}
	if err := fpScatter.Fire(); err != nil {
		fail(err)
		return
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ws.URL+"/v1/cluster/scatter", bytes.NewReader(body))
	if err != nil {
		fail(err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	// Identity propagation: the sub-request carries the ingress
	// request ID (and the client's traceparent, verbatim) so worker
	// logs, spans, and error envelopes all join the router's trace.
	req.Header.Set("X-Request-ID", reqID)
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		fail(err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		fail(fmt.Errorf("worker %s: HTTP %d: %s", ws.Name, resp.StatusCode, bytes.TrimSpace(msg)))
		return
	}
	var sr server.ScatterResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		fail(fmt.Errorf("worker %s: decoding scatter response: %w", ws.Name, err))
		return
	}
	if len(sr.Results) != nReads {
		fail(fmt.Errorf("worker %s: %d results for %d reads", ws.Name, len(sr.Results), nReads))
		return
	}
	ws.br.Success()
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	ws.lat.Observe(ms)
	hSubreqLatency.Observe(ms)
	out <- attemptResult{results: sr.Results, worker: wi, hedged: hedged}
}

// scatterAll fans one batch out to every shard concurrently and
// returns per-shard sub-responses, failing if any shard cannot be
// resolved — a partial reference would break bit-identity, so there
// are no partial answers.
func (rt *Router) scatterAll(ctx context.Context, span *obs.Span, reads []server.ReadInput, timeoutMS int, reqID, traceparent string) ([][]shard.ReadScatter, error) {
	byShard := make([][]shard.ReadScatter, rt.shardCount)
	errs := make([]error, rt.shardCount)
	var wg sync.WaitGroup
	for s := 0; s < rt.shardCount; s++ {
		body, err := json.Marshal(server.ScatterRequest{Shards: []int{s}, Reads: reads, TimeoutMS: timeoutMS})
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func(s int, body []byte) {
			defer wg.Done()
			sub := span.StartChild("cluster.scatter")
			if sub != nil {
				sub.SetAttr("shard", int64(s))
			}
			byShard[s], errs[s] = rt.scatterShard(ctx, sub, s, body, len(reads), reqID, traceparent)
			sub.End()
		}(s, body)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return byShard, nil
}

// mergeAll recombines per-shard sub-responses into per-read results,
// reproducing the monolithic engine's candidate order, truncation, and
// alignment sort via shard.MergeReadScatters.
func (rt *Router) mergeAll(byShard [][]shard.ReadScatter, nReads int) ([]core.MapResult, error) {
	out := make([]core.MapResult, nReads)
	parts := make([]shard.ReadScatter, len(byShard))
	for i := 0; i < nReads; i++ {
		for s := range byShard {
			parts[s] = byShard[s][i]
		}
		res, err := shard.MergeReadScatters(rt.maxCandidates, parts)
		if err != nil {
			return nil, fmt.Errorf("read %d: %w", i, err)
		}
		res.Index = i
		out[i] = res
	}
	return out, nil
}
