package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
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
	tScatter       = obs.Default.Timer("cluster/scatter")

	fpScatter = faults.Default.Point("cluster/scatter")
)

// The adaptive hedge: a sub-request is hedged to the next replica once
// it outlives its worker's hedgeQuantile latency, clamped to
// [hedgeMin, hedgeMax]; hedgeMax is also the delay while a worker's
// latency window is still empty.
const (
	hedgeQuantile = 0.9
	hedgeMin      = 2 * time.Millisecond
	hedgeMax      = 2 * time.Second
)

// Config assembles a router.
type Config struct {
	// Workers is the cluster roster (see ParseWorkers).
	Workers []Worker
	// Replication is the per-shard replica count (default 2, clamped
	// to the roster size).
	Replication int
	// HedgeDelay, when positive, overrides the adaptive delay
	// (hedgeQuantile, clamped to [hedgeMin, hedgeMax]) with a fixed
	// one — deterministic hedging for tests and smoke scripts.
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
// window, both shared across all replica groups the worker serves.
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
	// groups are the shards grouped by the set of workers that hold
	// them, one scatter sub-request each; the map is static, so they
	// are fixed once shardCount is known.
	groups []*replicaGroup
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
// geometries, reference layouts, engine parameters, fingerprints, and
// truncation limits agree, and checks each worker's owned set is exactly what the shared
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
		if !sameLayout(sr.Ref, first.Ref) {
			return fmt.Errorf("cluster: %s reference layout (%d sequences, %d bp) differs from %s's (%d sequences, %d bp): names, offsets or lengths disagree",
				ws.Name, len(sr.Ref.Names), sr.Ref.TotalLen, first.Worker, len(first.Ref.Names), first.Ref.TotalLen)
		}
		if sr.Engine != first.Engine {
			return fmt.Errorf("cluster: %s engine parameters %+v differ from %+v", ws.Name, sr.Engine, first.Engine)
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
	rt.sq = server.RefSeqs(ref)
	rt.shardCount = first.Geometry.Shards
	rt.groups = rt.cmap.groups(rt.shardCount)
	rt.maxCandidates = first.MaxCandidates
	rt.fingerprint = first.Fingerprint
	rt.SetReady()
	return nil
}

// sameLayout reports whether two workers lay out the same reference:
// the same sequence names, offsets and lengths, and the same total
// length. SAM takes its header and coordinates from one worker's
// layout, so every worker must hold that layout.
func sameLayout(a, b server.RefMeta) bool {
	return a.TotalLen == b.TotalLen && slices.Equal(a.Names, b.Names) &&
		slices.Equal(a.Offsets, b.Offsets) && slices.Equal(a.Lengths, b.Lengths)
}

// attemptResult is one replica attempt's outcome.
type attemptResult struct {
	results []shard.ReadScatter
	worker  int
	hedged  bool
	err     error
}

// hedgeDelay picks how long to wait on a worker before hedging a
// sub-request to the next replica: the fixed override if configured,
// else the worker's rolling latency quantile clamped to
// [hedgeMin, hedgeMax] — an empty window hedges at hedgeMax, so a
// cold router is conservative rather than doubling load.
func (rt *Router) hedgeDelay(ws *workerState) time.Duration {
	if rt.cfg.HedgeDelay > 0 {
		return rt.cfg.HedgeDelay
	}
	q := ws.lat.Quantile(time.Minute, hedgeQuantile)
	d := time.Duration(q * float64(time.Millisecond))
	if d < hedgeMin {
		if q <= 0 {
			return hedgeMax
		}
		return hedgeMin
	}
	if d > hedgeMax {
		return hedgeMax
	}
	return d
}

// scatterGroup resolves one replica group's sub-request against its
// members in this request's turn order (replicaGroup.order): the first
// member, an immediate failover on error, and a hedge to the next
// member once the first outlives its latency quantile. The group moves
// as a unit: every attempt carries all of its shards.
// Exactly one successful response is returned; the moment it arrives
// every other in-flight attempt's context is cancelled (the loser's
// work is abandoned, not merged — the exactly-one-merge property the
// duplicate guard in shard.MergeReadScatters backstops).
func (rt *Router) scatterGroup(ctx context.Context, span *obs.Span, g *replicaGroup, body []byte, nReads int, reqID, traceparent string) ([]shard.ReadScatter, error) {
	ctx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()

	order := g.order(g.turn.Add(1) - 1)
	results := make(chan attemptResult, len(order))
	next := 0
	inflight := 0
	// launch starts the next replica attempt that its breaker admits.
	launch := func(hedged bool) bool {
		for next < len(order) {
			wi := order[next]
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
			go rt.attempt(ctx, ws, wi, hedged, body, nReads, reqID, traceparent, results)
			return true
		}
		return false
	}
	if !launch(false) {
		return nil, fmt.Errorf("shards %v: no replica available (breakers open)", g.shards)
	}
	hedge := time.NewTimer(rt.hedgeDelay(rt.workers[order[0]]))
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
			// A replica that failed outright outranks one that was only
			// busy: the group answers 429 only when every replica did.
			if lastErr == nil || errors.Is(lastErr, server.ErrQueueFull) {
				lastErr = res.err
			}
			rt.log.Warn("scatter sub-request failed",
				"shards", g.label, "worker", rt.cmap.Workers[res.worker].Name,
				"hedged", res.hedged, "request_id", reqID, "error", res.err)
			// Immediate failover: a failed replica should not make the
			// request wait out the hedge timer.
			if launch(res.hedged) {
				cFailovers.Inc()
			} else if inflight == 0 {
				return nil, fmt.Errorf("shards %v: all replicas failed: %w", g.shards, lastErr)
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
func (rt *Router) attempt(ctx context.Context, ws *workerState, wi int, hedged bool, body []byte, nReads int, reqID, traceparent string, out chan<- attemptResult) {
	start := time.Now()
	fail := func(err error) {
		// A canceled context here means the router gave up on this
		// attempt itself — a sibling hedge won, or the caller went
		// away. The worker did nothing wrong, so its breaker must not
		// be charged, or routine hedging against a slow-but-healthy
		// primary would eventually open its breaker. Nor did a worker
		// that answered 429: it is up and shedding load, and opening
		// its breaker would turn backpressure into an outage.
		if ctx.Err() != context.Canceled && !errors.Is(err, server.ErrQueueFull) {
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
		err := fmt.Errorf("worker %s: HTTP %d: %s", ws.Name, resp.StatusCode, bytes.TrimSpace(msg))
		if resp.StatusCode == http.StatusTooManyRequests {
			err = fmt.Errorf("%w (%v)", server.ErrQueueFull, err)
		}
		fail(err)
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

// scatterAll fans one batch out to every replica group concurrently
// and returns one sub-response per group, failing if any group cannot
// be resolved — a partial reference would break bit-identity, so there
// are no partial answers. The error wraps server.ErrQueueFull, which
// the client sees as 429, only when every group that failed did so
// because each of its replicas answered 429.
func (rt *Router) scatterAll(ctx context.Context, span *obs.Span, reads []server.ReadInput, timeoutMS int, reqID, traceparent string) ([][]shard.ReadScatter, error) {
	byGroup := make([][]shard.ReadScatter, len(rt.groups))
	errs := make([]error, len(rt.groups))
	var wg sync.WaitGroup
	for gi, g := range rt.groups {
		body, err := json.Marshal(server.ScatterRequest{Shards: g.shards, Reads: reads, TimeoutMS: timeoutMS})
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub := tScatter.Start(span)
			sub.Span().SetLabel("shards", g.label)
			byGroup[gi], errs[gi] = rt.scatterGroup(ctx, sub.Span(), g, body, len(reads), reqID, traceparent)
			sub.End()
		}()
	}
	wg.Wait()
	var busy error
	for _, err := range errs {
		switch {
		case errors.Is(err, server.ErrQueueFull):
			if busy == nil {
				busy = err
			}
		case err != nil:
			return nil, err
		}
	}
	if busy != nil {
		return nil, busy
	}
	return byGroup, nil
}

// mergeAll recombines per-group sub-responses, which cover disjoint
// shard sets, into per-read results, reproducing the monolithic
// engine's candidate order, truncation, and alignment sort via
// shard.MergeReadScatters.
func (rt *Router) mergeAll(byGroup [][]shard.ReadScatter, nReads int) ([]core.MapResult, error) {
	out := make([]core.MapResult, nReads)
	parts := make([]shard.ReadScatter, len(byGroup))
	for i := 0; i < nReads; i++ {
		for g := range byGroup {
			parts[g] = byGroup[g][i]
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
