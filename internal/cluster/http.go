package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"darwin/internal/obs"
	"darwin/internal/server"
)

// handleTopology serves the resolved cluster view: the shard→replica
// assignment (each shard's rendezvous order; requests ask the members
// of its replica set first in turn), per-worker breaker state, and
// rolling latency — the operator's answer to "where can shard 3 go
// right now?".
func (rt *Router) handleTopology(w http.ResponseWriter, _ *http.Request) {
	type workerView struct {
		Name      string  `json:"name"`
		URL       string  `json:"url"`
		Breaker   string  `json:"breaker"`
		P50MS     float64 `json:"p50_ms"`
		P95MS     float64 `json:"p95_ms"`
		HedgeMS   float64 `json:"hedge_delay_ms"`
		OwnedHere []int   `json:"owned_shards"`
	}
	type view struct {
		Shards      int          `json:"shards"`
		Replication int          `json:"replication"`
		Fingerprint string       `json:"fingerprint,omitempty"`
		Replicas    [][]string   `json:"replicas"`
		Workers     []workerView `json:"workers"`
	}
	v := view{Shards: rt.shardCount, Replication: rt.cmap.Replication, Fingerprint: rt.fingerprint}
	owned := make([][]int, len(rt.workers))
	for s := 0; s < rt.shardCount; s++ {
		var names []string
		for _, wi := range rt.cmap.ReplicasFor(s) {
			names = append(names, rt.workers[wi].Name)
			owned[wi] = append(owned[wi], s)
		}
		v.Replicas = append(v.Replicas, names)
	}
	for wi, ws := range rt.workers {
		st := ws.lat.Window(time.Minute)
		v.Workers = append(v.Workers, workerView{
			Name:      ws.Name,
			URL:       ws.URL,
			Breaker:   ws.br.State(),
			P50MS:     st.P50,
			P95MS:     st.P95,
			HedgeMS:   float64(rt.hedgeDelay(ws)) / float64(time.Millisecond),
			OwnedHere: owned[wi],
		})
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// handleMap is /v1/map on the router: darwind's preamble, the scatter
// and merge that stand where darwind maps, then darwind's error mapping
// and response writers.
func (rt *Router) handleMap(w http.ResponseWriter, r *http.Request) {
	ep := rt.Map()
	body, _, timeout, ok := ep.Read(w, r)
	if !ok {
		return
	}
	req := body.MapRequest
	span := obs.SpanFromContext(r.Context())
	span.SetAttr("shards", int64(rt.shardCount))
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// Workers get the remaining budget in their own timeout_ms so a
	// sub-request shed by the router's deadline is also shed worker-side.
	byGroup, err := rt.scatterAll(ctx, span, req.Reads, int(timeout/time.Millisecond),
		obs.RequestIDFromContext(ctx), r.Header.Get("traceparent"))
	if err != nil {
		ep.Fail(ctx, w, r, err, http.StatusBadGateway, server.CodeScatterFailed)
		return
	}
	results, err := rt.mergeAll(byGroup, len(req.Reads))
	if err != nil {
		ep.Fail(ctx, w, r, fmt.Errorf("merge: %w", err), http.StatusInternalServerError, server.CodeInternal)
		return
	}
	rt.WriteResults(w, r, rt.ref, rt.sq, req, results)
}
