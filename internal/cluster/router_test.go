package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"darwin/internal/obs"
	"darwin/internal/server"
	"darwin/internal/shard"
)

// testCluster wires fake workers behind a probed router. The fakes
// speak the real wire contract (GET /v1/shards, POST
// /v1/cluster/scatter with server's JSON types), so these tests cover
// the router's half of the protocol end to end without an index.
type testCluster struct {
	rt      *Router
	cmap    *Map
	workers []Worker
}

const (
	testShards   = 2
	testMaxCands = 8
)

var testRefMeta = server.RefMeta{
	Names: []string{"chr1"}, Offsets: []int{0}, Lengths: []int{100}, TotalLen: 100,
}

var testGeo = server.GeometryMeta{
	RefLen: 100, ShardSize: 50, Overlap: 0, BinSize: 16, Shards: testShards,
}

// startCluster boots one fake worker per scatter handler (named
// "worker-0", "worker-1", ...) plus a probed router over them, on a
// testShards-shard geometry. Handlers may be nil for a worker that
// answers scatters with empty results.
func startCluster(t *testing.T, cfg Config, scatter []http.HandlerFunc) *testCluster {
	t.Helper()
	return startNamedCluster(t, cfg, "worker-", testShards, scatter)
}

// startNamedCluster is startCluster with the worker name prefix and
// the shard count chosen by the caller.
func startNamedCluster(t *testing.T, cfg Config, prefix string, shards int, scatter []http.HandlerFunc) *testCluster {
	t.Helper()
	tc := &testCluster{}
	geo := testGeo
	geo.Shards = shards
	// The map hashes names only, so replica sets are computable before
	// the servers exist; handlers read ownership through this pointer
	// once the roster (with real URLs) is final.
	for i, fn := range scatter {
		name := fmt.Sprintf("%s%d", prefix, i)
		if fn == nil {
			fn = scatterRespond(nil)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/v1/shards", func(w http.ResponseWriter, _ *http.Request) {
			owned, err := tc.cmap.OwnedBy(name, shards)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			json.NewEncoder(w).Encode(server.ShardsResponse{
				Worker: name, Owned: owned, Geometry: geo,
				Ref: testRefMeta, MaxCandidates: testMaxCands,
			})
		})
		mux.HandleFunc("/v1/cluster/scatter", fn)
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		tc.workers = append(tc.workers, Worker{Name: name, URL: srv.URL})
	}
	var err error
	tc.cmap, err = NewMap(tc.workers, cfg.Replication)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = tc.workers
	tc.rt, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.rt.Probe(t.Context()); err != nil {
		t.Fatalf("probe: %v", err)
	}
	return tc
}

// scatterRespond answers a scatter request with the given candidates
// on read 0's forward strand (every other read comes back empty).
func scatterRespond(cands []shard.CandExt) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req server.ScatterRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		results := make([]shard.ReadScatter, len(req.Reads))
		for i := range results {
			results[i] = shard.ReadScatter{Read: i}
		}
		if len(results) > 0 {
			results[0].Strand[0] = cands
		}
		json.NewEncoder(w).Encode(server.ScatterResponse{Results: results})
	}
}

func postMap(t *testing.T, tc *testCluster, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	body := `{"reads":[{"name":"r1","seq":"ACGTACGTACGT"}]}`
	req := httptest.NewRequest(http.MethodPost, "/v1/map", strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	tc.rt.Handler().ServeHTTP(rec, req)
	return rec
}

// TestRouterIdentityPropagation: the ingress request ID and the
// client's traceparent ride every scatter sub-request verbatim, and
// the merged NDJSON line carries the same ID — one trace across hops.
// The router sends one sub-request per replica group, and its captured
// span tree holds one cluster/scatter child per group, labelled with
// the group's shards and the worker that answered; every span in it is
// named by a registry timer.
func TestRouterIdentityPropagation(t *testing.T) {
	var mu sync.Mutex
	type hop struct{ reqID, traceparent string }
	var hops []hop
	record := func(inner http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			hops = append(hops, hop{r.Header.Get("X-Request-ID"), r.Header.Get("traceparent")})
			mu.Unlock()
			inner(w, r)
		}
	}
	tc := startCluster(t, Config{Replication: 1}, []http.HandlerFunc{
		record(scatterRespond(nil)), record(scatterRespond(nil)),
	})

	const wantID = "req-ident-123"
	const wantTP = "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"
	rec := postMap(t, tc, map[string]string{"X-Request-ID": wantID, "traceparent": wantTP})
	if rec.Code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Request-ID"); got != wantID {
		t.Errorf("response X-Request-ID %q, want %q", got, wantID)
	}
	var line server.MapResponseLine
	if err := json.Unmarshal(rec.Body.Bytes(), &line); err != nil {
		t.Fatalf("response line: %v", err)
	}
	if line.RequestID != wantID {
		t.Errorf("NDJSON request_id %q, want %q", line.RequestID, wantID)
	}
	caps := tc.rt.SlowCaptures()
	if len(caps) != 1 || caps[0].RequestID != wantID {
		t.Fatalf("slow captures %+v, want one for %s", caps, wantID)
	}
	timers := obs.Default.Snapshot().Timers
	var labels []string
	for _, c := range caps[0].Span.Children {
		c.Walk(func(sp obs.SpanSnapshot) {
			if _, ok := timers[sp.Name]; !ok {
				t.Errorf("span %q is not a registry timer", sp.Name)
			}
			if sp.Name == "cluster/scatter" {
				labels = append(labels, sp.Labels["shards"])
				if w := sp.Labels["worker"]; !strings.HasPrefix(w, "worker-") {
					t.Errorf("cluster/scatter span labels %v, want a worker", sp.Labels)
				}
			}
		})
	}
	var want []string
	for _, g := range tc.rt.groups {
		want = append(want, g.label)
	}
	slices.Sort(labels)
	slices.Sort(want)
	if !slices.Equal(labels, want) {
		t.Errorf("cluster/scatter spans for shards %q, want one per replica group %q", labels, want)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(hops) != len(tc.rt.groups) {
		t.Fatalf("%d sub-requests, want %d (one per replica group)", len(hops), len(tc.rt.groups))
	}
	for i, h := range hops {
		if h.reqID != wantID || h.traceparent != wantTP {
			t.Errorf("hop %d: got (%q, %q), want (%q, %q)", i, h.reqID, h.traceparent, wantID, wantTP)
		}
	}
}

// TestScatterGroups: the router's replica groups partition the shards,
// every shard in a group is held by exactly the group's set of workers,
// the group's base order is its lowest shard's rendezvous order, and a
// request costs one sub-request per distinct set. The wants are pinned
// for the "w0", "w1", ... roster the bench cluster uses, so a change to
// the rendezvous scores shows here too. The rotation row checks that a
// group's members take turns being asked first. The failover row
// breaks the member asked first for a multi-shard group: the whole
// group moves to its next member in one sub-request and the answer
// does not change.
func TestScatterGroups(t *testing.T) {
	for _, tt := range []struct {
		workers, shards, want int
	}{
		{2, 3, 1}, {2, 4, 1}, {2, 8, 1}, // {2, 4} is the bench's serve_cluster
		{3, 3, 2}, {3, 4, 2}, {3, 8, 3},
		{4, 3, 2}, {4, 4, 2}, {4, 8, 5},
	} {
		t.Run(fmt.Sprintf("%dworkers/%dshards", tt.workers, tt.shards), func(t *testing.T) {
			var hops atomic.Int64
			count := func(w http.ResponseWriter, r *http.Request) {
				hops.Add(1)
				scatterRespond(nil)(w, r)
			}
			scatter := make([]http.HandlerFunc, tt.workers)
			for i := range scatter {
				scatter[i] = count
			}
			// Hedging out of the picture: a hedge is one more sub-request.
			tc := startNamedCluster(t, Config{Replication: 2, HedgeDelay: 10 * time.Second}, "w", tt.shards, scatter)
			sets := map[string]bool{}
			seen := make([]int, tt.shards)
			for _, g := range tc.rt.groups {
				members := slices.Clone(g.replicas)
				slices.Sort(members)
				sets[fmt.Sprint(members)] = true
				if base := tc.cmap.ReplicasFor(g.shards[0]); !slices.Equal(base, g.replicas) {
					t.Errorf("group (shards %v) base order %v, want its lowest shard's %v", g.shards, g.replicas, base)
				}
				for _, s := range g.shards {
					seen[s]++
					if got := tc.cmap.ReplicasFor(s); !sameMembers(got, g.replicas) {
						t.Errorf("shard %d has replicas %v, its group (shards %v) %v", s, got, g.shards, g.replicas)
					}
				}
			}
			for s, n := range seen {
				if n != 1 {
					t.Errorf("shard %d is in %d groups, want 1", s, n)
				}
			}
			if len(sets) != len(tc.rt.groups) {
				t.Errorf("%d groups for %d distinct replica sets", len(tc.rt.groups), len(sets))
			}
			if len(tc.rt.groups) != tt.want {
				t.Errorf("%d groups, want %d", len(tc.rt.groups), tt.want)
			}
			if rec := postMap(t, tc, nil); rec.Code != http.StatusOK {
				t.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
			}
			if got := hops.Load(); got != int64(tt.want) {
				t.Errorf("%d sub-requests for one request, want %d", got, tt.want)
			}
		})
	}

	t.Run("rotation", func(t *testing.T) {
		// The bench's shape: both workers hold all four shards, so each
		// request is one sub-request, and over 2k requests each worker
		// is asked first — here, asked at all — exactly k times. The
		// requests run at once: each takes its own turn however they
		// interleave.
		const workers, shards, k = 2, 4, 8
		var asked [workers]atomic.Int64
		scatter := make([]http.HandlerFunc, workers)
		for i := range scatter {
			scatter[i] = func(w http.ResponseWriter, r *http.Request) {
				asked[i].Add(1)
				scatterRespond(nil)(w, r)
			}
		}
		tc := startNamedCluster(t, Config{Replication: 2, HedgeDelay: 10 * time.Second}, "w", shards, scatter)
		var wg sync.WaitGroup
		for i := 0; i < 2*k; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if rec := postMap(t, tc, nil); rec.Code != http.StatusOK {
					t.Errorf("request %d: HTTP %d: %s", i, rec.Code, rec.Body)
				}
			}()
		}
		wg.Wait()
		for i := range asked {
			if got := asked[i].Load(); got != k {
				t.Errorf("w%d was asked %d times over %d requests, want %d", i, got, 2*k, k)
			}
		}
	})

	t.Run("failover", func(t *testing.T) {
		const workers, shards = 3, 4
		var mu sync.Mutex
		got := map[string][]string{} // worker -> shard labels it was asked for
		var failing atomic.Value     // worker name that 500s every scatter
		failing.Store("")
		handler := func(idx int) http.HandlerFunc {
			name := fmt.Sprintf("w%d", idx)
			return func(w http.ResponseWriter, r *http.Request) {
				var req server.ScatterRequest
				if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				mu.Lock()
				got[name] = append(got[name], fmt.Sprint(req.Shards))
				mu.Unlock()
				if failing.Load().(string) == name {
					http.Error(w, `{"code":"internal"}`, http.StatusInternalServerError)
					return
				}
				// One aligned candidate per requested shard on read 0,
				// so the merged body depends on every shard's answer.
				results := make([]shard.ReadScatter, len(req.Reads))
				for i := range results {
					results[i] = shard.ReadScatter{Read: i}
				}
				for _, s := range req.Shards {
					results[0].Strand[0] = append(results[0].Strand[0], shard.CandExt{
						QueryPos: 0, RefPos: 10 * s, Ext: true, Aligned: true, Score: 8 + s,
						RefStart: 10 * s, RefEnd: 10*s + 8, QueryStart: 0, QueryEnd: 8, Cigar: "8M",
						FirstTileScore: 8 + s, Tiles: 1, Cells: 64,
					})
				}
				json.NewEncoder(w).Encode(server.ScatterResponse{Results: results})
			}
		}
		scatter := make([]http.HandlerFunc, workers)
		for i := range scatter {
			scatter[i] = handler(i)
		}
		tc := startNamedCluster(t, Config{Replication: 2, HedgeDelay: 10 * time.Second, BreakerThreshold: 100},
			"w", shards, scatter)
		var g *replicaGroup
		for _, c := range tc.rt.groups {
			if len(c.shards) > 1 {
				g = c
				break
			}
		}
		if g == nil {
			t.Fatalf("no multi-shard group among %d shards on %d workers", shards, workers)
		}
		hdr := map[string]string{"X-Request-ID": "groups-failover"}
		healthy := postMap(t, tc, hdr)
		if healthy.Code != http.StatusOK || !strings.Contains(healthy.Body.String(), `"mapped":true`) {
			t.Fatalf("healthy: HTTP %d: %s", healthy.Code, healthy.Body)
		}

		// The members the next request asks first and second.
		order := g.order(g.turn.Load())
		primary, next := tc.workers[order[0]].Name, tc.workers[order[1]].Name
		failing.Store(primary)
		mu.Lock()
		clear(got)
		mu.Unlock()
		failed := postMap(t, tc, hdr)
		if failed.Code != http.StatusOK {
			t.Fatalf("primary %s failing: HTTP %d: %s", primary, failed.Code, failed.Body)
		}
		if failed.Body.String() != healthy.Body.String() {
			t.Errorf("body with %s failing differs:\n%s\nwant\n%s", primary, failed.Body, healthy.Body)
		}
		mu.Lock()
		defer mu.Unlock()
		want := fmt.Sprint(g.shards)
		if !slices.Contains(got[primary], want) {
			t.Errorf("primary %s was asked for %v, want shards %s", primary, got[primary], want)
		}
		if !slices.Contains(got[next], want) {
			t.Errorf("next replica %s was asked for %v, want the whole group %s", next, got[next], want)
		}
		labels := map[string]bool{}
		for _, c := range tc.rt.groups {
			labels[fmt.Sprint(c.shards)] = true
		}
		for w, asked := range got {
			for _, l := range asked {
				if !labels[l] {
					t.Errorf("%s was asked for shards %s, which is not one replica group", w, l)
				}
			}
		}
	})
}

// TestRouterHedgeCancelsLoser: when the member a group asks first
// stalls, the hedge fires the next member, its answer wins, and the
// stalled member's sub-request context is cancelled — the loser is
// abandoned, not merged. Two requests, so each worker of the rotation
// is asked first, stalls and loses once.
func TestRouterHedgeCancelsLoser(t *testing.T) {
	// Which member a group asks first rotates per request, so the stall
	// adapts at request time: before each request the test reads which
	// worker each group will ask first, and that worker stalls on the
	// group's shards until its context is cancelled while the next
	// member answers. stall gates the behavior so the boot probe and
	// map construction happen on fast paths.
	var stall atomic.Bool
	var mu sync.Mutex
	first := map[string]int{} // group shards -> worker index asked first
	cancelled := make(chan string, 4)
	slowIfFirst := func(idx int) http.HandlerFunc {
		name := fmt.Sprintf("worker-%d", idx)
		return func(w http.ResponseWriter, r *http.Request) {
			var req server.ScatterRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			mu.Lock()
			slow := stall.Load() && first[fmt.Sprint(req.Shards)] == idx
			mu.Unlock()
			if slow {
				<-r.Context().Done()
				cancelled <- name
				return
			}
			results := make([]shard.ReadScatter, len(req.Reads))
			for i := range results {
				results[i] = shard.ReadScatter{Read: i}
			}
			json.NewEncoder(w).Encode(server.ScatterResponse{Results: results})
		}
	}
	hedgeFiredBefore := cHedgeFired.Value()
	hedgeWinsBefore := cHedgeWins.Value()
	breakerOpensBefore := cBreakerOpens.Value()
	// BreakerThreshold 1 makes the no-breaker-charge assertion below
	// deterministic: if losing a hedge counted as a worker failure,
	// one lost hedge would open the loser's breaker.
	tc := startCluster(t, Config{Replication: 2, HedgeDelay: 5 * time.Millisecond, BreakerThreshold: 1},
		[]http.HandlerFunc{slowIfFirst(0), slowIfFirst(1)})
	stall.Store(true)

	const requests = 2
	groups := int64(len(tc.rt.groups))
	losers := map[string]int{}
	for i := 0; i < requests; i++ {
		mu.Lock()
		for _, g := range tc.rt.groups {
			first[fmt.Sprint(g.shards)] = g.order(g.turn.Load())[0]
		}
		mu.Unlock()
		rec := postMap(t, tc, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: HTTP %d: %s", i, rec.Code, rec.Body)
		}
		// The losers' contexts must be cancelled promptly — not left to
		// dangle until the 60s request deadline.
		for j := int64(0); j < groups; j++ {
			select {
			case name := <-cancelled:
				losers[name]++
			case <-time.After(5 * time.Second):
				t.Fatalf("request %d: loser %d of %d: context never cancelled", i, j+1, groups)
			}
		}
	}
	// Every group's first member stalled, so each group's hedge fired
	// and won on every request.
	if got := cHedgeFired.Value() - hedgeFiredBefore; got != requests*groups {
		t.Errorf("hedge_fired delta %d, want %d", got, requests*groups)
	}
	if got := cHedgeWins.Value() - hedgeWinsBefore; got != requests*groups {
		t.Errorf("hedge_wins delta %d, want %d", got, requests*groups)
	}
	if groups == 1 && (losers["worker-0"] != 1 || losers["worker-1"] != 1) {
		t.Errorf("losers %v, want each worker asked first, and losing, once", losers)
	}
	// Losing a hedge is router-initiated cancellation, not a worker
	// failure: the stalled-but-healthy workers' breakers must stay
	// closed, or routine hedging would eject slow workers. The loser's
	// failure path runs just after its context cancels, so give it a
	// beat before asserting nothing was charged.
	time.Sleep(100 * time.Millisecond)
	if got := cBreakerOpens.Value() - breakerOpensBefore; got != 0 {
		t.Errorf("breaker_opens delta %d after lost hedges, want 0", got)
	}
	for _, ws := range tc.rt.workers {
		if !ws.br.Allow() {
			t.Errorf("worker %s breaker open after losing a hedge", ws.Name)
		}
	}
}

// TestRouterFailoverAndBreaker: a failing first member triggers
// immediate failover (no hedge wait), and once its breaker opens the
// next requests skip it entirely — also the one whose turn would ask
// it first.
func TestRouterFailoverAndBreaker(t *testing.T) {
	var mu sync.Mutex
	hits := map[string]int{}
	var failing atomic.Value // worker name that 500s every scatter
	failing.Store("")
	flaky := func(idx int) http.HandlerFunc {
		name := fmt.Sprintf("worker-%d", idx)
		ok := scatterRespond(nil)
		return func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			hits[name]++
			mu.Unlock()
			if failing.Load().(string) == name {
				http.Error(w, `{"code":"internal"}`, http.StatusInternalServerError)
				return
			}
			ok(w, r)
		}
	}
	tc := startCluster(t, Config{
		Replication:      2,
		HedgeDelay:       10 * time.Second, // hedging out of the picture: failover must not wait for it
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
	}, []http.HandlerFunc{flaky(0), flaky(1)})
	// Break whichever worker shard 0's group asks first on the next
	// request, so at least one group is guaranteed to exercise the
	// failover path.
	g := tc.rt.groups[0]
	prim := tc.workers[g.order(g.turn.Load())[0]].Name

	failing.Store(prim)
	start := time.Now()
	if rec := postMap(t, tc, nil); rec.Code != http.StatusOK {
		t.Fatalf("request 1: HTTP %d: %s", rec.Code, rec.Body)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("failover waited %v — it must not sit out the hedge delay", d)
	}
	mu.Lock()
	afterFirst := hits[prim]
	mu.Unlock()
	if afterFirst == 0 {
		t.Fatalf("%s is asked first for shards %v but was never tried", prim, g.shards)
	}
	// Threshold 1: that first failure opened the breaker; the next
	// requests must not touch the broken worker at all, though the
	// rotation puts it first again within len(g.replicas) of them.
	for i := 2; i < 2+len(g.replicas); i++ {
		if rec := postMap(t, tc, nil); rec.Code != http.StatusOK {
			t.Fatalf("request %d: HTTP %d: %s", i, rec.Code, rec.Body)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if hits[prim] != afterFirst {
		t.Errorf("%s hit %d more times after its breaker opened", prim, hits[prim]-afterFirst)
	}
}

// TestRouterExactlyOneMergeUnderRace: with a near-zero hedge delay
// both replicas race to answer with identical candidates. If the
// router ever merged both, shard.MergeReadScatters' duplicate guard
// would fail the request — so N racing requests all succeeding proves
// exactly-one-merge.
func TestRouterExactlyOneMergeUnderRace(t *testing.T) {
	// Replicas of the same shard answer identically (that is what makes
	// them replicas), but different shards must answer disjointly — real
	// shard cores partition the reference — so the candidate's RefPos is
	// derived from the requested shard.
	perShard := func(w http.ResponseWriter, r *http.Request) {
		var req server.ScatterRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		results := make([]shard.ReadScatter, len(req.Reads))
		for i := range results {
			results[i] = shard.ReadScatter{Read: i}
		}
		results[0].Strand[0] = []shard.CandExt{{QueryPos: 3, RefPos: 7 + 40*req.Shards[0]}}
		json.NewEncoder(w).Encode(server.ScatterResponse{Results: results})
	}
	tc := startCluster(t, Config{Replication: 2, HedgeDelay: time.Nanosecond}, []http.HandlerFunc{
		perShard, perShard,
	})
	for i := 0; i < 25; i++ {
		rec := postMap(t, tc, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("iteration %d: HTTP %d: %s — a double merge?", i, rec.Code, rec.Body)
		}
	}
}

// TestRouterProbeRejectsMismatch: a worker whose advertised ownership
// disagrees with the shared map must fail the boot probe.
func TestRouterProbeRejectsMismatch(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/shards", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(server.ShardsResponse{
			Worker: "worker-0", Owned: []int{0, 1}, // claims everything
			Geometry: testGeo, Ref: testRefMeta, MaxCandidates: testMaxCands,
		})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	other := httptest.NewServer(mux) // wrong identity too
	defer other.Close()
	rt, err := New(Config{Workers: []Worker{
		{Name: "worker-0", URL: srv.URL},
		{Name: "worker-1", URL: other.URL},
	}, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Probe(t.Context()); err == nil {
		t.Fatal("probe accepted a worker whose ownership disagrees with the map")
	}
	if rt.Ready() {
		t.Fatal("router ready after a failed probe")
	}
}

// TestRouterProbeRejectsEngineMismatch: workers that agree on geometry,
// reference layout, ownership and truncation limit but map with a
// different D-SOFT threshold would merge into SAM that neither produces
// alone, so the probe must refuse them as it refuses mixed geometry.
// The advertisements are raw JSON, the engine parameters added under
// their wire name.
func TestRouterProbeRejectsEngineMismatch(t *testing.T) {
	workers := []Worker{{Name: "worker-0"}, {Name: "worker-1"}}
	cmap, err := NewMap(workers, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range []int{20, 24} {
		owned, err := cmap.OwnedBy(workers[i].Name, testShards)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(server.ShardsResponse{
			Worker: workers[i].Name, Owned: owned, Geometry: testGeo,
			Ref: testRefMeta, MaxCandidates: testMaxCands,
		})
		if err != nil {
			t.Fatal(err)
		}
		var adv map[string]any
		if err := json.Unmarshal(raw, &adv); err != nil {
			t.Fatal(err)
		}
		adv["engine"] = map[string]int{"k": 12, "n": 750, "h": h, "htile": 90, "tile_t": 320, "tile_o": 128}
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			json.NewEncoder(w).Encode(adv)
		}))
		t.Cleanup(srv.Close)
		workers[i].URL = srv.URL
	}
	rt, err := New(Config{Workers: workers, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Probe(t.Context()); err == nil || !strings.Contains(err.Error(), "engine") {
		t.Fatalf("probe over workers with h=20 and h=24: %v, want an engine-parameter refusal", err)
	}
	if rt.Ready() {
		t.Fatal("router ready after a failed probe")
	}
}

// TestRouterQueueFullIsBackpressure: a worker that answers 429
// queue_full is up and shedding load. The router must not charge its
// breaker for it, and when every replica of a group answered 429 the
// client gets 429 with Retry-After, not 502 scatter_failed. A replica
// that failed outright still makes the request a 502.
func TestRouterQueueFullIsBackpressure(t *testing.T) {
	var hits atomic.Int64
	busy := func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"code":"queue_full"}`, http.StatusTooManyRequests)
	}
	tc := startCluster(t, Config{
		Replication:      1,
		HedgeDelay:       10 * time.Second,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
	}, []http.HandlerFunc{busy, busy})
	opens := cBreakerOpens.Value()
	for i := 0; i < 3; i++ {
		rec := postMap(t, tc, nil)
		if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") == "" {
			t.Fatalf("request %d: HTTP %d (Retry-After %q): %s; want 429 with Retry-After",
				i, rec.Code, rec.Header().Get("Retry-After"), rec.Body)
		}
	}
	if got := cBreakerOpens.Value() - opens; got != 0 {
		t.Errorf("%d breaker opens on 429s, want none", got)
	}
	// Threshold 1: one charged failure would have opened a breaker and
	// kept later requests off the worker, so every request reaches it.
	if got := hits.Load(); got < 3 {
		t.Errorf("workers saw %d sub-requests over 3 requests, want every request to reach them", got)
	}

	broken := func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, `{"code":"internal"}`, http.StatusInternalServerError)
	}
	tc = startCluster(t, Config{Replication: 2, HedgeDelay: 10 * time.Second}, []http.HandlerFunc{busy, broken})
	if rec := postMap(t, tc, nil); rec.Code != http.StatusBadGateway {
		t.Errorf("one replica busy, one broken: HTTP %d: %s; want 502", rec.Code, rec.Body)
	}
}
