package server

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"darwin/internal/obs"
)

// SLO surface: /v1/stats answers "are we inside our latency and error
// budgets right now?" from rolling 1m/5m windows, without Prometheus
// in the loop. The cumulative Registry (exposed at /metrics) is for
// fleet scrapers; this endpoint is for a human or a load balancer
// asking the process directly.

// statsWindows are the trailing windows /v1/stats reports.
var statsWindows = []struct {
	label string
	d     time.Duration
}{
	{"1m", time.Minute},
	{"5m", 5 * time.Minute},
}

// sloTracker accumulates per-request outcomes into rolling windows.
type sloTracker struct {
	mapLatencyMS *obs.RollingQuantile
	requests     *obs.RollingCounter
	failures     *obs.RollingCounter
	reads        *obs.RollingCounter

	mu     sync.Mutex
	byCode map[string]*obs.RollingCounter
}

func newSLOTracker() *sloTracker {
	const span = 5 * time.Minute
	return &sloTracker{
		mapLatencyMS: obs.NewRollingQuantile(span),
		requests:     obs.NewRollingCounter(span),
		failures:     obs.NewRollingCounter(span),
		reads:        obs.NewRollingCounter(span),
		byCode:       make(map[string]*obs.RollingCounter),
	}
}

// observe records one completed /v1/map request.
func (t *sloTracker) observe(d time.Duration, status int, errCode string) {
	t.requests.Inc()
	t.mapLatencyMS.Observe(float64(d) / float64(time.Millisecond))
	// A caller hanging up spends no error budget.
	if status >= 400 && status != statusClientClosedRequest {
		t.failures.Inc()
		if errCode == "" {
			errCode = "unknown"
		}
		t.codeCounter(errCode).Inc()
	}
}

// observeReads counts admitted reads for the reads/s rate.
func (t *sloTracker) observeReads(n int) {
	t.reads.Add(int64(n))
}

// codeCounter returns the rolling counter for one error code. The
// code set is the API's own enum, so the map stays small.
func (t *sloTracker) codeCounter(code string) *obs.RollingCounter {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.byCode[code]
	if !ok {
		c = obs.NewRollingCounter(5 * time.Minute)
		t.byCode[code] = c
	}
	return c
}

// windowStats is one trailing window's SLO view on the wire.
type windowStats struct {
	Requests      int64            `json:"requests"`
	RequestsPerS  float64          `json:"requests_per_sec"`
	ReadsPerS     float64          `json:"reads_per_sec"`
	ErrorRate     float64          `json:"error_rate"`
	ErrorsByCode  map[string]int64 `json:"errors_by_code,omitempty"`
	MapLatencyP50 float64          `json:"map_latency_ms_p50"`
	MapLatencyP95 float64          `json:"map_latency_ms_p95"`
	MapLatencyP99 float64          `json:"map_latency_ms_p99"`
}

func (t *sloTracker) window(d time.Duration) windowStats {
	lat := t.mapLatencyMS.Window(d)
	reqs := t.requests.Total(d)
	out := windowStats{
		Requests:      reqs,
		RequestsPerS:  t.requests.Rate(d),
		ReadsPerS:     t.reads.Rate(d),
		MapLatencyP50: lat.P50,
		MapLatencyP95: lat.P95,
		MapLatencyP99: lat.P99,
	}
	if reqs > 0 {
		out.ErrorRate = float64(t.failures.Total(d)) / float64(reqs)
	}
	t.mu.Lock()
	for code, c := range t.byCode {
		if n := c.Total(d); n > 0 {
			if out.ErrorsByCode == nil {
				out.ErrorsByCode = make(map[string]int64)
			}
			out.ErrorsByCode[code] = n
		}
	}
	t.mu.Unlock()
	return out
}

// alignStats says, cumulatively since start, how much of the alignment
// stage went to first tiles the h_tile filter then threw away — the
// cost of loose D-SOFT candidates (Figure 12), which on noisy reads is
// most of the mapping time. The inputs are on /metrics as
// darwin_stage_align and darwin_gact_first_tile_reject.
type alignStats struct {
	Seconds                float64 `json:"seconds"`
	FirstTileRejectSeconds float64 `json:"first_tile_reject_seconds"`
	RejectShare            float64 `json:"reject_share"`
}

func readAlignStats() alignStats {
	st := alignStats{
		Seconds:                obs.Default.Timer("stage/align").Total().Seconds(),
		FirstTileRejectSeconds: obs.Default.Timer("gact/first_tile_reject").Total().Seconds(),
	}
	if st.Seconds > 0 {
		st.RejectShare = st.FirstTileRejectSeconds / st.Seconds
	}
	return st
}

// statsResponse is the /v1/stats body.
type statsResponse struct {
	Now          time.Time              `json:"now"`
	Ready        bool                   `json:"ready"`
	Draining     bool                   `json:"draining"`
	QueueDepth   int64                  `json:"queue_depth"`
	Windows      map[string]windowStats `json:"windows"`
	Align        *alignStats            `json:"align,omitempty"`
	Breakers     map[string]string      `json:"breakers,omitempty"`
	SlowCaptures int                    `json:"slow_captures"`
}

func (f *Front) handleStats(w http.ResponseWriter, _ *http.Request) {
	resp := statsResponse{
		Now:          time.Now(),
		Ready:        f.Ready(),
		Draining:     f.draining.Load(),
		Windows:      make(map[string]windowStats, len(statsWindows)),
		SlowCaptures: f.slow.Len(),
	}
	for _, win := range statsWindows {
		resp.Windows[win.label] = f.stats.window(win.d)
	}
	if f.tierStats != nil {
		f.tierStats(&resp)
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}

// darwindStats adds darwind's own sections to /v1/stats: the map gate's
// queue, the alignment-stage split and the per-source build breakers. A
// router has none of the three.
func (s *Server) darwindStats(resp *statsResponse) {
	resp.QueueDepth = gQueueDepth.Value()
	align := readAlignStats()
	resp.Align = &align
	s.brMu.Lock()
	defer s.brMu.Unlock()
	if len(s.breakers) > 0 {
		resp.Breakers = make(map[string]string, len(s.breakers))
		for key, br := range s.breakers {
			resp.Breakers[key] = br.State()
		}
	}
}

// handleSlow serves the slow-request capture ring: the top-K slowest
// /v1/map requests since start, each with its full span tree, slowest
// first.
func (f *Front) handleSlow(w http.ResponseWriter, _ *http.Request) {
	caps := f.slow.Snapshot() // already slowest-first
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct {
		Captures []obs.SlowCapture `json:"captures"`
	}{Captures: caps})
}
