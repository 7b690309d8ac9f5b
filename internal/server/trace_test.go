package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"darwin/internal/obs"
	"darwin/internal/shard"
)

// postMap sends one /v1/map request with an explicit request ID and
// returns the response plus its decoded NDJSON lines.
func postMap(t *testing.T, url, reqID string, body []byte) (*http.Response, []MapResponseLine) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/map", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []MapResponseLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var line MapResponseLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	return resp, lines
}

// checkSpansAreTimers fails t for every non-root span of tree whose
// name is not a registry timer: a child span is the interval of one
// timer, so the tree and the registry share one vocabulary.
func checkSpansAreTimers(t *testing.T, tree obs.SpanSnapshot) {
	t.Helper()
	timers := obs.Default.Snapshot().Timers
	for _, c := range tree.Children {
		c.Walk(func(sp obs.SpanSnapshot) {
			if _, ok := timers[sp.Name]; !ok {
				t.Errorf("span %q is not a registry timer", sp.Name)
			}
		})
	}
}

// TestTracedRequestSpanTree maps one traced request and checks the
// captured span tree end to end: the request ID threads from the
// inbound header through the response header, every NDJSON line, and
// the slow-capture ring; every stage timer the Registry advanced
// during serving appears as a span in the tree, and every span is
// named by a registry timer; the map stage's span and its timer read
// one clock; and the root's sequential stage children sum to no more
// than the root itself.
func TestTracedRequestSpanTree(t *testing.T) {
	srv, ts, reads := testService(t, Config{SlowCapture: 4})
	before := obs.Default.Snapshot()

	const reqID = "trace-test-0001"
	resp, lines := postMap(t, ts.URL, reqID, mapRequestBody(t, reads))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != reqID {
		t.Errorf("response X-Request-ID = %q, want %q", got, reqID)
	}
	st := resp.Header.Get("Server-Timing")
	var names []string
	for _, entry := range strings.Split(st, ", ") {
		names = append(names, strings.SplitN(entry, ";dur=", 2)[0])
	}
	if want := []string{"admit", "queue_wait", "map", "total"}; !reflect.DeepEqual(names, want) {
		t.Errorf("Server-Timing %q names stages %v, want %v", st, names, want)
	}
	if len(lines) != len(reads) {
		t.Fatalf("%d NDJSON lines for %d reads", len(lines), len(reads))
	}
	for i, line := range lines {
		if line.RequestID != reqID {
			t.Errorf("line %d: request_id %q, want %q", i, line.RequestID, reqID)
		}
	}

	caps := srv.SlowCaptures()
	if len(caps) != 1 {
		t.Fatalf("%d slow captures, want 1", len(caps))
	}
	tree := caps[0].Span
	if tree.RequestID != reqID {
		t.Errorf("captured tree request_id %q, want %q", tree.RequestID, reqID)
	}

	// Every stage timer that advanced while the request was served
	// must be attributed somewhere in its span tree (stage/index is
	// exercised only by index builds, which Warm did beforehand).
	diff := obs.Default.Snapshot().Sub(before)
	for name, ts := range diff.Timers {
		if !strings.HasPrefix(name, "stage/") || ts.Count == 0 {
			continue
		}
		if tree.Find(name) == nil {
			t.Errorf("stage timer %s advanced (%d obs) but has no span in the tree", name, ts.Count)
		}
	}
	checkSpansAreTimers(t, tree)
	// The serving pipeline's own stages: the root's children are the
	// request's sequential stages and nothing else, and the engine's
	// spans hang under the map stage.
	var stages []string
	for _, c := range tree.Children {
		stages = append(stages, c.Name)
	}
	if want := []string{"server/admit", "server/queue_wait", "server/map"}; !reflect.DeepEqual(stages, want) {
		t.Errorf("root children = %v, want %v", stages, want)
	}
	if m := tree.Find("server/map"); m != nil {
		if m.Attrs["reads"] != int64(len(reads)) {
			t.Errorf("server/map attrs %v, want reads=%d", m.Attrs, len(reads))
		}
		for _, name := range []string{"core/map", "core/worker_busy"} {
			if m.Find(name) == nil {
				t.Errorf("span %s missing under server/map", name)
			}
		}
		// One clock: the span carries the very interval its timer got.
		tm := diff.Timers["server/map"]
		if us := tm.Seconds * 1e6; tm.Count != 1 || math.Abs(us-float64(m.DurationUS)) > 1 {
			t.Errorf("server/map span %dus, timer %.1fus over %d calls", m.DurationUS, us, tm.Count)
		}
	}
	// A mapped PacBio read accepts at least one candidate, so the GACT
	// engine must have recorded an extension child with work attrs.
	ext := tree.Find("gact/extend")
	if ext == nil {
		t.Fatalf("no gact/extend span in tree")
	}
	if ext.Attrs["tiles"] == 0 || ext.Attrs["cells"] == 0 {
		t.Errorf("gact/extend attrs %v missing tiles/cells", ext.Attrs)
	}
	if rd := tree.Find("core/worker_busy"); rd != nil && rd.Attrs["candidates"] == 0 {
		t.Errorf("core/worker_busy attrs %v missing candidates", rd.Attrs)
	}

	// Sequential stage children cannot outlast the request: their sum
	// stays within the root's duration plus scheduling slack.
	var sum int64
	for _, c := range tree.Children {
		sum += c.DurationUS
	}
	slack := int64(10 * time.Millisecond / time.Microsecond)
	if sum > tree.DurationUS+slack {
		t.Errorf("children sum %dus exceeds root %dus (+%dus slack)", sum, tree.DurationUS, slack)
	}
}

// TestTracedRequestShardedSpanTree is the sharded-path variant of the
// span-tree check: under a 4-shard index the captured tree must show
// the scatter-gather split with shard attrs instead of core/map, every
// span named by a registry timer.
func TestTracedRequestShardedSpanTree(t *testing.T) {
	srv, ts, reads := testService(t, Config{
		SlowCapture: 4,
		Shard:       shard.Config{Shards: 4},
	})
	const reqID = "trace-shard-0001"
	resp, lines := postMap(t, ts.URL, reqID, mapRequestBody(t, reads))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	for i, line := range lines {
		if line.RequestID != reqID {
			t.Errorf("line %d: request_id %q, want %q", i, line.RequestID, reqID)
		}
	}
	caps := srv.SlowCaptures()
	if len(caps) != 1 {
		t.Fatalf("%d slow captures, want 1", len(caps))
	}
	tree := caps[0].Span
	if tree.RequestID != reqID {
		t.Errorf("captured tree request_id %q, want %q", tree.RequestID, reqID)
	}
	for _, name := range []string{"server/admit", "server/queue_wait", "server/map", "shard/map", "shard/scatter", "shard/gather", "core/worker_busy", "stage/filter", "stage/align", "gact/extend"} {
		if tree.Find(name) == nil {
			t.Errorf("span %s missing from sharded tree", name)
		}
	}
	checkSpansAreTimers(t, tree)
	if ms := tree.Find("shard/map"); ms != nil && ms.Attrs["shards"] != 4 {
		t.Errorf("shard/map attrs %v, want shards=4", ms.Attrs)
	}
	if sc := tree.Find("shard/scatter"); sc != nil {
		if sc.Attrs["shard_hits"]+sc.Attrs["shard_builds"] == 0 {
			t.Errorf("shard/scatter attrs %v show no shard acquisitions", sc.Attrs)
		}
	}
}

// TestConcurrentRequestsOwnTheirSpans fires concurrent requests with
// distinct IDs and distinct read counts at a one-slot gate and checks
// that no request's identity or span subtree leaks into another's:
// every capture has exactly one map stage, sized to its own reads.
func TestConcurrentRequestsOwnTheirSpans(t *testing.T) {
	srv, ts, reads := testService(t, Config{SlowCapture: 16})
	srv.mapGate = newGate(1, 16) // one slot, so the requests queue behind each other
	const n = 4
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("own-id-%04d", i)
			resp, lines := postMap(t, ts.URL, id, mapRequestBody(t, reads[:i+1]))
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			if got := resp.Header.Get("X-Request-ID"); got != id {
				errs[i] = fmt.Errorf("header id %q, want %q", got, id)
				return
			}
			if len(lines) != i+1 {
				errs[i] = fmt.Errorf("%d lines for %d reads", len(lines), i+1)
				return
			}
			for _, line := range lines {
				if line.RequestID != id {
					errs[i] = fmt.Errorf("line id %q, want %q", line.RequestID, id)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("request %d: %v", i, err)
		}
	}
	caps := srv.SlowCaptures()
	if len(caps) != n {
		t.Fatalf("%d captures, want %d", len(caps), n)
	}
	seen := map[string]bool{}
	for _, c := range caps {
		seen[c.RequestID] = true
		var wantReads int64
		if _, err := fmt.Sscanf(c.RequestID, "own-id-%d", &wantReads); err != nil {
			t.Errorf("unexpected capture %q", c.RequestID)
			continue
		}
		wantReads++
		var maps, coreReads int64
		c.Span.Walk(func(sp obs.SpanSnapshot) {
			switch sp.Name {
			case "server/map":
				maps++
				if sp.Attrs["reads"] != wantReads {
					t.Errorf("capture %s: server/map reads=%d, want %d", c.RequestID, sp.Attrs["reads"], wantReads)
				}
			case "core/worker_busy":
				coreReads++
			}
		})
		if maps != 1 || coreReads != wantReads {
			t.Errorf("capture %s: %d server/map and %d core/worker_busy spans, want 1 and %d", c.RequestID, maps, coreReads, wantReads)
		}
	}
	for i := 0; i < n; i++ {
		if id := fmt.Sprintf("own-id-%04d", i); !seen[id] {
			t.Errorf("no capture for %s", id)
		}
	}
}

// TestErrorEnvelopeCarriesRequestID checks a structured failure joins
// to the client's identity: the envelope and the echoed header both
// carry the inbound X-Request-ID.
func TestErrorEnvelopeCarriesRequestID(t *testing.T) {
	_, ts, _ := testService(t, Config{})
	const reqID = "err-envelope-77"
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/map", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != reqID {
		t.Errorf("header id %q, want %q", got, reqID)
	}
	var body ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Error.Code != CodeBadRequest {
		t.Errorf("code %q, want %q", body.Error.Code, CodeBadRequest)
	}
	if body.Error.RequestID != reqID {
		t.Errorf("envelope request_id %q, want %q", body.Error.RequestID, reqID)
	}
}

// TestTraceparentMintsRequestID checks W3C trace context is honored
// at ingress when no X-Request-ID is present.
func TestTraceparentMintsRequestID(t *testing.T) {
	_, ts, _ := testService(t, Config{})
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != traceID {
		t.Errorf("X-Request-ID %q, want traceparent trace-id %q", got, traceID)
	}
}

// TestMetricsAndStatsEndpoints maps traffic, then checks the two
// exposition surfaces: /metrics is valid OpenMetrics naming the
// serving-path families, and /v1/stats reports live 1m/5m windows.
func TestMetricsAndStatsEndpoints(t *testing.T) {
	_, ts, reads := testService(t, Config{})
	if resp, _ := postMap(t, ts.URL, "", mapRequestBody(t, reads)); resp.StatusCode != http.StatusOK {
		t.Fatalf("map status %d", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if err := obs.LintOpenMetrics(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("/metrics failed lint: %v", err)
	}
	for _, want := range []string{"darwin_core_reads_total", "darwin_server_reads_in_total", "darwin_stage_align_seconds_total", "darwin_gact_first_tile_reject_seconds_total"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats statsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"1m", "5m"} {
		win, ok := stats.Windows[label]
		if !ok {
			t.Fatalf("/v1/stats missing %s window", label)
		}
		if win.Requests < 1 {
			t.Errorf("%s window saw %d requests, want >= 1", label, win.Requests)
		}
		if win.MapLatencyP99 <= 0 {
			t.Errorf("%s window p99 = %v, want > 0", label, win.MapLatencyP99)
		}
	}
	if a := stats.Align; a.Seconds <= 0 || a.FirstTileRejectSeconds > a.Seconds || a.RejectShare != a.FirstTileRejectSeconds/a.Seconds {
		t.Errorf("/v1/stats align block %+v: want alignment time and the reject share of it", a)
	}
}
