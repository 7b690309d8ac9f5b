// Command darwin-client is the load driver for darwind: it replays a
// read set against the service in closed-loop (fixed concurrency) or
// open-loop (fixed arrival rate) mode and prints a throughput and
// latency summary. With -report it writes a darwin-run-report/v1 so
// served-throughput runs (BENCH_server.json) join the bench
// trajectory next to the batch CLIs.
//
// Usage:
//
//	darwin-client -target 127.0.0.1:8844 -reads reads.fq -requests 200 -concurrency 8 -batch 4
//	darwin-client -target 127.0.0.1:8844 -reads reads.fq -rate 50 -duration 10s
//	darwin-client -target 127.0.0.1:8850,127.0.0.1:8844 -reads reads.fq -requests 200
//
// -target takes one or more comma-separated targets (darwind or
// darwin-router, host:port or URL); requests round-robin across them,
// retries rotate to the next target, and the summary breaks latency
// down per target.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"darwin/internal/dna"
	"darwin/internal/obs"
	"darwin/internal/server"
)

// Client-side metrics: mirrored into the obs registry so -report
// emits a machine-readable run summary with derived throughput.
var (
	cReqOK       = obs.Default.Counter("client/requests_ok")
	cReqRejected = obs.Default.Counter("client/requests_rejected") // 429s
	cReqFailed   = obs.Default.Counter("client/requests_failed")
	cReadsSent   = obs.Default.Counter("client/reads_sent")
	cReadsOK     = obs.Default.Counter("client/reads_ok")
	cReadsMapped = obs.Default.Counter("client/reads_mapped")
	cRecords     = obs.Default.Counter("client/records")
	cRetries     = obs.Default.Counter("client/retries")
	cReadErrors  = obs.Default.Counter("client/read_errors")
	cInvalid     = obs.Default.Counter("client/invalid_responses")
	hLatency     = obs.Default.Histogram("client/request_latency_ms", 0, 10000, 100)
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "darwin-client:", err)
		os.Exit(1)
	}
}

type result struct {
	status  int
	latency time.Duration
	err     error
	retries int
	// reqID is the server-assigned request identity (X-Request-ID on
	// the response, which echoes the one we sent) — the join key into
	// darwind's access log, error envelopes, and /debug/slow captures.
	reqID string
	// target is the base URL the final attempt went to.
	target string
}

// timingAgg accumulates per-stage server-side durations parsed from
// Server-Timing response headers, so the client summary can split
// "where did p99 go" into admit / queue_wait / map without a
// server-side debug endpoint round-trip.
type timingAgg struct {
	mu     sync.Mutex
	stages map[string][]float64 // stage → per-request ms samples
}

// record parses one Server-Timing header value ("admit;dur=0.3,
// queue_wait;dur=1.2, total;dur=9.9") into the aggregate. Malformed
// entries are skipped: the header is advisory.
func (t *timingAgg) record(header string) {
	if header == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stages == nil {
		t.stages = make(map[string][]float64)
	}
	for _, entry := range strings.Split(header, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ";")
		if len(parts) < 2 || parts[0] == "" {
			continue
		}
		for _, p := range parts[1:] {
			p = strings.TrimSpace(p)
			if !strings.HasPrefix(p, "dur=") {
				continue
			}
			if ms, err := strconv.ParseFloat(p[len("dur="):], 64); err == nil {
				t.stages[parts[0]] = append(t.stages[parts[0]], ms)
			}
		}
	}
}

// backoffWait derives how long to wait before retry attempt (0-based).
// A server-provided Retry-After (seconds) wins; otherwise exponential
// backoff from 100ms doubling per attempt. Both paths are capped at
// maxWait and jittered ±50% so a burst of rejected clients does not
// reconverge on the server in lockstep.
func backoffWait(retryAfter string, attempt int, maxWait time.Duration) time.Duration {
	wait := 100 * time.Millisecond << uint(attempt)
	if secs, err := strconv.Atoi(strings.TrimSpace(retryAfter)); err == nil && secs > 0 {
		wait = time.Duration(secs) * time.Second
	}
	if wait > maxWait {
		wait = maxWait
	}
	// Jitter to 50–150% of the base wait.
	return wait/2 + time.Duration(rand.Int63n(int64(wait)))
}

// retryableStatus reports whether a response status is worth retrying:
// explicit pushback (429 queue full, 503 draining/warming/breaker) and
// 504 deadline, where a later attempt may land in a quieter window.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

func run() error {
	targetSpec := flag.String("target", "", "comma-separated targets (darwind or darwin-router, host:port or URL); round-robin per request (required)")
	readsPath := flag.String("reads", "", "reads FASTA/FASTQ to replay (required)")
	requests := flag.Int("requests", 100, "closed-loop: total requests to send")
	concurrency := flag.Int("concurrency", 4, "closed-loop: in-flight requests")
	rate := flag.Float64("rate", 0, "open-loop: request arrival rate per second (0 = closed loop)")
	duration := flag.Duration("duration", 10*time.Second, "open-loop: how long to offer load")
	batch := flag.Int("batch", 4, "reads per request")
	all := flag.Bool("all", false, "request all alignments per read")
	timeoutMS := flag.Int("timeout-ms", 0, "per-request timeout_ms field (0 = server default)")
	outPath := flag.String("out", "", "append response SAM text to this file (requests ?format=sam)")
	retries := flag.Int("retries", 3, "max retries per request on 429/503/504 (0 disables)")
	retryMaxWait := flag.Duration("retry-max-wait", 2*time.Second, "cap on a single retry backoff wait")
	strict := flag.Bool("strict", false, "validate 200 NDJSON responses; malformed or per-read error lines fail the run")
	jobsTarget := flag.String("jobs-target", "", "assembly-job mode: submit -reads as a job to this darwind (host:port or URL), poll it, fetch the result")
	jobKind := flag.String("job-kind", "assemble", "job mode: overlap or assemble")
	jobMinOverlap := flag.Int("job-min-overlap", 0, "job mode: nominal minimum overlap length (0 = server default)")
	jobPolish := flag.Int("job-polish", -1, "job mode: polishing rounds (-1 = server default)")
	jobMinContig := flag.Int("job-min-contig", 0, "job mode: drop contigs shorter than this")
	jobPoll := flag.Duration("job-poll", 500*time.Millisecond, "job mode: status poll interval")
	jobOut := flag.String("job-out", "", "job mode: write the result stream here (default stdout)")
	obsFlags := obs.AddFlags(flag.CommandLine)
	flag.Parse()

	if *jobsTarget != "" {
		if *readsPath == "" {
			return fmt.Errorf("-jobs-target requires -reads")
		}
		return runJobMode(jobModeConfig{
			target:     *jobsTarget,
			readsPath:  *readsPath,
			kind:       *jobKind,
			minOverlap: *jobMinOverlap,
			polish:     *jobPolish,
			minContig:  *jobMinContig,
			poll:       *jobPoll,
			out:        *jobOut,
		})
	}
	if *targetSpec == "" || *readsPath == "" {
		return fmt.Errorf("-target and -reads are required")
	}
	var targets []string
	for _, tg := range strings.Split(*targetSpec, ",") {
		tg = strings.TrimSpace(tg)
		if tg == "" {
			continue
		}
		if !strings.Contains(tg, "://") {
			tg = "http://" + tg
		}
		targets = append(targets, strings.TrimRight(tg, "/"))
	}
	if len(targets) == 0 {
		return fmt.Errorf("-target %q names no targets", *targetSpec)
	}
	session, err := obsFlags.Start("darwin-client")
	if err != nil {
		return err
	}
	defer session.Close()

	reads, err := dna.ReadFile(*readsPath)
	if err != nil {
		return err
	}
	if len(reads) == 0 {
		return fmt.Errorf("no reads in %s", *readsPath)
	}
	if *batch < 1 {
		*batch = 1
	}

	urls := make([]string, len(targets))
	for i, tg := range targets {
		urls[i] = tg + "/v1/map"
	}
	var out *os.File
	if *outPath != "" {
		for i := range urls {
			urls[i] += "?format=sam"
		}
		out, err = os.OpenFile(*outPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer out.Close()
	}
	var outMu sync.Mutex

	// Pre-encode request bodies round-robin over the read set so the
	// hot loop measures the service, not client-side JSON encoding.
	nBodies := (len(reads) + *batch - 1) / *batch
	bodies := make([][]byte, nBodies)
	readsPerBody := make([]int, nBodies)
	for b := 0; b < nBodies; b++ {
		wr := server.MapRequest{All: *all, TimeoutMS: *timeoutMS}
		for i := b * (*batch); i < (b+1)*(*batch) && i < len(reads); i++ {
			wr.Reads = append(wr.Reads, server.ReadInput{Name: reads[i].Name, Seq: reads[i].Seq})
		}
		readsPerBody[b] = len(wr.Reads)
		if bodies[b], err = json.Marshal(wr); err != nil {
			return err
		}
	}

	client := &http.Client{}
	timing := &timingAgg{}
	var seq atomic.Int64
	fire := func() result {
		n := int(seq.Add(1) - 1)
		b := n % nBodies
		cReadsSent.Add(int64(readsPerBody[b]))
		// One identity per logical request, reused across retries, so
		// every server-side record of the attempts joins to one client
		// request.
		reqID := obs.NewRequestID()
		for attempt := 0; ; attempt++ {
			// Round-robin across targets; a retried request rotates to
			// the next target, so pushback from one node spills to its
			// peers instead of hammering the same queue.
			tgt := (n + attempt) % len(targets)
			start := time.Now()
			req, err := http.NewRequest(http.MethodPost, urls[tgt], bytes.NewReader(bodies[b]))
			if err != nil {
				cReqFailed.Inc()
				return result{err: err, retries: attempt, reqID: reqID, target: targets[tgt]}
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set("X-Request-ID", reqID)
			resp, err := client.Do(req)
			if err != nil {
				cReqFailed.Inc()
				return result{err: err, retries: attempt, reqID: reqID, target: targets[tgt]}
			}
			if id := resp.Header.Get("X-Request-ID"); id != "" {
				reqID = id // server's view wins (it sanitizes)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			lat := time.Since(start)
			// Pushback (429/503) and deadline (504) responses are retried
			// with Retry-After-aware capped backoff: the server told us
			// when to come back, so honoring it converts rejected load
			// into delayed completions instead of failures.
			if retryableStatus(resp.StatusCode) && attempt < *retries {
				cRetries.Inc()
				time.Sleep(backoffWait(resp.Header.Get("Retry-After"), attempt, *retryMaxWait))
				continue
			}
			r := result{status: resp.StatusCode, latency: lat, err: err, retries: attempt, reqID: reqID, target: targets[tgt]}
			switch {
			case err != nil || resp.StatusCode >= 500:
				cReqFailed.Inc()
			case resp.StatusCode == http.StatusTooManyRequests:
				cReqRejected.Inc()
			case resp.StatusCode == http.StatusOK:
				cReqOK.Inc()
				hLatency.Observe(float64(lat) / float64(time.Millisecond))
				timing.record(resp.Header.Get("Server-Timing"))
				tally(body, out != nil)
				if out != nil {
					outMu.Lock()
					out.Write(body)
					outMu.Unlock()
				}
			default:
				cReqFailed.Inc()
			}
			return r
		}
	}

	fmt.Fprintf(os.Stderr, "darwin-client: %d reads in %d request bodies of ≤%d reads against %s\n",
		len(reads), nBodies, *batch, strings.Join(urls, ", "))

	var results []result
	var mu sync.Mutex
	record := func(r result) {
		mu.Lock()
		results = append(results, r)
		mu.Unlock()
	}
	wallStart := time.Now()
	if *rate > 0 {
		// Open loop: fire at the configured arrival rate regardless of
		// completions — offered load, the regime where admission
		// control and 429s appear.
		interval := time.Duration(float64(time.Second) / *rate)
		deadline := time.Now().Add(*duration)
		var wg sync.WaitGroup
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for now := range tick.C {
			if now.After(deadline) {
				break
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				record(fire())
			}()
		}
		wg.Wait()
	} else {
		// Closed loop: fixed concurrency, next request on completion.
		var wg sync.WaitGroup
		var issued atomic.Int64
		for w := 0; w < *concurrency; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for issued.Add(1) <= int64(*requests) {
					record(fire())
				}
			}()
		}
		wg.Wait()
	}
	wall := time.Since(wallStart)

	summarize(os.Stdout, results, wall, timing)
	if *strict {
		if inv, rerr := cInvalid.Value(), cReadErrors.Value(); inv > 0 || rerr > 0 {
			return fmt.Errorf("strict: %d malformed response lines, %d per-read errors", inv, rerr)
		}
	}
	return nil
}

// tally counts mapped reads, records, per-read error lines, and
// malformed lines from a 200 response body.
func tally(body []byte, isSAM bool) {
	if isSAM {
		for _, line := range strings.Split(string(body), "\n") {
			if line == "" || strings.HasPrefix(line, "@") {
				continue
			}
			fields := strings.Split(line, "\t")
			if len(fields) < 11 {
				cInvalid.Inc()
				continue
			}
			cRecords.Inc()
			cReadsOK.Inc()
			if fields[1] != "4" {
				cReadsMapped.Inc()
			}
		}
		return
	}
	for _, line := range bytes.Split(body, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var parsed struct {
			Read    string            `json:"read"`
			Mapped  bool              `json:"mapped"`
			Records []json.RawMessage `json:"records"`
			Error   string            `json:"error"`
		}
		if json.Unmarshal(line, &parsed) != nil {
			cInvalid.Inc()
			continue
		}
		if parsed.Error != "" {
			// A structured per-read error: the service degraded one read
			// instead of failing the request — count it separately.
			cReadErrors.Inc()
			continue
		}
		cRecords.Add(int64(len(parsed.Records)))
		cReadsOK.Inc()
		if parsed.Mapped {
			cReadsMapped.Inc()
		}
	}
}

// targetAgg is summarize's per-target slice of the run.
type targetAgg struct {
	ok, failed int
	lats       []time.Duration
}

// summarize prints the throughput/latency digest. Percentiles come
// from the raw latency samples, not histogram bins.
func summarize(w io.Writer, results []result, wall time.Duration, timing *timingAgg) {
	var ok, rejected, failed, retried int
	var lats, failLats []time.Duration
	var failIDs []string
	for _, r := range results {
		retried += r.retries
		isFailure := false
		switch {
		case r.err != nil || r.status >= 500:
			failed++
			isFailure = true
			if r.err == nil {
				failLats = append(failLats, r.latency)
			}
		case r.status == http.StatusTooManyRequests:
			rejected++
			isFailure = true
			failLats = append(failLats, r.latency)
		case r.status == http.StatusOK:
			ok++
			lats = append(lats, r.latency)
		default:
			failed++
			isFailure = true
			failLats = append(failLats, r.latency)
		}
		if isFailure && r.reqID != "" && len(failIDs) < 5 {
			failIDs = append(failIDs, r.reqID)
		}
	}
	pctOf := func(samples []time.Duration, p float64) time.Duration {
		if len(samples) == 0 {
			return 0
		}
		i := int(p * float64(len(samples)-1))
		return samples[i]
	}
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	sort.Slice(failLats, func(a, b int) bool { return failLats[a] < failLats[b] })
	fmt.Fprintf(w, "requests: %d ok, %d rejected (429), %d failed, %d retries in %.2fs\n",
		ok, rejected, failed, retried, wall.Seconds())
	fmt.Fprintf(w, "throughput: %.1f req/s, %.1f reads/s (%d records, %d/%d reads mapped)\n",
		float64(ok)/wall.Seconds(), float64(cReadsOK.Value())/wall.Seconds(),
		cRecords.Value(), cReadsMapped.Value(), cReadsOK.Value())
	if len(lats) > 0 {
		fmt.Fprintf(w, "latency: p50=%s p90=%s p99=%s max=%s\n",
			pctOf(lats, 0.50).Round(time.Microsecond), pctOf(lats, 0.90).Round(time.Microsecond),
			pctOf(lats, 0.99).Round(time.Microsecond), lats[len(lats)-1].Round(time.Microsecond))
	}
	// Failure latency matters for resilience tuning: fast structured
	// failures (breaker open, queue full) versus slow timeouts show up
	// here, not in the success percentiles.
	if len(failLats) > 0 {
		fmt.Fprintf(w, "failure latency: p50=%s p99=%s max=%s\n",
			pctOf(failLats, 0.50).Round(time.Microsecond), pctOf(failLats, 0.99).Round(time.Microsecond),
			failLats[len(failLats)-1].Round(time.Microsecond))
	}
	// Per-target breakdown: with several -target entries, uneven p50s
	// point at a hot node and failure counts at a sick one — the first
	// question a scatter tier raises that a single-node summary hides.
	perTarget := make(map[string]*targetAgg)
	var targetNames []string
	for _, r := range results {
		if r.target == "" {
			continue
		}
		agg := perTarget[r.target]
		if agg == nil {
			agg = &targetAgg{}
			perTarget[r.target] = agg
			targetNames = append(targetNames, r.target)
		}
		switch {
		case r.err == nil && r.status == http.StatusOK:
			agg.ok++
			agg.lats = append(agg.lats, r.latency)
		default:
			agg.failed++
		}
	}
	if len(targetNames) > 1 {
		sort.Strings(targetNames)
		for _, name := range targetNames {
			agg := perTarget[name]
			sort.Slice(agg.lats, func(a, b int) bool { return agg.lats[a] < agg.lats[b] })
			fmt.Fprintf(w, "target %s: %d ok, %d failed", name, agg.ok, agg.failed)
			if len(agg.lats) > 0 {
				fmt.Fprintf(w, ", p50=%s p99=%s",
					pctOf(agg.lats, 0.50).Round(time.Microsecond), pctOf(agg.lats, 0.99).Round(time.Microsecond))
			}
			fmt.Fprintln(w)
		}
	}
	// Server-assigned request IDs join client-side failures to the
	// server's access log, error envelopes, and /debug/slow captures.
	if len(failIDs) > 0 {
		fmt.Fprintf(w, "failed request ids (sample): %s\n", strings.Join(failIDs, ", "))
	}
	// Server-side stage split, from Server-Timing response headers:
	// where the server says the successful requests' time went.
	if timing != nil && len(timing.stages) > 0 {
		names := make([]string, 0, len(timing.stages))
		for name := range timing.stages {
			if name != "total" {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		if _, hasTotal := timing.stages["total"]; hasTotal {
			names = append(names, "total") // total reads best last
		}
		fmt.Fprintf(w, "server timing (ms):")
		for _, name := range names {
			samples := timing.stages[name]
			sort.Float64s(samples)
			p50 := samples[int(0.50*float64(len(samples)-1))]
			p95 := samples[int(0.95*float64(len(samples)-1))]
			fmt.Fprintf(w, " %s p50=%.1f p95=%.1f", name, p50, p95)
		}
		fmt.Fprintln(w)
	}
	if v := cReadErrors.Value(); v > 0 {
		fmt.Fprintf(w, "per-read errors: %d (structured error lines in 200 responses)\n", v)
	}
	if v := cInvalid.Value(); v > 0 {
		fmt.Fprintf(w, "malformed lines: %d\n", v)
	}
}
