package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"darwin/internal/faults"
	"darwin/internal/obs"
)

func TestBreakerStateMachine(t *testing.T) {
	br := NewBreaker(2, 50*time.Millisecond)
	if !br.Allow() {
		t.Fatal("fresh breaker must allow")
	}
	br.Failure()
	if br.State() != "closed" || !br.Allow() {
		t.Fatal("one failure below threshold must keep the circuit closed")
	}
	br.Failure()
	if br.State() != "open" {
		t.Fatalf("state after threshold failures = %s, want open", br.State())
	}
	if br.Allow() {
		t.Fatal("open breaker within cooldown must fast-fail")
	}
	time.Sleep(60 * time.Millisecond)
	if !br.Allow() {
		t.Fatal("breaker past cooldown must admit one probe")
	}
	if br.State() != "half-open" {
		t.Fatalf("state during probe = %s, want half-open", br.State())
	}
	if br.Allow() {
		t.Fatal("second caller during half-open probe must fast-fail")
	}
	// A failed probe re-opens immediately.
	br.Failure()
	if br.State() != "open" || br.Allow() {
		t.Fatal("failed probe must re-open the circuit")
	}
	time.Sleep(60 * time.Millisecond)
	if !br.Allow() {
		t.Fatal("re-opened breaker must probe again after cooldown")
	}
	br.Success()
	if br.State() != "closed" || !br.Allow() {
		t.Fatal("successful probe must close the circuit")
	}
}

// TestPanicIsolatesOneRead: a read that panics mid-map (injected at
// core/map_read) fails only its own response line; the other reads of
// the same request come back with records and the response is still a
// 200.
func TestPanicIsolatesOneRead(t *testing.T) {
	defer faults.Default.Reset()
	_, ts, reads := testService(t, Config{})
	// The warm index is built; arm the per-read point now so the third
	// map call of the upcoming request panics.
	if err := faults.Default.Enable("core/map_read=after=2,times=1,panic=poisoned read"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/map", "application/json", bytes.NewReader(mapRequestBody(t, reads)))
	faults.Default.Reset()
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (per-read failure must not fail the request)", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var lines []MapResponseLine
	for sc.Scan() {
		var line MapResponseLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if len(lines) != len(reads) {
		t.Fatalf("%d response lines for %d reads", len(lines), len(reads))
	}
	for i, line := range lines {
		if i == 2 {
			if line.Error == "" {
				t.Errorf("read 2: no error line for the panicked read")
			}
			if len(line.Records) != 0 {
				t.Errorf("read 2: panicked read still carries records")
			}
			continue
		}
		if line.Error != "" {
			t.Errorf("read %d: unexpected error %q (blast radius exceeded one read)", i, line.Error)
		}
		if len(line.Records) == 0 {
			t.Errorf("read %d: no records", i)
		}
	}
}

// TestFlushPanicFailsOneRequest: a panic in the map stage (injected at
// server/flush) is answered to that request as a structured 500 and
// gives its slot back — the next request on the same one-slot gate
// maps normally.
func TestFlushPanicFailsOneRequest(t *testing.T) {
	defer faults.Default.Reset()
	s, ts, reads := testService(t, Config{})
	s.mapGate = newGate(1, 0)
	if err := faults.Default.Enable("server/flush=times=1,panic=poisoned request"); err != nil {
		t.Fatal(err)
	}
	body := mapRequestBody(t, reads[:1])
	resp, err := http.Post(ts.URL+"/v1/map", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var eb ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("panicked request did not get the structured envelope: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || eb.Error.Code != CodeInternal {
		t.Fatalf("panicked request: status=%d code=%q, want 500 %s", resp.StatusCode, eb.Error.Code, CodeInternal)
	}
	resp, err = http.Post(ts.URL+"/v1/map", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the panic: status %d, want 200 (the slot was not given back)", resp.StatusCode)
	}
}

// TestMapCanceledVsDeadline: a caller that hangs up mid-request is
// answered 499 canceled — a WARN access line that spends no error
// budget — while a request that outlives its own timeout_ms is a 504;
// either way the request stops mapping instead of finishing its reads.
func TestMapCanceledVsDeadline(t *testing.T) {
	defer faults.Default.Reset()
	var logs bytes.Buffer
	s, _, reads := testService(t, Config{Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	// Every read takes at least 40ms, so a request's eight reads outlast
	// both the hang-up and the 60ms deadline below.
	if err := faults.Default.Enable("core/map_read=delay=40ms"); err != nil {
		t.Fatal(err)
	}
	handler := s.Handler()
	// serve runs one request in process, so its access line is written
	// before serve returns; it reports how many reads were mapped.
	serve := func(ctx context.Context, timeoutMS int) (*httptest.ResponseRecorder, int64) {
		req := MapRequest{TimeoutMS: timeoutMS}
		for i, r := range reads {
			req.Reads = append(req.Reads, ReadInput{Name: fmt.Sprintf("read%d", i), Seq: r.Seq})
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		logs.Reset()
		before := obs.Default.Snapshot()
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/map", bytes.NewReader(body)).WithContext(ctx))
		return rec, obs.Default.Snapshot().Sub(before).Counters["core/reads"]
	}
	check := func(what string, rec *httptest.ResponseRecorder, mapped int64, status int, code, level string) {
		t.Helper()
		var eb ErrorBody
		if err := json.NewDecoder(rec.Body).Decode(&eb); err != nil {
			t.Fatalf("%s: no structured envelope: %v", what, err)
		}
		if rec.Code != status || eb.Error.Code != code {
			t.Errorf("%s: status=%d code=%q, want %d %s", what, rec.Code, eb.Error.Code, status, code)
		}
		if !strings.Contains(logs.String(), "level="+level) {
			t.Errorf("%s: access line %q, want level=%s", what, logs.String(), level)
		}
		if mapped >= int64(len(reads)) {
			t.Errorf("%s: all %d reads were mapped, want the request to stop early", what, mapped)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Hang up once the request is mapping.
		for len(s.mapGate.slots) == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	rec, mapped := serve(ctx, 0)
	check("caller hang-up", rec, mapped, statusClientClosedRequest, CodeCanceled, "WARN")
	if f := s.stats.failures.Total(time.Minute); f != 0 {
		t.Errorf("caller hang-up counted as %d SLO failures, want 0", f)
	}

	rec, mapped = serve(context.Background(), 60)
	check("own deadline", rec, mapped, http.StatusGatewayTimeout, CodeDeadline, "ERROR")
	if f := s.stats.failures.Total(time.Minute); f != 1 {
		t.Errorf("blown deadline counted as %d SLO failures, want 1", f)
	}
}

// TestBreakerOpensOnDoomedReference: repeated failing on-demand index
// builds for one source open its breaker within BreakerThreshold
// attempts; subsequent requests fail fast with the circuit_open code
// and a Retry-After hint, without touching the (healthy) default index.
func TestBreakerOpensOnDoomedReference(t *testing.T) {
	_, ts, reads := testService(t, Config{
		AllowRefLoad:     true,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute,
	})
	body := func() []byte {
		b, _ := json.Marshal(MapRequest{
			Reference: "/nonexistent/doomed.fa",
			Reads:     []ReadInput{{Name: "r", Seq: reads[0].Seq}},
		})
		return b
	}
	post := func() (int, ErrorBody, string) {
		resp, err := http.Post(ts.URL+"/v1/map", "application/json", bytes.NewReader(body()))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var eb ErrorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatalf("error response is not the structured envelope: %v", err)
		}
		return resp.StatusCode, eb, resp.Header.Get("Retry-After")
	}
	for i := 0; i < 2; i++ {
		status, eb, _ := post()
		if status != http.StatusBadRequest || eb.Error.Code != CodeRefLoadFailed {
			t.Fatalf("attempt %d: status=%d code=%q, want 400 %s", i, status, eb.Error.Code, CodeRefLoadFailed)
		}
	}
	status, eb, retryAfter := post()
	if status != http.StatusServiceUnavailable || eb.Error.Code != CodeCircuitOpen {
		t.Fatalf("post-threshold: status=%d code=%q, want 503 %s", status, eb.Error.Code, CodeCircuitOpen)
	}
	if retryAfter == "" {
		t.Error("circuit-open 503 without Retry-After")
	}
	// The default reference is a different breaker: still healthy.
	resp, err := http.Post(ts.URL+"/v1/map", "application/json", bytes.NewReader(mapRequestBody(t, reads[:1])))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("default reference after doomed-source breaker opened: status %d, want 200", resp.StatusCode)
	}
}

// TestIndexBuildPanicCountsTowardBreaker: a build that panics (not just
// errors) must be recovered into a breaker failure, or a poisoned FASTA
// could crash-loop the build forever without ever tripping the circuit.
func TestIndexBuildPanicCountsTowardBreaker(t *testing.T) {
	s := New(Config{BreakerThreshold: 1, BreakerCooldown: time.Minute})
	// Reach loadEntry's breaker bookkeeping directly through the cache
	// path by pointing at a source whose build panics.
	key := IndexKey("panic.fa", s.cfg.Core, s.cfg.Shard)
	br := s.breakerFor(key)
	_, err := buildRecovered(func() (*IndexEntry, error) { panic("poisoned FASTA") })
	if err == nil {
		t.Fatal("buildRecovered swallowed the panic without an error")
	}
	br.Failure()
	if br.State() != "open" {
		t.Fatalf("breaker state after panicking build = %s, want open", br.State())
	}
}

// TestDrainGoroutineBaselineWithFaults: after a chaos burst (injected
// flush faults and per-read panics) and a full drain, the process's
// goroutine count must settle back to the pre-serve baseline — a leak
// here means a handler, watchdog, or build goroutine survived its
// request.
func TestDrainGoroutineBaselineWithFaults(t *testing.T) {
	defer faults.Default.Reset()
	baseline := runtime.NumGoroutine()

	s, ts, reads := testService(t, Config{})
	if err := faults.Default.Enable("server/flush=p=0.3,error=chaos;core/map_read=every=5,panic=poisoned"); err != nil {
		t.Fatal(err)
	}
	body := mapRequestBody(t, reads)
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/map", "application/json", bytes.NewReader(body))
			if err != nil {
				return // connection-level failures are fine here
			}
			// Responses must be well-formed: 200 NDJSON or a structured
			// error envelope, never a half-written body.
			if resp.StatusCode != http.StatusOK {
				var eb ErrorBody
				if derr := json.NewDecoder(resp.Body).Decode(&eb); derr != nil || eb.Error.Code == "" {
					t.Errorf("status %d without a structured error body", resp.StatusCode)
				}
			}
			resp.Body.Close()
		}()
	}
	wg.Wait()
	faults.Default.Reset()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	ts.Close()
	http.DefaultClient.CloseIdleConnections()

	// Settle loop: GC/netpoll goroutines take a moment to unwind.
	const tolerance = 3
	deadline := time.Now().Add(5 * time.Second)
	for {
		excess := runtime.NumGoroutine() - baseline - tolerance
		if excess <= 0 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("%d goroutines above baseline %d after drain:\n%s", excess, baseline, buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestCacheGetHonorsWaiterContext: a Get whose context expires while
// the (slow) build is still running returns the context error, but the
// build completes and is cached for the next caller.
func TestCacheGetHonorsWaiterContext(t *testing.T) {
	cache := NewIndexCache(2)
	started := make(chan struct{})
	release := make(chan struct{})
	build := func() (*IndexEntry, error) {
		close(started)
		<-release
		return testEntry(t, "slow", 48, 20000), nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, _, err := cache.Get(ctx, "slow", build)
		errCh <- err
	}()
	<-started
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("Get with cancelled ctx = %v, want context.Canceled", err)
	}
	close(release)
	// The abandoned build must still land in the cache.
	deadline := time.Now().Add(5 * time.Second)
	for cache.Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned build never reached the cache")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, hit, err := cache.Get(context.Background(), "slow", func() (*IndexEntry, error) {
		t.Error("second Get rebuilt despite cached entry")
		return nil, errors.New("unreachable")
	}); err != nil || !hit {
		t.Fatalf("second Get: hit=%v err=%v, want cache hit", hit, err)
	}
}
