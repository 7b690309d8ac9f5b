package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/faults"
	"darwin/internal/genome"
	"darwin/internal/obs"
	"darwin/internal/readsim"
	"darwin/internal/server"
	"darwin/internal/shard"
)

// writeRef writes seq as a one-sequence FASTA and returns its path.
func writeRef(t *testing.T, seq dna.Seq) string {
	t.Helper()
	var buf bytes.Buffer
	if err := dna.WriteFASTA(&buf, []dna.Record{{Name: "chr1", Seq: seq}}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ref.fa")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// warmDarwind boots a real darwind over cfg's reference.
func warmDarwind(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	s := server.New(cfg)
	if err := s.Warm(t.Context()); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestClusterBytesEqualMonolith: a probed router over two real darwind
// workers answers /v1/map — NDJSON and ?format=sam — with the bytes a
// monolithic darwind answers for the same request and X-Request-ID:
// mapped reads, an unmapped read, and per-read error lines.
func TestClusterBytesEqualMonolith(t *testing.T) {
	defer faults.Default.Reset()
	g, err := genome.Generate(genome.DefaultConfig(60000))
	if err != nil {
		t.Fatal(err)
	}
	refPath := writeRef(t, g.Seq)
	sim, err := readsim.SimulateN(g.Seq, 5, readsim.Config{Profile: readsim.PacBio, MeanLen: 900, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var req server.MapRequest
	for _, r := range sim {
		req.Reads = append(req.Reads, server.ReadInput{Name: r.Name, Seq: r.Seq})
	}
	// A read drawn from no reference at all comes back unmapped.
	req.Reads = append(req.Reads, server.ReadInput{Name: "stray", Seq: dna.Random(rand.New(rand.NewSource(8)), 700, 0.5)})
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	base := server.Config{DefaultRef: refPath, Core: core.DefaultConfig(11, 400, 18), DisableSidecar: true, Logger: quiet}
	mono := warmDarwind(t, base)

	roster := []Worker{{Name: "w0"}, {Name: "w1"}}
	cmap, err := NewMap(roster, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range roster {
		name := roster[i].Name
		cfg := base
		cfg.Shard = shard.Config{Shards: 4}
		cfg.Worker = server.WorkerConfig{Enabled: true, Name: name,
			AssignShards: func(n int) ([]int, error) { return cmap.OwnedBy(name, n) }}
		ts := httptest.NewServer(warmDarwind(t, cfg).Handler())
		t.Cleanup(ts.Close)
		roster[i].URL = ts.URL
	}
	rt, err := New(Config{Workers: roster, Replication: 1, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Probe(t.Context()); err != nil {
		t.Fatal(err)
	}
	monoTS, routerTS := httptest.NewServer(mono.Handler()), httptest.NewServer(rt.Handler())
	t.Cleanup(monoTS.Close)
	t.Cleanup(routerTS.Close)

	post := func(url, query string) []byte {
		t.Helper()
		hreq, err := http.NewRequest(http.MethodPost, url+"/v1/map"+query, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		hreq.Header.Set("X-Request-ID", "identity-1")
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s%s: HTTP %d, %v: %s", url, query, resp.StatusCode, err, out)
		}
		return out
	}
	compare := func(what, query string) []byte {
		t.Helper()
		want, got := post(monoTS.URL, query), post(routerTS.URL, query)
		if !bytes.Equal(want, got) {
			t.Errorf("%s: router body differs from the monolith's\nmonolith: %s\nrouter:   %s", what, want, got)
		}
		return want
	}

	ndjson := compare("NDJSON", "")
	if n := bytes.Count(ndjson, []byte(`"mapped":true`)); n < 3 {
		t.Errorf("%d mapped reads in %s, want the simulated reads to map", n, ndjson)
	}
	if !bytes.Contains(ndjson, []byte(`{"read":"stray","mapped":false`)) {
		t.Errorf("stray read not reported unmapped in %s", ndjson)
	}
	compare("SAM", "?format=sam")

	// Every read poisoned, on every tier: each becomes an error line, and
	// the line reads the same whichever tier's engine failed it.
	if err := faults.Default.Enable("core/map_read=error=poisoned read"); err != nil {
		t.Fatal(err)
	}
	ndjson = compare("NDJSON error lines", "")
	if n := bytes.Count(ndjson, []byte(`"error":"injected fault at core/map_read: poisoned read"`)); n != len(req.Reads) {
		t.Errorf("%d error lines for %d poisoned reads: %s", n, len(req.Reads), ndjson)
	}
	compare("SAM of failed reads", "?format=sam")
}

// logBuffer collects a tier's log; attempts the router has abandoned may
// still be logging when the test reads it.
type logBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

// take returns what was logged since the last take.
func (l *logBuffer) take() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	defer l.b.Reset()
	return l.b.String()
}

// answer is what a client can tell about one response.
type answer struct {
	status     int
	code       string
	retryAfter string
	envelope   bool   // a well-formed error envelope carrying the request's ID
	level      string // of the tier's access line
	logFields  bool   // the access line has darwind's field names
}

var accessLine = regexp.MustCompile(`level=(\w+) msg=request .*`)

// ask sends one request to a tier in process and reports its answer;
// logs is where the tier's access lines go.
func ask(t *testing.T, h http.Handler, logs *logBuffer, ctx context.Context, method, body string) answer {
	t.Helper()
	logs.take()
	req := httptest.NewRequest(method, "/v1/map", strings.NewReader(body)).WithContext(ctx)
	req.Header.Set("X-Request-ID", "like-darwind")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	a := answer{status: rec.Code, retryAfter: rec.Header().Get("Retry-After")}
	var eb server.ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err == nil {
		a.code = eb.Error.Code
		a.envelope = eb.Error.Message != "" && eb.Error.RequestID == "like-darwind"
	}
	if m := accessLine.FindStringSubmatch(logs.take()); m != nil {
		a.level = m[1]
		a.logFields = strings.Contains(m[0], " duration=") && strings.Contains(m[0], " remote=") &&
			strings.Contains(m[0], " error_code="+a.code)
	}
	return a
}

// TestRouterAnswersLikeDarwind: the same requests sent to a router over
// fake workers and to a darwind get the same status, error code,
// Retry-After, envelope shape and access line — a client, and an
// operator reading the log, cannot tell the tiers apart.
func TestRouterAnswersLikeDarwind(t *testing.T) {
	defer faults.Default.Reset()
	refPath := writeRef(t, dna.Random(rand.New(rand.NewSource(3)), 20000, 0.5))
	var dlogs, rlogs logBuffer
	dcfg := server.Config{DefaultRef: refPath, Core: core.DefaultConfig(11, 400, 18), DisableSidecar: true,
		MaxReadsPerRequest: 2, Logger: slog.New(slog.NewTextHandler(&dlogs, nil))}
	darwind := warmDarwind(t, dcfg)

	// The fake workers answer at once until stall is set; then they hold
	// every sub-request until the router gives up on it.
	var stall atomic.Bool
	worker := func(w http.ResponseWriter, r *http.Request) {
		if stall.Load() {
			// The server notices a caller's hang-up once the body is read.
			io.Copy(io.Discard, r.Body)
			<-r.Context().Done()
			return
		}
		scatterRespond(nil)(w, r)
	}
	rcfg := Config{Replication: 1, BreakerThreshold: 1, MaxReadsPerRequest: 2,
		Logger: slog.New(slog.NewTextHandler(&rlogs, nil))}
	tc := startCluster(t, rcfg, []http.HandlerFunc{worker, worker})

	type tiers struct{ darwind, router http.Handler }
	ready := tiers{darwind.Handler(), tc.rt.Handler()}
	unprobed, err := New(Config{Workers: tc.workers, Replication: 1, Logger: rcfg.Logger})
	if err != nil {
		t.Fatal(err)
	}
	cold := tiers{server.New(dcfg).Handler(), unprobed.Handler()}

	const read = `{"name":"r","seq":"ACGTACGTACGTACGTACGT"}`
	rows := []struct {
		name, method, body string
		on                 tiers
		// slow makes the work stage outlast the request: darwind's reads
		// take 200ms each, the router's workers stall. hangUp then has the
		// caller go away 30ms in.
		slow, hangUp bool
		status       int
		code         string
	}{
		{name: "GET", method: http.MethodGet, on: ready, status: 405, code: server.CodeMethodNotAllow},
		{name: "bad JSON", body: `not json`, on: ready, status: 400, code: server.CodeBadRequest},
		{name: "no reads", body: `{"reads":[]}`, on: ready, status: 400, code: server.CodeBadRequest},
		{name: "too many reads", body: `{"reads":[` + read + `,` + read + `,` + read + `]}`, on: ready, status: 413, code: server.CodeTooManyReads},
		{name: "empty sequence", body: `{"reads":[{"name":"r","seq":""}]}`, on: ready, status: 400, code: server.CodeBadRequest},
		{name: "reference set", body: `{"reference":"/other.fa","reads":[` + read + `]}`, on: ready, status: 403, code: server.CodeRefLoadDisabled},
		{name: "not ready", body: `{"reads":[` + read + `]}`, on: cold, status: 503, code: server.CodeWarming},
		{name: "hang-up", body: `{"reads":[` + read + `,` + read + `]}`, on: ready, slow: true, hangUp: true, status: 499, code: server.CodeCanceled},
		{name: "deadline", body: `{"timeout_ms":30,"reads":[` + read + `,` + read + `]}`, on: ready, slow: true, status: 504, code: server.CodeDeadline},
		// Last: draining is for good.
		{name: "draining", body: `{"reads":[` + read + `]}`, on: ready, status: 503, code: server.CodeDraining},
	}
	failed := obs.Default.Counter("cluster/requests_failed")
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if row.method == "" {
				row.method = http.MethodPost
			}
			if row.name == "draining" {
				darwind.StartDrain()
				tc.rt.StartDrain()
			}
			if row.slow {
				stall.Store(true)
				defer stall.Store(false)
				if err := faults.Default.Enable("core/map_read=delay=200ms"); err != nil {
					t.Fatal(err)
				}
				defer faults.Default.Reset()
			}
			// A caller that hangs up cancels its request; it does not time
			// it out.
			caller := func() context.Context {
				ctx, cancel := context.WithCancel(t.Context())
				if row.hangUp {
					time.AfterFunc(30*time.Millisecond, cancel)
				}
				t.Cleanup(cancel)
				return ctx
			}
			failedBefore, opensBefore := failed.Value(), cBreakerOpens.Value()
			want := ask(t, row.on.darwind, &dlogs, caller(), row.method, row.body)
			got := ask(t, row.on.router, &rlogs, caller(), row.method, row.body)
			if want.status != row.status || want.code != row.code || !want.envelope || !want.logFields {
				t.Errorf("darwind answered %+v, want %d %s in a full envelope and access line", want, row.status, row.code)
			}
			if got != want {
				t.Errorf("router answered %+v, darwind %+v", got, want)
			}
			if row.hangUp {
				// The caller going away is not the router failing, nor any
				// worker: with BreakerThreshold 1 one charge would open one.
				if d := failed.Value() - failedBefore; d != 0 {
					t.Errorf("hang-up counted as %d failed requests, want 0", d)
				}
				time.Sleep(50 * time.Millisecond) // the abandoned attempts' failure paths
				if d := cBreakerOpens.Value() - opensBefore; d != 0 {
					t.Errorf("hang-up opened %d worker breakers, want 0", d)
				}
			}
		})
	}
}

// TestRouterProbeRejectsLayoutMismatch: two FASTA-built darwind workers
// (no index fingerprint to compare) over the same bases under different
// sequence names agree on geometry, engine, ownership and total length,
// yet merged SAM would carry only one worker's names. The probe must
// refuse them.
func TestRouterProbeRejectsLayoutMismatch(t *testing.T) {
	seq := dna.Random(rand.New(rand.NewSource(5)), 20000, 0.5)
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	roster := []Worker{{Name: "w0"}, {Name: "w1"}}
	cmap, err := NewMap(roster, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, seqName := range []string{"chr1", "chrA"} {
		var buf bytes.Buffer
		if err := dna.WriteFASTA(&buf, []dna.Record{{Name: seqName, Seq: seq}}); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "ref.fa")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		name := roster[i].Name
		cfg := server.Config{DefaultRef: path, Core: core.DefaultConfig(11, 400, 18), DisableSidecar: true, Logger: quiet,
			Shard: shard.Config{Shards: 2},
			Worker: server.WorkerConfig{Enabled: true, Name: name,
				AssignShards: func(n int) ([]int, error) { return cmap.OwnedBy(name, n) }}}
		ts := httptest.NewServer(warmDarwind(t, cfg).Handler())
		t.Cleanup(ts.Close)
		roster[i].URL = ts.URL
	}
	rt, err := New(Config{Workers: roster, Replication: 1, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Probe(t.Context()); err == nil || !strings.Contains(err.Error(), "reference layout") {
		t.Fatalf("probe over workers naming their sequence chr1 and chrA: %v, want a reference-layout refusal", err)
	}
	if rt.Ready() {
		t.Fatal("router ready after a failed probe")
	}
}
