package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/readsim"
)

// testService writes a synthetic reference FASTA, warms a server on
// it, and returns the server plus simulated reads with ground truth.
func testService(t *testing.T, cfg Config) (*Server, *httptest.Server, []readsim.Read) {
	t.Helper()
	ref := dna.Random(rand.New(rand.NewSource(61)), 80000, 0.5)
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.fa")
	var buf bytes.Buffer
	if err := dna.WriteFASTA(&buf, []dna.Record{{Name: "chr1", Seq: ref}}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(refPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.DefaultRef = refPath
	if cfg.Core.SeedK == 0 {
		cfg.Core = testCoreConfig()
	}
	s := New(cfg)
	if err := s.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	reads, err := readsim.SimulateN(ref, 8, readsim.Config{Profile: readsim.PacBio, MeanLen: 900, Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	return s, ts, reads
}

func mapRequestBody(t *testing.T, reads []readsim.Read) []byte {
	t.Helper()
	req := MapRequest{}
	for i, r := range reads {
		req.Reads = append(req.Reads, ReadInput{Name: fmt.Sprintf("read%d", i), Seq: r.Seq})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestServeMapNDJSON(t *testing.T) {
	_, ts, reads := testService(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/map", "application/json", bytes.NewReader(mapRequestBody(t, reads)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Errorf("content type %q, want NDJSON", ct)
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
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(reads) {
		t.Fatalf("%d response lines for %d reads", len(lines), len(reads))
	}
	mapped := 0
	for i, line := range lines {
		if line.Read != fmt.Sprintf("read%d", i) {
			t.Errorf("line %d: read name %q out of order", i, line.Read)
		}
		if len(line.Records) == 0 {
			t.Errorf("line %d: no records (even unmapped reads emit one)", i)
		}
		if line.Mapped {
			mapped++
			rec := line.Records[0]
			if rec.RName != "chr1" || rec.Cigar == "" {
				t.Errorf("line %d: bad record %+v", i, rec)
			}
			// Mapped position must be near the simulated origin.
			if rec.Pos < reads[i].RefStart-100 || rec.Pos > reads[i].RefStart+100 {
				t.Errorf("line %d: pos %d far from truth %d", i, rec.Pos, reads[i].RefStart)
			}
		}
	}
	if mapped < len(reads)-1 {
		t.Errorf("only %d/%d reads mapped", mapped, len(reads))
	}
}

func TestServeMapSAMFormat(t *testing.T) {
	_, ts, reads := testService(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/map?format=sam", "application/json", bytes.NewReader(mapRequestBody(t, reads)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var header, records int
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "@") {
			header++
			continue
		}
		records++
		fields := strings.Split(line, "\t")
		if len(fields) < 11 {
			t.Errorf("SAM record has %d fields: %q", len(fields), line)
		}
	}
	if header < 2 {
		t.Errorf("%d header lines, want @HD + @SQ at least", header)
	}
	if records < len(reads) {
		t.Errorf("%d SAM records for %d reads", records, len(reads))
	}
}

func TestHealthAndReadiness(t *testing.T) {
	s, ts, _ := testService(t, Config{})
	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("healthz = %d", got)
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Errorf("readyz warm = %d", got)
	}
	s.StartDrain()
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("readyz draining = %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("healthz draining = %d, want 200 (liveness)", got)
	}
}

func TestReadyzBeforeWarm(t *testing.T) {
	s := New(Config{DefaultRef: "/nonexistent.fa"})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz before warm = %d, want 503", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/map", strings.NewReader(`{"reads":[{"name":"r","seq":"ACGT"}]}`)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("map before warm = %d, want 503", rec.Code)
	}
}

func TestMapRejectsBadRequests(t *testing.T) {
	s, ts, reads := testService(t, Config{MaxReadsPerRequest: 4})
	post := func(body string) *http.Response {
		resp, err := http.Post(ts.URL+"/v1/map", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := post(`not json`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON = %d", resp.StatusCode)
	}
	if resp := post(`{"reads":[]}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("no reads = %d", resp.StatusCode)
	}
	if resp := post(`{"reads":[{"name":"r","seq":""}]}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty seq = %d", resp.StatusCode)
	}
	big, _ := json.Marshal(MapRequest{Reads: []ReadInput{
		{Name: "a", Seq: reads[0].Seq}, {Name: "b", Seq: reads[0].Seq}, {Name: "c", Seq: reads[0].Seq},
		{Name: "d", Seq: reads[0].Seq}, {Name: "e", Seq: reads[0].Seq},
	}})
	if resp := post(string(big)); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize request = %d, want 413", resp.StatusCode)
	}
	// The server maps against the one reference it warmed: a request
	// naming any reference is refused, its own path included.
	if resp := post(`{"reference":"/etc/other.fa","reads":[{"name":"r","seq":"ACGT"}]}`); resp.StatusCode != http.StatusForbidden {
		t.Errorf("another reference = %d, want 403", resp.StatusCode)
	}
	own, _ := json.Marshal(MapRequest{Reference: s.cfg.DefaultRef, Reads: []ReadInput{{Name: "r", Seq: reads[0].Seq}}})
	if resp := post(string(own)); resp.StatusCode != http.StatusForbidden {
		t.Errorf("the warmed reference named explicitly = %d, want 403", resp.StatusCode)
	}
	// GET is not allowed.
	resp, err := http.Get(ts.URL + "/v1/map")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/map = %d", resp.StatusCode)
	}
}

// TestConcurrentRequestsMatchDirectMapping: more concurrent requests
// than the gate has slots, and every one of them gets record bytes
// equal to RecordsFor over an in-process Map of its reads.
func TestConcurrentRequestsMatchDirectMapping(t *testing.T) {
	s, ts, reads := testService(t, Config{})
	s.mapGate = newGate(2, 16)
	l := s.index.Load()
	seqs := make([]dna.Seq, len(reads))
	for i := range reads {
		seqs[i] = reads[i].Seq
	}
	direct, err := l.Mapper.Map(context.Background(), seqs, core.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}

	const n, per = 6, 2 // 6 requests of 2 reads on 2 slots
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			off := i % (len(reads) / per) * per
			resp, err := http.Post(ts.URL+"/v1/map", "application/json", bytes.NewReader(mapRequestBody(t, reads[off:off+per])))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
				return
			}
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
			for k := 0; sc.Scan(); k++ {
				var line struct {
					Records json.RawMessage `json:"records"`
				}
				if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
					t.Errorf("request %d line %d: %v", i, k, err)
					return
				}
				want, err := json.Marshal(RecordsFor(l.Ref, fmt.Sprintf("read%d", k), seqs[off+k], direct[off+k].Alignments, false))
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(line.Records, want) {
					t.Errorf("request %d read %d: served records differ from direct mapping", i, k)
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestMapQueueOverflow429: with the one mapping slot held (a stalled
// backend), the waiting places fill and overflow requests get 429 +
// Retry-After while the waiting requests time out at their deadline —
// and the queue-depth gauge is back at zero afterwards.
func TestMapQueueOverflow429(t *testing.T) {
	s, ts, reads := testService(t, Config{})
	s.mapGate = newGate(1, 2)
	if err := s.mapGate.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.mapGate.release()

	// A generous deadline: the two admitted requests must still be
	// waiting when the three overflow ones arrive.
	body, _ := json.Marshal(MapRequest{
		TimeoutMS: 1000,
		Reads:     []ReadInput{{Name: "r", Seq: reads[0].Seq}},
	})
	post := func(code *int) {
		resp, err := http.Post(ts.URL+"/v1/map", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		*code = resp.StatusCode
		if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
			t.Error("429 without Retry-After header")
		}
	}
	var wg sync.WaitGroup
	codes := make([]int, 5)
	for i := range codes {
		if i == 2 {
			waitFor(t, "two requests to queue", func() bool { w, _ := s.mapGate.counts(); return w == 2 })
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			post(&codes[i])
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		want := http.StatusGatewayTimeout // admitted, 504 at its deadline
		if i >= 2 {
			want = http.StatusTooManyRequests
		}
		if c != want {
			t.Errorf("request %d: status %d, want %d (codes %v)", i, c, want, codes)
		}
	}
	if d := gQueueDepth.Value(); d != 0 {
		t.Errorf("server/queue_depth = %d after the overload, want 0", d)
	}
}

// TestServerDrain: requests in flight when drain starts are all
// answered; requests after drain get 503.
func TestServerDrain(t *testing.T) {
	s, ts, reads := testService(t, Config{})
	body := mapRequestBody(t, reads)

	const n = 6
	codes := make([]int, n)
	var wg sync.WaitGroup
	started := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started <- struct{}{}
			resp, err := http.Post(ts.URL+"/v1/map", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	for i := 0; i < n; i++ {
		<-started
	}
	wg.Wait() // all responses received before we drain
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for i, c := range codes {
		if c != http.StatusOK {
			t.Errorf("pre-drain request %d: status %d, want 200", i, c)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/map", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain request = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("post-drain 503 without Retry-After")
	}
}

func TestIndexesEndpoint(t *testing.T) {
	_, ts, _ := testService(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/indexes")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []struct {
		Key       string `json:"key"`
		Sequences int    `json:"sequences"`
		Bases     int    `json:"bases"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Sequences != 1 || infos[0].Bases < 80000 {
		t.Errorf("indexes = %+v, want the one warm default index", infos)
	}
}
