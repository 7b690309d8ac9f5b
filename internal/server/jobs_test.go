package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"darwin/internal/dna"
	"darwin/internal/faults"
	"darwin/internal/genome"
	"darwin/internal/jobs"
	"darwin/internal/readsim"
)

// jobsTestServer starts a server with only the job API wired — job
// endpoints never touch the mapping index, so no reference warm is
// needed.
func jobsTestServer(t *testing.T, cfg Config) (*httptest.Server, *jobs.Manager) {
	t.Helper()
	mgr, err := jobs.New(jobs.Config{Dir: t.TempDir(), CheckpointEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Jobs = mgr
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		mgr.Drain(ctx)
	})
	return ts, mgr
}

// jobsTestReads simulates an assemblable read set.
func jobsTestReads(t *testing.T, n int) []readsim.Read {
	t.Helper()
	g, err := genome.Generate(genome.Config{Length: 15000, GC: 0.45, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := readsim.SimulateN(g.Seq, n, readsim.Config{Profile: readsim.PacBio, MeanLen: 1800, Seed: 78})
	if err != nil {
		t.Fatal(err)
	}
	return reads
}

func decodeJobStatus(t *testing.T, r io.Reader) jobs.Status {
	t.Helper()
	var st jobs.Status
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// pollJob polls status until terminal.
func pollJob(t *testing.T, base, id string, timeout time.Duration) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("status poll: HTTP %d: %s", resp.StatusCode, body)
		}
		st := decodeJobStatus(t, resp.Body)
		resp.Body.Close()
		if st.State.Terminal() {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal state", id)
	return jobs.Status{}
}

func wantEnvelopeCode(t *testing.T, resp *http.Response, status int, code string) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != status {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("HTTP %d, want %d: %s", resp.StatusCode, status, body)
	}
	var eb ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("decoding envelope: %v", err)
	}
	if eb.Error.Code != code {
		t.Errorf("envelope code = %q, want %q", eb.Error.Code, code)
	}
	if eb.Error.RequestID == "" {
		t.Error("envelope missing request_id")
	}
}

// TestJobsHTTPLifecycle: JSON submit → poll → stream contigs.
func TestJobsHTTPLifecycle(t *testing.T) {
	ts, _ := jobsTestServer(t, Config{})
	reads := jobsTestReads(t, 25)

	zero := 0
	req := JobRequest{Kind: "assemble", PolishRounds: &zero}
	for i, r := range reads {
		req.Reads = append(req.Reads, ReadInput{Name: fmt.Sprintf("read%d", i), Seq: r.Seq})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, b)
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("submit response missing X-Request-ID")
	}
	st := decodeJobStatus(t, resp.Body)
	resp.Body.Close()
	if st.ID == "" || st.Reads != len(reads) {
		t.Fatalf("submit status = %+v", st)
	}

	fin := pollJob(t, ts.URL, st.ID, 2*time.Minute)
	if fin.State != jobs.StateDone {
		t.Fatalf("state = %s (error %q)", fin.State, fin.Error)
	}
	if fin.Result == nil || fin.Result.Contigs == 0 {
		t.Fatalf("result meta = %+v", fin.Result)
	}

	rresp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("result: HTTP %d", rresp.StatusCode)
	}
	if ct := rresp.Header.Get("Content-Type"); !strings.Contains(ct, "fasta") {
		t.Errorf("result content type = %q", ct)
	}
	contigs, err := io.ReadAll(rresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(contigs, []byte(">contig_")) {
		t.Errorf("result body %.40q does not look like contig FASTA", contigs)
	}

	// The collection listing includes the job.
	lresp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var list []jobs.Status
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != st.ID {
		t.Errorf("list = %+v", list)
	}
}

// TestJobsHTTPSubmitFASTA: raw FASTA body, parameters via query.
func TestJobsHTTPSubmitFASTA(t *testing.T) {
	ts, _ := jobsTestServer(t, Config{})
	reads := jobsTestReads(t, 18)
	recs := make([]dna.Record, len(reads))
	for i, r := range reads {
		recs[i] = dna.Record{Name: r.Name, Seq: r.Seq}
	}
	var buf bytes.Buffer
	if err := dna.WriteFASTA(&buf, recs); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs?kind=overlap&min_overlap=500", "text/x-fasta", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, b)
	}
	st := decodeJobStatus(t, resp.Body)
	resp.Body.Close()
	if st.Kind != jobs.KindOverlap || st.Params.MinOverlap != 500 {
		t.Fatalf("submit status = %+v", st)
	}
	fin := pollJob(t, ts.URL, st.ID, 2*time.Minute)
	if fin.State != jobs.StateDone {
		t.Fatalf("state = %s (error %q)", fin.State, fin.Error)
	}
	rresp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	if ct := rresp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Errorf("result content type = %q", ct)
	}
}

// TestJobsHTTPErrors: the structured envelope codes of the job API.
func TestJobsHTTPErrors(t *testing.T) {
	ts, _ := jobsTestServer(t, Config{MaxBodyBytes: 2048})
	client := &http.Client{}

	// Unknown job.
	resp, err := http.Get(ts.URL + "/v1/jobs/jdeadbeef")
	if err != nil {
		t.Fatal(err)
	}
	wantEnvelopeCode(t, resp, http.StatusNotFound, CodeJobNotFound)

	// Result of unknown job.
	resp, err = http.Get(ts.URL + "/v1/jobs/jdeadbeef/result")
	if err != nil {
		t.Fatal(err)
	}
	wantEnvelopeCode(t, resp, http.StatusNotFound, CodeJobNotFound)

	// Method not allowed on the collection.
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/jobs", nil)
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	wantEnvelopeCode(t, resp, http.StatusMethodNotAllowed, CodeMethodNotAllow)

	// Oversized payload: MaxBodyBytes is 2 KiB, the decoder must hit
	// the limit while consuming this 16 KiB sequence string.
	big := []byte(`{"reads":[{"name":"r0","seq":"` + strings.Repeat("ACGT", 4096) + `"}]}`)
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	wantEnvelopeCode(t, resp, http.StatusRequestEntityTooLarge, CodePayloadTooLarge)

	// Bad query parameter.
	resp, err = http.Post(ts.URL+"/v1/jobs?min_overlap=nope", "text/x-fasta",
		strings.NewReader(">r0\nACGTACGT\n"))
	if err != nil {
		t.Fatal(err)
	}
	wantEnvelopeCode(t, resp, http.StatusBadRequest, CodeBadRequest)

	// An out-of-range JSON parameter is rejected at submit, as the same
	// value in the query is.
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"reads":[{"name":"r0","seq":"ACGTACGT"}],"polish_rounds":-1}`))
	if err != nil {
		t.Fatal(err)
	}
	wantEnvelopeCode(t, resp, http.StatusBadRequest, CodeBadRequest)

	// Empty sequence.
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"reads":[{"name":"r0","seq":""}]}`))
	if err != nil {
		t.Fatal(err)
	}
	wantEnvelopeCode(t, resp, http.StatusBadRequest, CodeBadRequest)
}

// TestJobsHTTPCancelAndNotDone: result before completion is 409
// job_not_done; after DELETE it is 409 job_canceled.
func TestJobsHTTPCancelAndNotDone(t *testing.T) {
	ts, _ := jobsTestServer(t, Config{})
	reads := jobsTestReads(t, 25)
	recs := make([]dna.Record, len(reads))
	for i, r := range reads {
		recs[i] = dna.Record{Name: r.Name, Seq: r.Seq}
	}
	var buf bytes.Buffer
	if err := dna.WriteFASTA(&buf, recs); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs?kind=assemble", "text/x-fasta", &buf)
	if err != nil {
		t.Fatal(err)
	}
	st := decodeJobStatus(t, resp.Body)
	resp.Body.Close()

	// Immediately asking for the result races the pipeline, which takes
	// far longer than this request round-trip.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	wantEnvelopeCode(t, resp, http.StatusConflict, CodeJobNotDone)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err = (&http.Client{}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("cancel: HTTP %d: %s", resp.StatusCode, b)
	}
	resp.Body.Close()

	fin := pollJob(t, ts.URL, st.ID, time.Minute)
	if fin.State != jobs.StateCanceled {
		t.Fatalf("state after cancel = %s", fin.State)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	wantEnvelopeCode(t, resp, http.StatusConflict, CodeJobCanceled)
}

// FuzzJobSubmit drives the /v1/jobs submit decoder — JSON, NDJSON or
// FASTA body, and a query string — with arbitrary input. It must not
// panic, and never answers 5xx but draining. A refusal is 400, 413 or
// 429 with its envelope code. A 202 names a kind and parameters
// jobs.Submit accepts, and its persisted payload, the one a restart
// resumes from, reads back as the job's count of non-empty reads.
// Every accepted job fails at once at the olc/overlap fault point, so
// none builds an index.
func FuzzJobSubmit(f *testing.F) {
	f.Cleanup(faults.Default.Reset)
	if err := faults.Default.Enable("olc/overlap=error=fuzz"); err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	mgr, err := jobs.New(jobs.Config{Dir: dir, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { mgr.Drain(context.Background()) })
	s := New(Config{Jobs: mgr, MaxBodyBytes: 4096})
	contentTypes := []string{"application/json", "application/x-ndjson", "text/x-fasta"}
	refusals := map[int]string{
		http.StatusBadRequest:            CodeBadRequest,
		http.StatusRequestEntityTooLarge: CodePayloadTooLarge,
		http.StatusTooManyRequests:       CodeQueueFull,
		http.StatusServiceUnavailable:    CodeDraining,
	}

	// The shapes jobs_test.go submits, per content type.
	for _, seed := range []struct {
		body  string
		ct    uint8
		query string
	}{
		{`{"reads":[{"name":"r0","seq":"ACGTACGT"},{"seq":"GGCCAATT"}]}`, 0, ""},
		{`{"kind":"overlap","reads":[{"name":"r0","seq":"ACGTACGT"}],"min_overlap":500,"polish_rounds":0,"min_contig":10}`, 0, ""},
		{`{"reads":[{"name":"r0","seq":"ACGTACGT"}],"polish_rounds":-1}`, 0, ""},
		{`{"reads":[{"name":"r0","seq":""}]}`, 0, ""},
		{`{"kind":"nope","reads":[{"name":"r0","seq":"ACGT"}]}`, 0, ""},
		{`{"reads":[]}`, 0, "kind=overlap"},
		{`{"reads":[{"name":"r0","seq":"` + strings.Repeat("ACGT", 1100) + `"}]}`, 0, ""},
		{"{\"name\":\"a\",\"seq\":\"ACGT\"}\n\n{\"seq\":\"GGCC\"}\n", 1, "polish=1"},
		{"{\"name\":\"a\",\"seq\":\"ACGT\"}\nnot json\n", 1, ""},
		{">r0\nACGTACGT\n>r1\nGGCCAATT\n", 2, "kind=overlap&min_overlap=800&polish=1&min_contig=5"},
		{">r0\nACGTACGT\n", 2, "min_overlap=nope"},
		{">r0\nACGTACGT\n", 2, "polish=-1"},
		{"", 2, ""},
		// A name that would split its record in the persisted payload.
		{`{"reads":[{"name":"a\n>b","seq":"ACGT"}]}`, 0, ""},
	} {
		f.Add([]byte(seed.body), seed.ct, seed.query)
	}

	f.Fuzz(func(t *testing.T, body []byte, ct uint8, query string) {
		r := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
		r.URL.RawQuery = query
		r.Header.Set("Content-Type", contentTypes[int(ct)%len(contentTypes)])
		w := httptest.NewRecorder()
		s.handleJobSubmit(w, r)
		if w.Code != http.StatusAccepted {
			var eb ErrorBody
			if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
				t.Fatalf("refused with %d and no envelope: %q", w.Code, w.Body.Bytes())
			}
			if code, known := refusals[w.Code]; !known || eb.Error.Code != code {
				t.Fatalf("refused with %d %q, want one of %v", w.Code, eb.Error.Code, refusals)
			}
			return
		}
		var st jobs.Status
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
			t.Fatalf("202 body %q: %v", w.Body.Bytes(), err)
		}
		p := st.Params
		if (st.Kind != jobs.KindOverlap && st.Kind != jobs.KindAssemble) || st.Reads < 1 ||
			p.MinOverlap <= 0 || p.PolishRounds < 0 || p.MinContig < 0 {
			t.Fatalf("accepted job %+v", st)
		}
		recs, err := dna.ReadFile(filepath.Join(dir, st.ID, "reads.fa"))
		if err != nil || len(recs) != st.Reads {
			t.Fatalf("accepted job of %d reads persisted %d (%v)", st.Reads, len(recs), err)
		}
		for i, rec := range recs {
			if len(rec.Seq) == 0 {
				t.Fatalf("accepted read %d (%q) with an empty sequence", i, rec.Name)
			}
		}
	})
}
