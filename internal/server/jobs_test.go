package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"darwin/internal/dna"
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
