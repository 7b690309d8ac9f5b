package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"

	"darwin/internal/dna"
	"darwin/internal/jobs"
	"darwin/internal/obs"
)

var (
	cJobRequests = obs.Default.Counter("jobs/http_requests")
	cJobRejects  = obs.Default.Counter("jobs/http_rejected")
)

// JobRequest is the JSON body of POST /v1/jobs. Alternatively the body
// may be raw FASTA (text/x-fasta or any unrecognized content type) or
// read NDJSON (application/x-ndjson, one {"name","seq"} per line), in
// which case kind and parameters come from query parameters of the
// same names.
type JobRequest struct {
	// Kind is "overlap" or "assemble" (default assemble).
	Kind string `json:"kind,omitempty"`
	// Reads are the reads to overlap/assemble (at least one).
	Reads []ReadInput `json:"reads"`
	// MinOverlap is the nominal minimum overlap length (default 1000).
	MinOverlap int `json:"min_overlap,omitempty"`
	// PolishRounds overrides the polishing round count (default 2;
	// pointer so an explicit 0 disables polishing).
	PolishRounds *int `json:"polish_rounds,omitempty"`
	// MinContig drops contigs shorter than this (default 0).
	MinContig int `json:"min_contig,omitempty"`
}

// handleJobs serves the collection: POST submits, GET lists.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	cJobRequests.Inc()
	ctx := r.Context()
	switch r.Method {
	case http.MethodPost:
		s.handleJobSubmit(w, r)
	case http.MethodGet:
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.jobs.List())
	default:
		cJobRejects.Inc()
		httpError(ctx, w, http.StatusMethodNotAllowed, CodeMethodNotAllow, "POST or GET required")
	}
}

// handleJobSubmit decodes a job payload in any of the three accepted
// shapes and enqueues it.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	span := obs.SpanFromContext(ctx)
	if s.draining.Load() {
		cJobRejects.Inc()
		w.Header().Set("Retry-After", "5")
		httpError(ctx, w, http.StatusServiceUnavailable, CodeDraining, "draining")
		return
	}

	body := http.MaxBytesReader(w, r.Body, s.maxBodyBytes)
	kind := jobs.Kind(firstNonEmpty(r.URL.Query().Get("kind"), string(jobs.KindAssemble)))
	params := jobs.DefaultParams()
	var recs []dna.Record

	ct := r.Header.Get("Content-Type")
	switch {
	case strings.HasPrefix(ct, "application/json"):
		var req JobRequest
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			s.jobDecodeError(ctx, w, err)
			return
		}
		if req.Kind != "" {
			kind = jobs.Kind(req.Kind)
		}
		// Zero means the server default; jobs.Submit rejects any other
		// value out of range.
		if req.MinOverlap != 0 {
			params.MinOverlap = req.MinOverlap
		}
		if req.PolishRounds != nil {
			params.PolishRounds = *req.PolishRounds
		}
		if req.MinContig != 0 {
			params.MinContig = req.MinContig
		}
		for i, rd := range req.Reads {
			name := rd.Name
			if name == "" {
				name = fmt.Sprintf("read_%d", i)
			}
			recs = append(recs, dna.Record{Name: name, Seq: rd.Seq})
		}
	case strings.HasPrefix(ct, "application/x-ndjson"):
		sc := bufio.NewScanner(body)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
		line := 0
		for sc.Scan() {
			line++
			text := strings.TrimSpace(sc.Text())
			if text == "" {
				continue
			}
			var rd ReadInput
			if err := json.Unmarshal([]byte(text), &rd); err != nil {
				s.jobDecodeError(ctx, w, fmt.Errorf("line %d: %w", line, err))
				return
			}
			if rd.Name == "" {
				rd.Name = fmt.Sprintf("read_%d", line)
			}
			recs = append(recs, dna.Record{Name: rd.Name, Seq: rd.Seq})
		}
		if err := sc.Err(); err != nil {
			s.jobDecodeError(ctx, w, err)
			return
		}
	default:
		// Raw FASTA payload.
		var err error
		recs, err = dna.ReadFASTA(body)
		if err != nil {
			s.jobDecodeError(ctx, w, err)
			return
		}
	}

	q := r.URL.Query()
	if v := q.Get("min_overlap"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			s.jobBadParam(ctx, w, "min_overlap", v)
			return
		}
		params.MinOverlap = n
	}
	if v := q.Get("polish"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			s.jobBadParam(ctx, w, "polish", v)
			return
		}
		params.PolishRounds = n
	}
	if v := q.Get("min_contig"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			s.jobBadParam(ctx, w, "min_contig", v)
			return
		}
		params.MinContig = n
	}

	for i := range recs {
		if len(recs[i].Seq) == 0 {
			cJobRejects.Inc()
			httpError(ctx, w, http.StatusBadRequest, CodeBadRequest, "read %d (%q) has an empty sequence", i, recs[i].Name)
			return
		}
	}

	st, err := s.jobs.Submit(kind, recs, params)
	if err != nil {
		cJobRejects.Inc()
		switch {
		case errors.Is(err, jobs.ErrDraining):
			w.Header().Set("Retry-After", "5")
			httpError(ctx, w, http.StatusServiceUnavailable, CodeDraining, "draining")
		case errors.Is(err, jobs.ErrQueueFull):
			w.Header().Set("Retry-After", "5")
			httpError(ctx, w, http.StatusTooManyRequests, CodeQueueFull, "job queue full, retry later")
		default:
			httpError(ctx, w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		}
		return
	}
	span.SetLabel("job_id", st.ID)
	span.SetAttr("reads", int64(st.Reads))
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(st)
}

// jobDecodeError maps payload decode failures: an oversized body is
// the structured payload_too_large, anything else bad_request.
func (s *Server) jobDecodeError(ctx context.Context, w http.ResponseWriter, err error) {
	cJobRejects.Inc()
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		httpError(ctx, w, http.StatusRequestEntityTooLarge, CodePayloadTooLarge,
			"payload exceeds %d bytes", tooLarge.Limit)
		return
	}
	httpError(ctx, w, http.StatusBadRequest, CodeBadRequest, "bad job payload: %v", err)
}

func (s *Server) jobBadParam(ctx context.Context, w http.ResponseWriter, name, val string) {
	cJobRejects.Inc()
	httpError(ctx, w, http.StatusBadRequest, CodeBadRequest, "bad %s parameter %q", name, val)
}

// handleJob serves one job: GET status, GET result (…/result suffix),
// DELETE cancel.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	cJobRequests.Inc()
	ctx := r.Context()
	span := obs.SpanFromContext(ctx)
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, tail, _ := strings.Cut(rest, "/")
	if id == "" || (tail != "" && tail != "result") {
		cJobRejects.Inc()
		httpError(ctx, w, http.StatusNotFound, CodeJobNotFound, "no such job endpoint %q", r.URL.Path)
		return
	}
	span.SetLabel("job_id", id)

	switch {
	case tail == "result" && r.Method == http.MethodGet:
		s.handleJobResult(w, r, id)
	case tail == "" && r.Method == http.MethodGet:
		st, err := s.jobs.Get(id)
		if err != nil {
			cJobRejects.Inc()
			httpError(ctx, w, http.StatusNotFound, CodeJobNotFound, "job %q not found", id)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		json.NewEncoder(w).Encode(st)
	case tail == "" && r.Method == http.MethodDelete:
		st, err := s.jobs.Cancel(id)
		if err != nil {
			cJobRejects.Inc()
			httpError(ctx, w, http.StatusNotFound, CodeJobNotFound, "job %q not found", id)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		json.NewEncoder(w).Encode(st)
	default:
		cJobRejects.Inc()
		httpError(ctx, w, http.StatusMethodNotAllowed, CodeMethodNotAllow, "GET or DELETE required")
	}
}

// handleJobResult streams a done job's output file, or explains with a
// structured code why there is nothing to stream: job_not_done while
// the pipeline runs, job_canceled after a cancel, the job's own error
// code (jobs.CodeCheckpointCorrupt, jobs.CodePayloadCorrupt, or
// internal when it has none) after a failure.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request, id string) {
	ctx := r.Context()
	st, err := s.jobs.Get(id)
	if err != nil {
		cJobRejects.Inc()
		httpError(ctx, w, http.StatusNotFound, CodeJobNotFound, "job %q not found", id)
		return
	}
	switch st.State {
	case jobs.StateCanceled:
		cJobRejects.Inc()
		httpError(ctx, w, http.StatusConflict, CodeJobCanceled, "job %q was canceled", id)
		return
	case jobs.StateFailed:
		cJobRejects.Inc()
		code := st.ErrorCode
		if code == "" {
			code = CodeInternal
		}
		httpError(ctx, w, http.StatusInternalServerError, code, "job %q failed: %s", id, st.Error)
		return
	case jobs.StateDone:
	default:
		cJobRejects.Inc()
		w.Header().Set("Retry-After", "2")
		httpError(ctx, w, http.StatusConflict, CodeJobNotDone, "job %q is %s", id, st.State)
		return
	}
	path, contentType, err := s.jobs.ResultFile(id)
	if err != nil {
		httpError(ctx, w, http.StatusInternalServerError, CodeInternal, "%v", err)
		return
	}
	f, err := os.Open(path)
	if err != nil {
		httpError(ctx, w, http.StatusInternalServerError, CodeInternal, "opening result: %v", err)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", contentType+"; charset=utf-8")
	io.Copy(w, f)
}

func firstNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}
