package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/faults"
	"darwin/internal/obs"
	"darwin/internal/sam"
)

// Front is the serving front of a mapping tier: what a mapping request,
// its rejection and its response look like on the wire. darwind's
// Server and the cluster Router both hold one, so "a client cannot tell
// a router from a single darwind" is one implementation — request
// identity, span root, access line, SLO windows and slow ring (the
// middleware in obsmw.go), /healthz /readyz /metrics /v1/stats
// /debug/slow, ready and draining state, the mapping preamble and error
// mapping (Endpoint) and the NDJSON and SAM writers. The tiers differ
// only in the metric namespace, the limits their Configs carry and the
// work between the preamble and the writer.
type Front struct {
	ns    string // metric namespace
	log   *slog.Logger
	mux   *http.ServeMux
	stats *sloTracker
	slow  *obs.SlowRing

	requestTimeout time.Duration
	maxReads       int
	maxBodyBytes   int64

	ready    atomic.Bool
	draining atomic.Bool

	mapEP             *Endpoint
	cRequestsOK       *obs.Counter
	cRejectedDraining *obs.Counter
	gDraining         *obs.Gauge
	hRequestLatency   *obs.Histogram

	// tierStats, when set, adds the tier's own sections to /v1/stats.
	tierStats func(*statsResponse)
}

// NewFront assembles a front counting under the ns metric namespace
// ("server" or "cluster"), with the request limits and slow-capture
// depth of the tier's Config; a limit that is not positive takes its
// default (60s, 1024 reads, 64 MiB, 16 captures).
func NewFront(ns string, log *slog.Logger, requestTimeout time.Duration, maxReads int, maxBodyBytes int64, slowCapture int) *Front {
	if requestTimeout <= 0 {
		requestTimeout = 60 * time.Second
	}
	if maxReads <= 0 {
		maxReads = 1024
	}
	if maxBodyBytes <= 0 {
		maxBodyBytes = 64 << 20
	}
	if slowCapture <= 0 {
		slowCapture = 16
	}
	f := &Front{
		ns:                ns,
		log:               log,
		mux:               http.NewServeMux(),
		stats:             newSLOTracker(),
		slow:              obs.NewSlowRing(slowCapture),
		requestTimeout:    requestTimeout,
		maxReads:          maxReads,
		maxBodyBytes:      maxBodyBytes,
		cRequestsOK:       obs.Default.Counter(ns + "/requests_ok"),
		cRejectedDraining: obs.Default.Counter(ns + "/rejected_draining"),
		gDraining:         obs.Default.Gauge(ns + "/draining"),
		hRequestLatency:   obs.Default.Histogram(ns+"/request_latency_ms", 0, 10000, 100),
	}
	f.mapEP = f.endpoint("requests", "requests_failed", "map_canceled", "reads_in", false)
	f.mux.HandleFunc("/healthz", f.handleHealthz)
	f.mux.HandleFunc("/readyz", f.handleReadyz)
	f.mux.HandleFunc("/v1/stats", f.handleStats)
	f.mux.Handle("/metrics", obs.MetricsHandler(obs.Default))
	f.mux.HandleFunc("/debug/slow", f.handleSlow)
	return f
}

// HandleFunc registers one of the tier's own endpoints behind the
// front's middleware.
func (f *Front) HandleFunc(pattern string, h http.HandlerFunc) { f.mux.HandleFunc(pattern, h) }

// Handler returns the tier's HTTP handler: the mux behind the
// observability middleware (request IDs, span roots, access logs, SLO
// windows).
func (f *Front) Handler() http.Handler { return f.withObs(f.mux) }

// Map is the /v1/map endpoint's preamble and rejections.
func (f *Front) Map() *Endpoint { return f.mapEP }

// SlowCaptures returns the retained slowest-request span trees,
// slowest first — the same data /debug/slow serves.
func (f *Front) SlowCaptures() []obs.SlowCapture { return f.slow.Snapshot() }

// SetReady marks the tier ready to serve: its index is warm, or its
// cluster probe passed.
func (f *Front) SetReady() { f.ready.Store(true) }

// Ready reports whether the tier is warm and not draining.
func (f *Front) Ready() bool { return f.ready.Load() && !f.draining.Load() }

// StartDrain stops admitting requests: /readyz flips to 503 so load
// balancers stop routing here and new mapping requests get 503, while
// in-flight ones complete.
func (f *Front) StartDrain() {
	f.draining.Store(true)
	f.gDraining.Set(1)
}

func (f *Front) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (f *Front) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	switch {
	case f.draining.Load():
		http.Error(w, "draining", http.StatusServiceUnavailable)
	case !f.ready.Load():
		http.Error(w, "index warming", http.StatusServiceUnavailable)
	default:
		fmt.Fprintln(w, "ready")
	}
}

// Endpoint is one mapping endpoint behind a Front — /v1/map on either
// tier, /v1/cluster/scatter on a worker: the preamble and error mapping
// they share, counted under the endpoint's own metrics.
type Endpoint struct {
	f       *Front
	scatter bool // bodies must also name shards

	requests, failed, canceled, reads *obs.Counter
}

// endpoint makes an endpoint counting under the named metrics of the
// front's namespace.
func (f *Front) endpoint(requests, failed, canceled, reads string, scatter bool) *Endpoint {
	return &Endpoint{
		f: f, scatter: scatter,
		requests: obs.Default.Counter(f.ns + "/" + requests),
		failed:   obs.Default.Counter(f.ns + "/" + failed),
		canceled: obs.Default.Counter(f.ns + "/" + canceled),
		reads:    obs.Default.Counter(f.ns + "/" + reads),
	}
}

// RequestBody is the request body of both mapping endpoints as Read
// decodes it: a /v1/map body carries no shards, a scatter body no
// reference or all.
type RequestBody struct {
	MapRequest
	Shards []int `json:"shards"`
}

// statusClientClosedRequest is the client-closed-request convention
// (nginx's 499): the caller went away before the answer was ready.
// Neither a server failure nor an ERROR-level access line.
const statusClientClosedRequest = 499

// Read is the preamble of a mapping request: method, drain and
// readiness checks, then — as the server.admit stage — body decode,
// read-count and empty-sequence validation and the server/admit fault
// point. It returns the body, its reads' sequences and the request's
// deadline (the tier's cap, shortened by the client's timeout_ms). ok
// is false when it has answered the request itself.
func (e *Endpoint) Read(w http.ResponseWriter, r *http.Request) (req RequestBody, reads []dna.Seq, timeout time.Duration, ok bool) {
	f := e.f
	e.requests.Inc()
	if r.Method != http.MethodPost {
		e.Reject(w, r, http.StatusMethodNotAllowed, CodeMethodNotAllow, "POST required")
		return
	}
	if f.draining.Load() {
		f.cRejectedDraining.Inc()
		w.Header().Set("Retry-After", "5")
		httpError(r.Context(), w, http.StatusServiceUnavailable, CodeDraining, "draining")
		return
	}
	if !f.ready.Load() {
		w.Header().Set("Retry-After", "1")
		e.Reject(w, r, http.StatusServiceUnavailable, CodeWarming, "index warming")
		return
	}

	// One span child covers decode, validation and the admission fault
	// point — admission rejections are cheap by design, and the span
	// proves it.
	span := obs.SpanFromContext(r.Context())
	admit := span.StartChild("server.admit")
	defer admit.End()
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, f.maxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		e.Reject(w, r, http.StatusBadRequest, CodeBadRequest, "bad request body: %v", err)
		return
	}
	switch {
	case e.scatter && (len(req.Reads) == 0 || len(req.Shards) == 0):
		e.Reject(w, r, http.StatusBadRequest, CodeBadRequest, "scatter needs reads and shards")
		return
	case len(req.Reads) == 0:
		e.Reject(w, r, http.StatusBadRequest, CodeBadRequest, "no reads")
		return
	case len(req.Reads) > f.maxReads:
		e.Reject(w, r, http.StatusRequestEntityTooLarge, CodeTooManyReads,
			"%d reads exceeds per-request limit %d", len(req.Reads), f.maxReads)
		return
	}
	reads = make([]dna.Seq, len(req.Reads))
	for i, rd := range req.Reads {
		if len(rd.Seq) == 0 {
			e.Reject(w, r, http.StatusBadRequest, CodeBadRequest, "read %d (%q) has an empty sequence", i, rd.Name)
			return
		}
		reads[i] = rd.Seq
	}
	// An injected error here exercises the structured-error path before
	// any stage budget is spent.
	if err := fpAdmit.Fire(); err != nil {
		w.Header().Set("Retry-After", "1")
		e.Reject(w, r, http.StatusServiceUnavailable, CodeFaultInjected, "%v", err)
		return
	}
	admit.SetAttr("reads", int64(len(reads)))
	span.SetAttr("reads", int64(len(reads)))
	e.reads.Add(int64(len(reads)))
	if !e.scatter {
		f.stats.observeReads(len(reads))
	}

	timeout = f.requestTimeout
	if req.TimeoutMS > 0 {
		if d := time.Duration(req.TimeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	return req, reads, timeout, true
}

// Reject answers a request the endpoint will not run with a structured
// error, counting it failed. Headers (Retry-After) must be set before
// calling.
func (e *Endpoint) Reject(w http.ResponseWriter, r *http.Request, status int, code, format string, args ...any) {
	e.failed.Inc()
	httpError(r.Context(), w, status, code, format, args...)
}

// Fail answers a request whose work returned err under ctx, the
// request's context bounded by its deadline. A caller that hung up gets
// 499 — that is not the tier failing, so it is not counted failed; a
// request that merely outlived its own deadline leaves r's context
// alive and gets 504. An error of no kind known here becomes status and
// code: 500 internal on a darwind, 502 scatter_failed on a router whose
// workers failed it.
func (e *Endpoint) Fail(ctx context.Context, w http.ResponseWriter, r *http.Request, err error, status int, code string) {
	setServerTiming(w, r)
	if r.Context().Err() != nil {
		e.canceled.Inc()
		httpError(r.Context(), w, statusClientClosedRequest, CodeCanceled, "request canceled by caller")
		return
	}
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		e.Reject(w, r, http.StatusTooManyRequests, CodeQueueFull, "admission queue full, retry later")
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "5")
		e.Reject(w, r, http.StatusServiceUnavailable, CodeDraining, "draining")
	case ctx.Err() != nil:
		e.Reject(w, r, http.StatusGatewayTimeout, CodeDeadline, "request deadline exceeded")
	case faults.IsInjected(err):
		e.Reject(w, r, http.StatusServiceUnavailable, CodeFaultInjected, "%v", err)
	default:
		e.Reject(w, r, status, code, "%v", err)
	}
}

// setServerTiming reports the request's stages so far in the
// Server-Timing header.
func setServerTiming(w http.ResponseWriter, r *http.Request) {
	if st := serverTiming(obs.SpanFromContext(r.Context())); st != "" {
		w.Header().Set("Server-Timing", st)
	}
}

// WriteResults answers a /v1/map request with its reads' results, as
// NDJSON or, for ?format=sam, SAM text. ref translates coordinates (a
// layout-only Reference is enough) and sq is its @SQ header. Byte
// identity between the monolith and the cluster hinges on every tier
// answering through this one function.
func (f *Front) WriteResults(w http.ResponseWriter, r *http.Request, ref *core.Reference, sq []sam.RefSeq, req MapRequest, results []core.MapResult) {
	f.cRequestsOK.Inc()
	setServerTiming(w, r)
	flusher, _ := w.(http.Flusher)
	if r.URL.Query().Get("format") == "sam" {
		// The program name is darwind's on every tier: the cluster's
		// header must equal the monolith's.
		w.Header().Set("Content-Type", "text/x-sam; charset=utf-8")
		for _, line := range sam.HeaderLines(sq, "darwind") {
			fmt.Fprintln(w, line)
		}
		for i, rd := range req.Reads {
			// SAM has no per-record error channel; a failed read becomes an
			// unmapped placeholder so record count still matches read count.
			alns := results[i].Alignments
			if results[i].Err != nil {
				alns = nil
			}
			for _, rec := range RecordsFor(ref, rd.Name, rd.Seq, alns, req.All) {
				fmt.Fprintln(w, rec.Line())
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		return
	}

	// One MapResponseLine per read, flushed as it is encoded so clients
	// see results stream. A read that failed (panic isolation, per-read
	// deadline, injected fault) gets an error line instead of records —
	// the other reads in the request are unaffected, which is the whole
	// point of per-read isolation.
	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	reqID := obs.RequestIDFromContext(r.Context())
	enc := json.NewEncoder(w)
	for i, rd := range req.Reads {
		line := MapResponseLine{Read: rd.Name, RequestID: reqID}
		if err := results[i].Err; err != nil {
			line.Error = err.Error()
		} else if err := fpStream.Fire(); err != nil {
			// Injected stream fault: degrade this one line to a
			// structured error, keep streaming the rest.
			line.Error = err.Error()
		} else {
			line.Records = RecordsFor(ref, rd.Name, rd.Seq, results[i].Alignments, req.All)
			// Mapped reflects the emitted records, not the raw alignment
			// count: RecordsFor can drop every alignment (degenerate
			// cross-sequence spans) and emit an unmapped placeholder.
			for _, rec := range line.Records {
				if rec.Flag&sam.FlagUnmapped == 0 {
					line.Mapped = true
					break
				}
			}
		}
		if err := enc.Encode(line); err != nil {
			return // client went away
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}
