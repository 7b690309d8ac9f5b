package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// Span is one node of a request-scoped trace tree: a timed stage of
// one request's journey through the serving path (admission, queue
// wait, the map stage, per-read mapping, GACT extension), with integer
// attributes (reads, candidates, tiles, cells, shard hits) and child
// spans for sub-stages.
//
// Spans complement the process-wide Registry: the Registry aggregates
// totals across all requests, a Span tree attributes the same stage
// timings to one request, which is what makes a single slow request
// debuggable. Only a root has a name of its own (NewRequestSpan).
// Every child is the interval of one registry Timer, opened by
// Timer.Start and closed with that timer's own reading, or attached
// after the fact by AddTimedChild: a span name is a timer name. Spans
// are carried through the pipeline via context.Context
// (ContextWithSpan / SpanFromContext); code paths that see no span pay
// only a nil check, so untraced work — CLIs, benchmarks — is
// unaffected.
//
// All methods are safe on a nil *Span (they do nothing), and safe for
// concurrent use: a multi-worker Map attaches children from its worker
// goroutines while the caller still owns the root. Child
// count per span is bounded (maxSpanChildren); beyond it children are
// counted as dropped rather than accumulated, so a pathological read
// with thousands of GACT extensions cannot balloon a captured tree.
type Span struct {
	name string
	root *Span // self for roots; carries the request ID

	requestID string // root only

	mu       sync.Mutex
	start    time.Time
	dur      time.Duration
	ended    bool
	attrs    map[string]int64
	labels   map[string]string
	children []*Span
	dropped  int
}

// maxSpanChildren bounds one span's direct children. Request-path
// spans have a handful; per-read spans can have one child per GACT
// extension, which MaxCandidates already bounds to a few hundred.
const maxSpanChildren = 256

// NewRequestSpan starts a root span for one request. requestID is the
// identity every log line, error envelope, and response record of the
// request carries; name is the root stage (e.g. "http POST /v1/map").
func NewRequestSpan(requestID, name string) *Span {
	s := &Span{name: name, requestID: requestID, start: time.Now()}
	s.root = s
	return s
}

// RequestID returns the request identity of the span's tree ("" for
// an untraced call).
func (s *Span) RequestID() string {
	if s == nil {
		return ""
	}
	return s.root.requestID
}

// addChild attaches a child named name starting at start, ended with
// duration d when ended is set. It returns nil (a valid no-op span)
// when s is nil or at its child cap.
func (s *Span) addChild(name string, start time.Time, d time.Duration, ended bool) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, root: s.root, start: start, dur: d, ended: ended}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.children) >= maxSpanChildren {
		s.dropped++
		return nil
	}
	s.children = append(s.children, c)
	return c
}

// AddTimedChild attaches an already-measured interval of t, which
// started at start and lasted d, as a finished child named after t.
// It records nothing into t: the code that measured the interval has
// already recorded it there (e.g. the per-read stage/filter and
// stage/align splits). Returns the child for attribute annotation.
func (s *Span) AddTimedChild(t *Timer, start time.Time, d time.Duration) *Span {
	return s.addChild(t.name, start, d, true)
}

// End closes a root span. Safe to call more than once; only the first
// call records the duration.
func (s *Span) End() {
	if s != nil {
		s.finish(time.Since(s.start))
	}
}

// finish closes s with duration d unless it is already closed.
func (s *Span) finish(d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = d
	}
	s.mu.Unlock()
}

// Duration returns the recorded duration (elapsed-so-far for a span
// still in progress).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.dur
	}
	return time.Since(s.start)
}

// EachChild calls fn with the name and duration (elapsed so far for
// one still in progress) of each direct child, in the order they were
// attached, without copying the subtree. fn runs under s's lock, so it
// must not call back into s.
func (s *Span) EachChild(fn func(name string, d time.Duration)) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.children {
		fn(c.name, c.Duration())
	}
}

// Stage is one interval of a registry Timer, opened by Timer.Start or
// StartOn and closed by End. Under a traced parent it is also a child
// span named after the timer, closed with the same duration the timer
// records, so a request's tree and the registry read one clock under
// one name. A Stage is a value: untraced, opening and closing one
// allocates nothing. Each Stage must be ended at most once; one
// abandoned on an error path records nothing (a traced one leaves its
// span open).
type Stage struct {
	t     *Timer
	span  *Span
	start time.Time
	tid   int
}

// Start opens an interval of t now, as a child of parent when parent
// is non-nil.
func (t *Timer) Start(parent *Span) Stage { return t.StartOn(parent, 0) }

// StartOn is Start with the interval's trace event on thread lane tid
// (a worker index), so per-worker lanes separate in the trace viewer.
func (t *Timer) StartOn(parent *Span, tid int) Stage {
	start := time.Now()
	return Stage{t: t, span: parent.addChild(t.name, start, 0, false), start: start, tid: tid}
}

// Span returns the stage's child span (nil when untraced), for
// attributes and as the parent of sub-stages.
func (st Stage) Span() *Span { return st.span }

// Start returns the time the stage opened, for anchoring sub-intervals
// (AddTimedChild) inside it.
func (st Stage) Start() time.Time { return st.start }

// End records the interval into the timer and, while Trace is enabled,
// the trace (with tracing off that costs one atomic load), closes the
// span with the same duration and returns it.
func (st Stage) End() time.Duration {
	d := time.Since(st.start)
	st.t.Observe(d)
	if Trace.enabled.Load() {
		Trace.record(st.t.name, st.tid, st.start, d)
	}
	st.span.finish(d)
	return d
}

// SetAttr sets an integer attribute, replacing any previous value.
func (s *Span) SetAttr(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]int64, 4)
	}
	s.attrs[key] = v
	s.mu.Unlock()
}

// AddAttr accumulates into an integer attribute.
func (s *Span) AddAttr(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]int64, 4)
	}
	s.attrs[key] += v
	s.mu.Unlock()
}

// SetLabel sets a string attribute, replacing any previous value.
// Labels exist for cross-process hops: when a request leaves this
// process (a router scattering to a cluster worker), the interesting
// facts about the hop — which worker served it, what role it played —
// are identities, not numbers, and squeezing them into int attrs
// loses the join key into the remote process's logs.
func (s *Span) SetLabel(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.labels == nil {
		s.labels = make(map[string]string, 2)
	}
	s.labels[key] = value
	s.mu.Unlock()
}

// SpanSnapshot is a JSON-friendly copy of a span tree. Offsets and
// durations are microseconds — the stage-timing resolution the tile
// pipeline needs (a GACT tile is hundreds of microseconds).
type SpanSnapshot struct {
	Name            string            `json:"name"`
	RequestID       string            `json:"request_id,omitempty"`
	StartUS         int64             `json:"start_us"`
	DurationUS      int64             `json:"duration_us"`
	InProgress      bool              `json:"in_progress,omitempty"`
	Attrs           map[string]int64  `json:"attrs,omitempty"`
	Labels          map[string]string `json:"labels,omitempty"`
	DroppedChildren int               `json:"dropped_children,omitempty"`
	Children        []SpanSnapshot    `json:"children,omitempty"`
}

// Snapshot deep-copies the tree rooted at s. Start offsets are
// relative to the snapshotted root's own start.
func (s *Span) Snapshot() SpanSnapshot {
	if s == nil {
		return SpanSnapshot{}
	}
	return s.snapshot(s.start)
}

func (s *Span) snapshot(base time.Time) SpanSnapshot {
	s.mu.Lock()
	out := SpanSnapshot{
		Name:            s.name,
		StartUS:         s.start.Sub(base).Microseconds(),
		DurationUS:      s.dur.Microseconds(),
		InProgress:      !s.ended,
		DroppedChildren: s.dropped,
	}
	if s.root == s {
		out.RequestID = s.requestID
	}
	if !s.ended {
		out.DurationUS = time.Since(s.start).Microseconds()
	}
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]int64, len(s.attrs))
		for k, v := range s.attrs {
			out.Attrs[k] = v
		}
	}
	if len(s.labels) > 0 {
		out.Labels = make(map[string]string, len(s.labels))
		for k, v := range s.labels {
			out.Labels[k] = v
		}
	}
	kids := make([]*Span, len(s.children))
	copy(kids, s.children)
	s.mu.Unlock()
	if len(kids) > 0 {
		out.Children = make([]SpanSnapshot, len(kids))
		for i, c := range kids {
			out.Children[i] = c.snapshot(base)
		}
	}
	return out
}

// Walk visits every span in the snapshot tree, parents before
// children.
func (s SpanSnapshot) Walk(fn func(SpanSnapshot)) {
	fn(s)
	for _, c := range s.Children {
		c.Walk(fn)
	}
}

// Find returns the first span named name in the tree, or nil.
func (s *SpanSnapshot) Find(name string) *SpanSnapshot {
	if s.Name == name {
		return s
	}
	for i := range s.Children {
		if f := s.Children[i].Find(name); f != nil {
			return f
		}
	}
	return nil
}

// spanKey is the context key for the active span.
type spanKey struct{}

// ContextWithSpan returns ctx carrying s as the active span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFromContext returns the active span, or nil when ctx carries
// none — the single nil check that keeps untraced paths free.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// RequestIDFromContext returns the request identity of ctx's active
// span tree ("" when untraced).
func RequestIDFromContext(ctx context.Context) string {
	return SpanFromContext(ctx).RequestID()
}

// NewRequestID mints a 16-hex-character random request identity —
// used at ingress when the client supplied none.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure is effectively impossible; fall back to a
		// timestamp so request correlation still works.
		return hex.EncodeToString([]byte(time.Now().Format("150405.000000")))[:16]
	}
	return hex.EncodeToString(b[:])
}
