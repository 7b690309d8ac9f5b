package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// Span is one node of a request-scoped trace tree: a named, timed
// stage of one request's journey through the serving path (admission,
// index load, queue wait, the map stage, per-read mapping, GACT
// extension), with integer attributes (reads, candidates, tiles,
// cells, shard hits) and child spans for sub-stages.
//
// Spans complement the process-wide Registry: the Registry aggregates
// totals across all requests, a Span tree attributes the same stage
// timings to one request, which is what makes a single slow request
// debuggable. Spans are carried through the pipeline via
// context.Context (ContextWithSpan / StartSpan); code paths that see
// no span in their context pay only a nil check, so untraced work —
// CLIs, benchmarks — is unaffected.
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

	requestID string    // root only
	rootStart time.Time // root only: zero point for snapshot offsets

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
	now := time.Now()
	s := &Span{name: name, requestID: requestID, rootStart: now, start: now}
	s.root = s
	return s
}

// NewSpan starts a free-standing root span with no request identity.
func NewSpan(name string) *Span { return NewRequestSpan("", name) }

// RequestID returns the request identity of the span's tree ("" for
// free-standing spans).
func (s *Span) RequestID() string {
	if s == nil {
		return ""
	}
	return s.root.requestID
}

// Name returns the span's stage name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// StartChild opens a child span starting now. Returns nil (a valid
// no-op span) when s is nil or the child cap is reached.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, root: s.root, start: time.Now()}
	s.mu.Lock()
	if len(s.children) >= maxSpanChildren {
		s.dropped++
		s.mu.Unlock()
		return nil
	}
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// AddTimedChild attaches an already-finished child with explicit
// timing — how synthesized stage spans (per-read filter/align splits
// measured by the pipeline itself) enter the tree. Returns the child
// for attribute annotation.
func (s *Span) AddTimedChild(name string, start time.Time, d time.Duration) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, root: s.root, start: start, dur: d, ended: true}
	s.mu.Lock()
	if len(s.children) >= maxSpanChildren {
		s.dropped++
		s.mu.Unlock()
		return nil
	}
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End closes the span. Safe to call more than once; only the first
// call records the duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
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

// Label returns a string attribute ("", false when absent or s is nil).
func (s *Span) Label(key string) (string, bool) {
	if s == nil {
		return "", false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.labels[key]
	return v, ok
}

// Attr returns an attribute value (0, false when absent or s is nil).
func (s *Span) Attr(key string) (int64, bool) {
	if s == nil {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.attrs[key]
	return v, ok
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

// StartSpan opens a child of ctx's active span and returns a context
// carrying the child plus the child itself (nil when ctx is untraced;
// all Span methods tolerate nil). Callers pair it with child.End().
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	c := parent.StartChild(name)
	if c == nil {
		return ctx, nil
	}
	return ContextWithSpan(ctx, c), c
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
