package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer stores the intervals the registry timers record while it is
// enabled — one event per Stage.End (Timer.Start / StartOn), named
// after the timer — and dumps them as Chrome trace_event JSON for
// chrome://tracing / Perfetto. It has no naming API of its own. When
// disabled, a timer pays one atomic load for it.
//
// Event storage is bounded; once the cap is reached further events are
// counted as dropped rather than grown without bound (a mapping run
// times every read and candidate).
type Tracer struct {
	enabled atomic.Bool
	dropped atomic.Int64

	mu    sync.Mutex
	base  time.Time
	spans []span
	max   int
}

type span struct {
	name  string
	tid   int32
	start time.Duration // offset from base
	dur   time.Duration
}

// Trace is the process-wide tracer the registry timers record into.
// It starts disabled; CLIs enable it when trace output is requested.
var Trace = NewTracer(1 << 18)

// NewTracer returns a disabled tracer storing at most maxSpans events.
func NewTracer(maxSpans int) *Tracer {
	if maxSpans < 1 {
		maxSpans = 1
	}
	return &Tracer{max: maxSpans}
}

// Enable turns event recording on.
func (t *Tracer) Enable() {
	t.mu.Lock()
	if t.base.IsZero() {
		t.base = time.Now()
	}
	t.mu.Unlock()
	t.enabled.Store(true)
}

// Enabled reports whether events are being recorded.
func (t *Tracer) Enabled() bool { return t.enabled.Load() }

// record stores one interval of the named timer on lane tid.
func (t *Tracer) record(name string, tid int, start time.Time, dur time.Duration) {
	t.mu.Lock()
	if len(t.spans) >= t.max {
		t.mu.Unlock()
		t.dropped.Add(1)
		return
	}
	t.spans = append(t.spans, span{name: name, tid: int32(tid), start: start.Sub(t.base), dur: dur})
	t.mu.Unlock()
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Dropped returns the number of events discarded at the storage cap.
func (t *Tracer) Dropped() int64 { return t.dropped.Load() }

// chromeEvent is one trace_event entry ("X" = complete event,
// timestamps in microseconds).
type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	PID  int     `json:"pid"`
	TID  int32   `json:"tid"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
}

// WriteChromeTrace dumps the recorded events as a Chrome trace_event
// JSON array, loadable in chrome://tracing or ui.perfetto.dev.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	t.mu.Lock()
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = chromeEvent{
			Name: s.name,
			Ph:   "X",
			PID:  1,
			TID:  s.tid,
			Ts:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.dur) / float64(time.Microsecond),
		}
	}
	t.mu.Unlock()
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}
