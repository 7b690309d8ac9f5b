package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer's public API, recorded by the
// harness around the call: nothing inside the program under test is
// instrumented for it, and every time is read from the harness clock.
type span struct {
	layer      string // package of the function called
	name       string
	start, end time.Duration // since the tracer was created
	parent     int           // index of the span that caused this one, -1 for a root
	req        int           // request (or read) the span belongs to
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so the untraced run executes the same harness code
// without the clock reads. Every traced phase drives the program from
// one goroutine, so a tracer is not safe for concurrent use.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(layer, name string, parent, req int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{layer: layer, name: name, parent: parent, req: req})
	// The clock is read last so the bookkeeping above is not inside
	// the span.
	t.spans[id].start = time.Since(t.t0)
	return id
}

// end closes span id and returns its duration. A non-empty name
// replaces the one given to begin, for spans named after their outcome.
func (t *tracer) end(id int, name string) time.Duration {
	if t == nil {
		return 0
	}
	s := &t.spans[id]
	s.end = time.Since(t.t0)
	if name != "" {
		s.name = name
	}
	return s.end - s.start
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover (children may overlap each other
// when a parent fans out; the covered part is their union).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered := time.Duration(0)
		edge := s.start // everything before edge is already accounted for
		for _, k := range kids {
			lo, hi := max(spans[k].start, edge), min(spans[k].end, s.end)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// busy sums self time by span name, in seconds: a layer's busy time
// counts each instant once however its spans nest.
func (t *tracer) busy() map[string]float64 {
	out := map[string]float64{}
	if t == nil {
		return out
	}
	for i, d := range selfTimes(t.spans) {
		out[t.spans[i].name] += d.Seconds()
	}
	return out
}

// writeChrome writes the spans as Chrome trace_event JSON: one process
// per layer, one thread per request, so a trace viewer stacks a
// request's spans across the layers it crossed.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Args map[string]any `json:"args,omitempty"`
	}
	pids := map[string]int{}
	var events []event
	for i, s := range t.spans {
		pid, ok := pids[s.layer]
		if !ok {
			pid = len(pids) + 1
			pids[s.layer] = pid
			events = append(events, event{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": s.layer}})
		}
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: pid, Tid: s.req,
			Ts:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
			Args: map[string]any{"span": i, "parent": s.parent},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
