package obs

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanNilSafety(t *testing.T) {
	var s *Span
	s.End()
	s.SetAttr("x", 1)
	s.AddAttr("x", 1)
	s.SetLabel("k", "v")
	tm := NewRegistry().Timer("core/map")
	if c := s.AddTimedChild(tm, time.Now(), time.Millisecond); c != nil {
		t.Fatal("nil span produced a timed child")
	}
	if st := tm.Start(s); st.Span() != nil {
		t.Fatal("nil span produced a stage child")
	}
	if got := s.RequestID(); got != "" {
		t.Fatalf("nil span request ID = %q", got)
	}
	if d := s.Duration(); d != 0 {
		t.Fatalf("nil span duration = %v", d)
	}
	snap := s.Snapshot()
	if snap.Name != "" || snap.Attrs != nil || snap.Labels != nil {
		t.Fatalf("nil span snapshot = %+v", snap)
	}
}

func TestSpanTreeAndContext(t *testing.T) {
	reg := NewRegistry()
	tMap, tExtend := reg.Timer("core/map"), reg.Timer("gact/extend")
	root := NewRequestSpan("req-123", "http POST /v1/map")
	ctx := ContextWithSpan(context.Background(), root)

	if got := RequestIDFromContext(ctx); got != "req-123" {
		t.Fatalf("RequestIDFromContext = %q", got)
	}

	st := tMap.Start(SpanFromContext(ctx))
	child := st.Span()
	if child == nil {
		t.Fatal("Start returned no child under a traced parent")
	}
	child.SetAttr("reads", 4)
	child.AddAttr("reads", 2)
	cctx := ContextWithSpan(ctx, child)
	if got := RequestIDFromContext(cctx); got != "req-123" {
		t.Fatalf("child context lost request ID: %q", got)
	}

	grand := tExtend.Start(SpanFromContext(cctx))
	grand.Span().SetAttr("tiles", 9)
	grand.End()
	d := st.End()
	root.End()

	snap := root.Snapshot()
	if snap.RequestID != "req-123" {
		t.Fatalf("root snapshot request_id = %q", snap.RequestID)
	}
	cm := snap.Find("core/map")
	if cm == nil {
		t.Fatal("core/map span missing from snapshot")
	}
	if cm.Attrs["reads"] != 6 {
		t.Fatalf("core/map reads attr = %d", cm.Attrs["reads"])
	}
	// One clock: the span carries exactly the interval the timer got.
	if cm.InProgress || cm.DurationUS != d.Microseconds() || tMap.Total() != d || tMap.Count() != 1 {
		t.Fatalf("core/map span %dus (in progress %v), timer %v over %d calls, stage %v",
			cm.DurationUS, cm.InProgress, tMap.Total(), tMap.Count(), d)
	}
	ge := snap.Find("gact/extend")
	if ge == nil || ge.Attrs["tiles"] != 9 {
		t.Fatalf("gact/extend span missing or wrong: %+v", ge)
	}
	// Depth ordering: child spans start at or after their parent.
	if cm.StartUS < snap.StartUS {
		t.Fatalf("child starts before root: %d < %d", cm.StartUS, snap.StartUS)
	}

	// The snapshot must be valid JSON with stable field names.
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	var back SpanSnapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal snapshot: %v", err)
	}
	if back.Find("gact/extend") == nil {
		t.Fatal("round-tripped snapshot lost gact/extend")
	}
}

// TestStageUntracedIsNoop: without a parent a stage still records into
// its timer and opens no span (alloc_test.go pins that it allocates
// nothing).
func TestStageUntracedIsNoop(t *testing.T) {
	tm := NewRegistry().Timer("core/map")
	ctx := context.Background()
	st := tm.Start(SpanFromContext(ctx))
	if st.Span() != nil {
		t.Fatal("Start minted a span without a parent")
	}
	if ContextWithSpan(ctx, st.Span()) != ctx {
		t.Fatal("ContextWithSpan allocated a new context on the untraced path")
	}
	st.End()
	if tm.Count() != 1 {
		t.Fatalf("timer count = %d after one untraced stage, want 1", tm.Count())
	}
}

func TestSpanChildCapDropsNotGrows(t *testing.T) {
	tm := NewRegistry().Timer("c")
	root := NewRequestSpan("", "root")
	for i := 0; i < maxSpanChildren+10; i++ {
		tm.Start(root).End()
	}
	snap := root.Snapshot()
	if len(snap.Children) != maxSpanChildren {
		t.Fatalf("children = %d, want cap %d", len(snap.Children), maxSpanChildren)
	}
	if snap.DroppedChildren != 10 {
		t.Fatalf("dropped = %d, want 10", snap.DroppedChildren)
	}
	// A dropped child is still a recorded interval.
	if n := tm.Count(); n != maxSpanChildren+10 {
		t.Fatalf("timer count = %d, want %d", n, maxSpanChildren+10)
	}
}

func TestSpanConcurrentChildren(t *testing.T) {
	tm := NewRegistry().Timer("worker")
	root := NewRequestSpan("", "root")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				c := tm.Start(root)
				c.Span().AddAttr("n", 1)
				c.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	snap := root.Snapshot()
	if got := len(snap.Children) + snap.DroppedChildren; got != 160 {
		t.Fatalf("children+dropped = %d, want 160", got)
	}
}

func TestAddTimedChild(t *testing.T) {
	tm := NewRegistry().Timer("stage/filter")
	root := NewRequestSpan("", "root")
	start := time.Now().Add(-3 * time.Millisecond)
	c := root.AddTimedChild(tm, start, 2*time.Millisecond)
	c.SetAttr("candidates", 7)
	root.End()
	snap := root.Snapshot()
	f := snap.Find("stage/filter")
	if f == nil {
		t.Fatal("timed child missing")
	}
	if f.DurationUS != 2000 {
		t.Fatalf("timed child duration = %dus, want 2000", f.DurationUS)
	}
	if f.InProgress {
		t.Fatal("timed child reported in-progress")
	}
	if f.Attrs["candidates"] != 7 {
		t.Fatal("timed child attrs lost")
	}
	if tm.Count() != 0 {
		t.Fatalf("AddTimedChild recorded %d intervals into its timer, want 0", tm.Count())
	}
}

func TestNewRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("request ID lengths = %d, %d, want 16", len(a), len(b))
	}
	if a == b {
		t.Fatal("two minted request IDs collided")
	}
}

func TestSlowRingTopK(t *testing.T) {
	ring := NewSlowRing(3)
	durations := []time.Duration{5, 1, 9, 3, 7, 2} // milliseconds
	for i, d := range durations {
		s := NewRequestSpan(string(rune('a'+i)), "req")
		s.mu.Lock()
		s.start = time.Now().Add(-d * time.Millisecond)
		s.mu.Unlock()
		s.End()
		ring.Offer(s)
	}
	caps := ring.Snapshot()
	if len(caps) != 3 {
		t.Fatalf("retained %d captures, want 3", len(caps))
	}
	// Slowest-first: 9ms, 7ms, 5ms — request IDs c, e, a.
	want := []string{"c", "e", "a"}
	for i, c := range caps {
		if c.RequestID != want[i] {
			t.Fatalf("capture %d = %q, want %q (order %+v)", i, c.RequestID, want[i], caps)
		}
	}
	if caps[0].Span.Name != "req" {
		t.Fatal("capture lost its span tree")
	}
}

func TestSlowRingNilSafety(t *testing.T) {
	var ring *SlowRing
	ring.Offer(NewRequestSpan("", "x"))
	if ring.Len() != 0 || ring.Snapshot() != nil {
		t.Fatal("nil ring misbehaved")
	}
	NewSlowRing(2).Offer(nil)
}

func TestSpanLabels(t *testing.T) {
	s := NewRequestSpan("rid", "root")
	hop := NewRegistry().Timer("cluster/scatter").Start(s)
	hop.Span().SetLabel("worker", "worker-1")
	hop.Span().SetLabel("worker", "worker-2") // replaces
	hop.End()
	s.End()
	snap := s.Snapshot()
	if got, ok := snap.Children[0].Labels["worker"]; !ok || got != "worker-2" {
		t.Fatalf("snapshot label = %q, %v; want worker-2, true", got, ok)
	}
	if _, ok := snap.Children[0].Labels["missing"]; ok {
		t.Fatal("missing label reported present")
	}
	// Labels must round-trip the snapshot's JSON form (it is served by
	// /debug/slow).
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"labels":{"worker":"worker-2"}`) {
		t.Fatalf("snapshot JSON missing labels: %s", b)
	}
}
