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
	if _, ok := s.Attr("x"); ok {
		t.Fatal("nil span reported an attribute")
	}
	if c := s.StartChild("child"); c != nil {
		t.Fatal("nil span produced a child")
	}
	if got := s.RequestID(); got != "" {
		t.Fatalf("nil span request ID = %q", got)
	}
	if d := s.Duration(); d != 0 {
		t.Fatalf("nil span duration = %v", d)
	}
	snap := s.Snapshot()
	if snap.Name != "" {
		t.Fatalf("nil span snapshot = %+v", snap)
	}
}

func TestSpanTreeAndContext(t *testing.T) {
	root := NewRequestSpan("req-123", "http POST /v1/map")
	ctx := ContextWithSpan(context.Background(), root)

	if got := RequestIDFromContext(ctx); got != "req-123" {
		t.Fatalf("RequestIDFromContext = %q", got)
	}

	cctx, child := StartSpan(ctx, "core.map")
	if child == nil {
		t.Fatal("StartSpan returned nil child under a traced context")
	}
	child.SetAttr("reads", 4)
	child.AddAttr("reads", 2)
	if v, _ := child.Attr("reads"); v != 6 {
		t.Fatalf("reads attr = %d, want 6", v)
	}
	if got := RequestIDFromContext(cctx); got != "req-123" {
		t.Fatalf("child context lost request ID: %q", got)
	}

	_, grand := StartSpan(cctx, "gact.extend")
	grand.SetAttr("tiles", 9)
	grand.End()
	child.End()
	root.End()

	snap := root.Snapshot()
	if snap.RequestID != "req-123" {
		t.Fatalf("root snapshot request_id = %q", snap.RequestID)
	}
	cm := snap.Find("core.map")
	if cm == nil {
		t.Fatal("core.map span missing from snapshot")
	}
	if cm.Attrs["reads"] != 6 {
		t.Fatalf("core.map reads attr = %d", cm.Attrs["reads"])
	}
	ge := snap.Find("gact.extend")
	if ge == nil || ge.Attrs["tiles"] != 9 {
		t.Fatalf("gact.extend span missing or wrong: %+v", ge)
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
	if back.Find("gact.extend") == nil {
		t.Fatal("round-tripped snapshot lost gact.extend")
	}
}

func TestStartSpanUntracedIsNoop(t *testing.T) {
	ctx := context.Background()
	c2, sp := StartSpan(ctx, "core.map")
	if sp != nil {
		t.Fatal("StartSpan minted a span without a root in context")
	}
	if c2 != ctx {
		t.Fatal("StartSpan allocated a new context on the untraced path")
	}
}

func TestSpanChildCapDropsNotGrows(t *testing.T) {
	root := NewSpan("root")
	for i := 0; i < maxSpanChildren+10; i++ {
		root.StartChild("c").End()
	}
	snap := root.Snapshot()
	if len(snap.Children) != maxSpanChildren {
		t.Fatalf("children = %d, want cap %d", len(snap.Children), maxSpanChildren)
	}
	if snap.DroppedChildren != 10 {
		t.Fatalf("dropped = %d, want 10", snap.DroppedChildren)
	}
}

func TestSpanConcurrentChildren(t *testing.T) {
	root := NewSpan("root")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				c := root.StartChild("worker")
				c.AddAttr("n", 1)
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
	root := NewSpan("root")
	start := time.Now().Add(-3 * time.Millisecond)
	c := root.AddTimedChild("stage/filter", start, 2*time.Millisecond)
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
	ring.Offer(NewSpan("x"))
	if ring.Len() != 0 || ring.Snapshot() != nil {
		t.Fatal("nil ring misbehaved")
	}
	NewSlowRing(2).Offer(nil)
}

func TestSpanLabels(t *testing.T) {
	s := NewRequestSpan("rid", "root")
	hop := s.StartChild("cluster.scatter")
	hop.SetLabel("worker", "worker-1")
	hop.SetLabel("worker", "worker-2") // replaces
	hop.End()
	s.End()
	if v, ok := hop.Label("worker"); !ok || v != "worker-2" {
		t.Fatalf("Label = %q, %v; want worker-2, true", v, ok)
	}
	if _, ok := hop.Label("missing"); ok {
		t.Fatal("missing label reported present")
	}
	snap := s.Snapshot()
	if got := snap.Children[0].Labels["worker"]; got != "worker-2" {
		t.Fatalf("snapshot label = %q, want worker-2", got)
	}
	// Labels must round-trip the snapshot's JSON form (it is served by
	// /debug/slow) and stay nil-safe.
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"labels":{"worker":"worker-2"}`) {
		t.Fatalf("snapshot JSON missing labels: %s", b)
	}
	var nilSpan *Span
	nilSpan.SetLabel("k", "v")
	if _, ok := nilSpan.Label("k"); ok {
		t.Fatal("nil span stored a label")
	}
}
