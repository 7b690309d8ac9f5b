package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryConcurrentUpdates(t *testing.T) {
	reg := NewRegistry()
	const goroutines, perG = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.Counter("c")
			tm := reg.Timer("t")
			h := reg.Histogram("h", 0, 100, 10)
			for i := 0; i < perG; i++ {
				c.Inc()
				tm.Observe(time.Microsecond)
				h.Observe(float64(i % 100))
			}
		}()
	}
	wg.Wait()
	s := reg.Snapshot()
	if got := s.Counters["c"]; got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := s.Timers["t"].Count; got != goroutines*perG {
		t.Errorf("timer count = %d, want %d", got, goroutines*perG)
	}
	if got := s.Histograms["h"].Count; got != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", got, goroutines*perG)
	}
	var binSum int64
	for _, c := range s.Histograms["h"].Counts {
		binSum += c
	}
	if binSum != goroutines*perG {
		t.Errorf("histogram bin sum = %d, want %d", binSum, goroutines*perG)
	}
}

func TestRegistrySameInstance(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("x") != reg.Counter("x") {
		t.Error("Counter should return the same instance per name")
	}
	if reg.Histogram("h", 0, 10, 5) != reg.Histogram("h", 0, 99, 50) {
		t.Error("Histogram should ignore params after first creation")
	}
}

func TestSnapshotSub(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a").Add(5)
	reg.Timer("stage/x").Observe(time.Second)
	base := reg.Snapshot()
	reg.Counter("a").Add(7)
	reg.Counter("b").Add(3)
	reg.Timer("stage/x").Observe(2 * time.Second)
	diff := reg.Snapshot().Sub(base)
	if diff.Counters["a"] != 7 || diff.Counters["b"] != 3 {
		t.Errorf("counter diff wrong: %+v", diff.Counters)
	}
	tx := diff.Timers["stage/x"]
	if tx.Count != 1 || tx.Seconds < 1.99 || tx.Seconds > 2.01 {
		t.Errorf("timer diff wrong: %+v", tx)
	}
	stages := diff.Stages()
	if len(stages) != 1 || stages[0].Name != "x" {
		t.Errorf("stages = %+v, want one stage named x", stages)
	}
}

func TestHistogramClampAndOutOfRange(t *testing.T) {
	h := newHistogram(10, 10, 0) // degenerate config must clamp
	for _, v := range []float64{-5, 10, 10.5, 11, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Errorf("count = %d, want 5", s.Count)
	}
	if s.Under != 1 {
		t.Errorf("under = %d, want 1", s.Under)
	}
	// Range clamps to [10, 11): 10 and 10.5 in-bin, 11 and 100 over.
	if s.Over != 2 {
		t.Errorf("over = %d, want 2", s.Over)
	}
	if got := s.Counts[0]; got != 2 {
		t.Errorf("bin 0 = %d, want 2", got)
	}
	if r := s.Render(20); !strings.Contains(r, "below range") {
		t.Errorf("render missing under-range line:\n%s", r)
	}
}

// withTracer points Trace at a fresh, disabled tracer holding at most
// maxSpans events until the test ends.
func withTracer(t *testing.T, maxSpans int) *Tracer {
	prev := Trace
	Trace = NewTracer(maxSpans)
	t.Cleanup(func() { Trace = prev })
	return Trace
}

// TestTracerChromeJSON: a timer's interval becomes one Chrome event
// named after the timer, on the lane StartOn names, lasting what the
// timer recorded; nothing is recorded while tracing is off, and
// Observe never traces.
func TestTracerChromeJSON(t *testing.T) {
	tr := withTracer(t, 100)
	tm := NewRegistry().Timer("stage/work")
	tm.Start(nil).End()
	tm.StartOn(nil, 2).End()
	if tr.Len() != 0 {
		t.Fatal("disabled tracer recorded an event")
	}
	tr.Enable()
	stage := tm.StartOn(nil, 3)
	time.Sleep(time.Millisecond)
	d := stage.End()
	tm.Observe(time.Second)
	if tm.Count() != 4 {
		t.Errorf("timer count = %d, want 4", tm.Count())
	}
	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(b.String()), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, b.String())
	}
	if len(events) != 1 {
		t.Fatalf("got %d events, want 1", len(events))
	}
	e := events[0]
	if e["name"] != "stage/work" || e["ph"] != "X" || e["tid"] != float64(3) {
		t.Errorf("bad event: %+v", e)
	}
	if want := float64(d) / float64(time.Microsecond); e["dur"] != want || want < 900 { // ≥ 0.9ms in microseconds
		t.Errorf("dur = %v µs, want the timer's %v µs (≥ 900)", e["dur"], want)
	}
}

// TestTracerCap: past the cap, events are counted as dropped while the
// timer itself keeps counting.
func TestTracerCap(t *testing.T) {
	tr := withTracer(t, 2)
	tr.Enable()
	tm := NewRegistry().Timer("s")
	for i := 0; i < 5; i++ {
		tm.Start(nil).End()
	}
	if tr.Len() != 2 {
		t.Errorf("len = %d, want cap 2", tr.Len())
	}
	if tr.Dropped() != 3 {
		t.Errorf("dropped = %d, want 3", tr.Dropped())
	}
	if tm.Count() != 5 {
		t.Errorf("timer count = %d, want 5", tm.Count())
	}
}

func TestServeDebugWhileRunning(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("core/reads").Add(42)
	reg.Timer("stage/filter").Observe(time.Second)
	withTracer(t, 10)
	srv, err := ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A concurrent writer simulates an in-flight mapping run.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				reg.Counter("core/reads").Inc()
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/debug/vars"); code != 200 {
		t.Errorf("/debug/vars: %d", code)
	} else {
		var v struct {
			Counters   map[string]int64 `json:"counters"`
			Goroutines int              `json:"goroutines"`
		}
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			t.Errorf("/debug/vars not JSON: %v", err)
		} else if v.Counters["core/reads"] < 42 || v.Goroutines < 1 {
			t.Errorf("/debug/vars content wrong: %+v", v)
		}
	}
	if code, body := get("/debug/stages"); code != 200 || !strings.Contains(body, "filter") {
		t.Errorf("/debug/stages: %d\n%s", code, body)
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: %d", code)
	}
	if code, _ := get("/debug/chrome-trace"); code != http.StatusServiceUnavailable {
		t.Errorf("/debug/chrome-trace with tracing off: %d, want 503", code)
	}
	if code, _ := get("/"); code != 200 {
		t.Errorf("index: %d", code)
	}
}

func TestProgressPrints(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("p")
	var mu sync.Mutex
	var buf strings.Builder
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	prog := StartProgress(w, "test", "reads", c, 100, 10)
	c.Add(50)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		s := buf.String()
		mu.Unlock()
		if strings.Contains(s, "50/100") {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	prog.Stop()
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "50/100 reads") || !strings.Contains(out, "ETA") {
		t.Errorf("progress output missing rate/ETA: %q", out)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
