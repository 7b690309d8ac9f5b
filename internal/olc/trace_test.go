package olc

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"testing"

	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/genome"
	"darwin/internal/obs"
	"darwin/internal/readsim"
)

// TestTraceEventsAreRegistryTimers: the Chrome trace and a request's
// span tree are views of the registry timers. With tracing on, a
// two-worker Darwin.Map and an Assemble emit only events named after
// timers in obs.Default, with the worker loops' busy timers on worker
// lanes (tid ≥ 1); with tracing off they record nothing. Run under a
// root span, Assemble's tree has its four stages as the root's
// children and names every span after a registry timer.
func TestTraceEventsAreRegistryTimers(t *testing.T) {
	prev := obs.Trace
	obs.Trace = obs.NewTracer(1 << 16)
	t.Cleanup(func() { obs.Trace = prev })

	g, err := genome.Generate(genome.Config{Length: 20000, GC: 0.45, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := readsim.SimulateN(g.Seq, 16, readsim.Config{Profile: readsim.PacBio, MeanLen: 2000, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	reads := make([]dna.Seq, len(sim))
	for i := range sim {
		reads[i] = sim[i].Seq
	}
	cfg := testConfig()
	d, err := core.New(g.Seq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var root *obs.Span
	run := func() {
		t.Helper()
		if _, err := d.Map(ctx, reads, core.WithWorkers(2)); err != nil {
			t.Fatal(err)
		}
		root = obs.NewRequestSpan("asm-trace", "job assemble")
		if _, err := Assemble(obs.ContextWithSpan(ctx, root), reads, WithConfig(cfg), WithMinOverlap(1000), WithPolishRounds(1), WithWorkers(2)); err != nil {
			t.Fatal(err)
		}
		root.End()
	}

	run()
	if n := obs.Trace.Len(); n != 0 {
		t.Fatalf("disabled tracer recorded %d events", n)
	}

	obs.Trace.Enable()
	run()
	var buf bytes.Buffer
	if err := obs.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string `json:"name"`
		TID  int    `json:"tid"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("traced run wrote no events")
	}
	timers := obs.Default.Snapshot().Timers
	seen := map[string]bool{}
	for _, e := range events {
		if _, ok := timers[e.Name]; !ok && !seen[e.Name] {
			t.Errorf("event %q is not a registry timer", e.Name)
		}
		seen[e.Name] = true
		if e.Name == "core/worker_busy" && e.TID < 1 {
			t.Errorf("%s event on lane %d, want a worker lane ≥ 1", e.Name, e.TID)
		}
	}
	for _, name := range []string{"core/worker_busy", "stage/filter", "stage/align", "gact/first_tile", "olc/assemble"} {
		if !seen[name] {
			t.Errorf("no %s event in the trace", name)
		}
	}

	tree := root.Snapshot()
	var stages []string
	for _, c := range tree.Children {
		stages = append(stages, c.Name)
		c.Walk(func(sp obs.SpanSnapshot) {
			if _, ok := timers[sp.Name]; !ok {
				t.Errorf("span %q is not a registry timer", sp.Name)
			}
		})
	}
	if want := []string{"olc/overlap", "stage/layout", "olc/consensus", "olc/polish"}; !slices.Equal(stages, want) {
		t.Errorf("Assemble's stage spans = %v, want %v", stages, want)
	}
}
