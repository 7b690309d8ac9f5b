package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestRunReportRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("core/reads").Add(5) // pre-run noise that must not leak in

	run := NewRunOn("unit", reg)
	reg.Counter("core/reads").Add(100)
	reg.Counter("gact/cells").Add(1_000_000)
	reg.Counter("gact/tiles").Add(500)
	reg.Timer("stage/filter").Observe(80 * time.Millisecond)
	reg.Timer("stage/align").Observe(120 * time.Millisecond)
	reg.Timer("gact/first_tile").Observe(30 * time.Millisecond)
	reg.Histogram("core/candidates_per_read", 0, 10, 5).Observe(3)

	rep := run.Report()
	if rep.Schema != SchemaVersion {
		t.Errorf("schema = %q", rep.Schema)
	}
	if rep.Counters["core/reads"] != 100 {
		t.Errorf("pre-run counts leaked into report: reads = %d, want 100", rep.Counters["core/reads"])
	}
	if len(rep.Stages) != 2 {
		t.Fatalf("stages = %+v, want filter and align only", rep.Stages)
	}
	if rep.Stages[0].Name != "align" { // sorted by descending time
		t.Errorf("stage order: %+v", rep.Stages)
	}
	if tot := rep.StageSecondsTotal; tot < 0.199 || tot > 0.201 {
		t.Errorf("stage total = %v, want 0.2", tot)
	}
	if rep.Throughput["reads_per_sec"] <= 0 || rep.Throughput["cells_per_sec"] <= 0 {
		t.Errorf("throughput missing: %+v", rep.Throughput)
	}
	if rep.Histograms["core/candidates_per_read"].Count != 1 {
		t.Errorf("histogram missing from report")
	}

	path := filepath.Join(t.TempDir(), "r.json")
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != rep.Schema || back.Counters["gact/cells"] != 1_000_000 ||
		len(back.Stages) != 2 || back.Stages[0].Seconds != rep.Stages[0].Seconds {
		t.Errorf("round trip mismatch: %+v", back)
	}
}

func TestReportWorkersFromGauge(t *testing.T) {
	reg := NewRegistry()
	run := NewRunOn("unit", reg)
	reg.Gauge("core/workers").Set(8)
	if rep := run.Report(); rep.Workers != 8 {
		t.Errorf("workers = %d, want 8", rep.Workers)
	}
}
