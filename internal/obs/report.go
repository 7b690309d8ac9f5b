package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// SchemaVersion identifies the run-report JSON schema. Bump it when a
// field changes meaning; adding fields is backward compatible.
const SchemaVersion = "darwin-run-report/v1"

// Report is the machine-readable end-of-run summary: the full counter
// set, disjoint stage timings, histograms, and derived throughput.
// Bench trajectories and perf PRs diff these instead of ad-hoc timers.
type Report struct {
	Schema      string    `json:"schema"`
	Tool        string    `json:"tool"`
	Args        []string  `json:"args,omitempty"`
	Start       time.Time `json:"start"`
	WallSeconds float64   `json:"wall_seconds"`
	// Workers is the mapping parallelism (gauge core/workers, which
	// every batch pass sets, the de novo overlap pass included); stage
	// timings are cumulative across workers, so with Workers > 1 they
	// may legitimately sum past wall clock.
	Workers int `json:"workers,omitempty"`

	Counters map[string]int64         `json:"counters"`
	Gauges   map[string]int64         `json:"gauges,omitempty"`
	Timers   map[string]TimerSnapshot `json:"timers"`

	// Stages are the stage/ timers (disjoint pipeline phases), sorted
	// by descending time; StageSecondsTotal is their sum.
	Stages            []StageTiming `json:"stages"`
	StageSecondsTotal float64       `json:"stage_seconds_total"`

	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`

	// Throughput holds derived rates (reads_per_sec, cells_per_sec,
	// tiles_per_sec, seeds_per_sec) over the run's wall time.
	Throughput map[string]float64 `json:"throughput"`
}

// Run scopes a report to one tool invocation: it snapshots the
// registry at construction and reports only the delta, so process-wide
// metrics from earlier runs (or concurrent tests) don't bleed in.
type Run struct {
	tool  string
	reg   *Registry
	start time.Time
	base  Snapshot
}

// NewRun starts a run over the Default registry.
func NewRun(tool string) *Run { return NewRunOn(tool, Default) }

// NewRunOn starts a run over the given registry.
func NewRunOn(tool string, reg *Registry) *Run {
	return &Run{tool: tool, reg: reg, start: time.Now(), base: reg.Snapshot()}
}

// Report builds the run's report from the registry delta since the
// run started.
func (r *Run) Report() *Report {
	wall := time.Since(r.start).Seconds()
	diff := r.reg.Snapshot().Sub(r.base)
	rep := &Report{
		Schema:      SchemaVersion,
		Tool:        r.tool,
		Start:       r.start,
		WallSeconds: wall,
		Workers:     int(diff.Gauges["core/workers"]),
		Counters:    diff.Counters,
		Gauges:      diff.Gauges,
		Timers:      diff.Timers,
		Stages:      diff.Stages(),
		Histograms:  diff.Histograms,
		Throughput:  map[string]float64{},
	}
	for _, st := range rep.Stages {
		rep.StageSecondsTotal += st.Seconds
	}
	if wall > 0 {
		rate := func(name, counter string) {
			if v := diff.Counters[counter]; v > 0 {
				rep.Throughput[name] = float64(v) / wall
			}
		}
		rate("reads_per_sec", "core/reads")
		rate("cells_per_sec", "gact/cells")
		rate("tiles_per_sec", "gact/tiles")
		rate("seeds_per_sec", "dsoft/seeds_issued")
	}
	return rep
}

// WriteJSON writes the report as indented JSON to path.
func (rep *Report) WriteJSON(path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: encoding report: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("obs: writing report: %w", err)
	}
	return nil
}
