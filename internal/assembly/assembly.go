// Package assembly runs the two applications of the paper's
// evaluation — reference-guided assembly (read mapping) and the
// overlap step of de novo assembly — over simulated reads with ground
// truth, computing sensitivity/precision exactly as Section 8 defines
// them:
//
//   - reference-guided: a true positive is a read aligned within 50 bp
//     of its ground-truth region;
//   - de novo: a true overlap is a read pair sharing ≥ 1 kbp of
//     template, counted as detected when at least 80% of that overlap
//     is recovered.
//
// The package also measures wall-clock stage times (filtration vs
// alignment) for the Figure 13 waterfall and collects workload
// statistics for the hardware estimator.
package assembly

import (
	"time"

	"darwin/internal/baseline"
	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/hw"
	"darwin/internal/metrics"
	"darwin/internal/readsim"
)

// MapOutcome is the best placement a mapper found for one read.
type MapOutcome struct {
	// Mapped is false if the mapper produced no placement.
	Mapped bool
	// RefStart, RefEnd delimit the placement on the forward reference.
	RefStart, RefEnd int
	// Times splits the mapper's software runtime by stage.
	Times baseline.StageTimes
}

// ReadMapper is a reference-guided mapper under evaluation.
type ReadMapper interface {
	// Name identifies the mapper in reports.
	Name() string
	// MapBest returns the best placement for a read (trying both
	// strands).
	MapBest(read dna.Seq) MapOutcome
}

// RefGuidedResult is the evaluation of one mapper on one read set.
type RefGuidedResult struct {
	Mapper    string
	Reads     int
	Confusion metrics.Confusion
	// ReadsPerSec is the measured software throughput.
	ReadsPerSec float64
	// Times aggregates stage times over all reads.
	Times baseline.StageTimes
}

// EvaluateRefGuided maps every read and scores placements against the
// simulator's ground truth with the 50 bp criterion.
func EvaluateRefGuided(m ReadMapper, reads []readsim.Read) RefGuidedResult {
	res := RefGuidedResult{Mapper: m.Name(), Reads: len(reads)}
	start := time.Now()
	for i := range reads {
		r := &reads[i]
		out := m.MapBest(r.Seq)
		res.Times.Add(out.Times)
		switch {
		case !out.Mapped:
			res.Confusion.FN++
		case within(out.RefStart, r.RefStart, 50):
			res.Confusion.TP++
		default:
			res.Confusion.FP++
			res.Confusion.FN++
		}
	}
	if elapsed := time.Since(start).Seconds(); elapsed > 0 {
		res.ReadsPerSec = float64(len(reads)) / elapsed
	}
	return res
}

func within(a, b, tol int) bool {
	d := a - b
	return d >= -tol && d <= tol
}

// DarwinMapper adapts a core.Darwin engine to ReadMapper, accumulating
// the workload statistics the hardware estimator needs.
type DarwinMapper struct {
	Engine *core.Darwin
	// Stats aggregates MapStats across all MapBest calls.
	Stats core.MapStats
	reads int
}

// NewDarwinMapper wraps an engine.
func NewDarwinMapper(e *core.Darwin) *DarwinMapper { return &DarwinMapper{Engine: e} }

// Name identifies the mapper.
func (d *DarwinMapper) Name() string { return "darwin" }

// MapBest maps one read (both strands are handled by the engine).
func (d *DarwinMapper) MapBest(read dna.Seq) MapOutcome {
	alns, st := d.Engine.MapRead(read)
	d.reads++
	// Accumulate everything except the per-candidate score list, which
	// would grow unboundedly over long runs.
	st.FirstTileScores = nil
	d.Stats.Add(st)

	best := core.Best(alns)
	out := MapOutcome{Times: baseline.StageTimes{
		Filtration: st.FiltrationTime,
		Alignment:  st.AlignmentTime,
	}}
	if best == nil {
		return out
	}
	out.Mapped = true
	out.RefStart = best.Result.RefStart
	out.RefEnd = best.Result.RefEnd
	return out
}

// Workload converts the accumulated statistics into the hardware
// estimator's input (averages per read).
func (d *DarwinMapper) Workload() hw.Workload {
	cfg := d.Engine.Config()
	w := hw.Workload{TileT: cfg.GACT.T, TileO: cfg.GACT.O}
	if d.reads == 0 {
		return w
	}
	n := float64(d.reads)
	w.SeedsPerRead = float64(d.Stats.DSOFT.SeedsIssued) / n
	if d.Stats.DSOFT.SeedsIssued > 0 {
		w.HitsPerSeed = float64(d.Stats.DSOFT.Hits) / float64(d.Stats.DSOFT.SeedsIssued)
	}
	w.TilesPerRead = float64(d.Stats.Tiles) / n
	return w
}

// GraphMapMapper adapts baseline.GraphMapLike to ReadMapper.
type GraphMapMapper struct{ G *baseline.GraphMapLike }

// Name identifies the mapper.
func (g GraphMapMapper) Name() string { return g.G.Name() }

// MapBest maps one read, trying both strands.
func (g GraphMapMapper) MapBest(read dna.Seq) MapOutcome {
	return bestOfStrands(read, g.G.MapRead)
}

// BWAMemMapper adapts baseline.BWAMemLike to ReadMapper.
type BWAMemMapper struct{ B *baseline.BWAMemLike }

// Name identifies the mapper.
func (b BWAMemMapper) Name() string { return b.B.Name() }

// MapBest maps one read, trying both strands.
func (b BWAMemMapper) MapBest(read dna.Seq) MapOutcome {
	return bestOfStrands(read, b.B.MapRead)
}

func bestOfStrands(read dna.Seq, mapRead func(dna.Seq) ([]baseline.Mapping, baseline.StageTimes)) MapOutcome {
	var out MapOutcome
	bestScore := 0
	for _, rev := range []bool{false, true} {
		q := read
		if rev {
			q = dna.RevComp(q)
		}
		maps, times := mapRead(q)
		out.Times.Add(times)
		for _, m := range maps {
			if !out.Mapped || m.Score > bestScore {
				out.Mapped = true
				bestScore = m.Score
				out.RefStart = m.RefStart
				out.RefEnd = m.RefEnd
			}
		}
	}
	return out
}
