package gact

import (
	"time"

	"darwin/internal/align"
	"darwin/internal/dna"
)

// Candidate is one D-SOFT candidate for ExtendBatch: the arguments of
// one Extend call, Q against the reference window R around the anchor
// (ISeed, JSeed).
type Candidate struct {
	R, Q         dna.Seq
	ISeed, JSeed int
}

// Outcome is what Extend returns for one candidate.
type Outcome struct {
	Res   *align.Result
	Stats Stats
	Err   error
}

// minBatch is the first-tile batch's crossover: a batch call costs
// about as much however few of its align.BatchLanes lanes it fills,
// about 19 of the per-candidate screens on a 2-vCPU AVX-512 Xeon
// (BenchmarkFirstTileBatch against BenchmarkScorePass's
// htile90/unrelated, EXPERIMENTS.md "First tiles in batches"), so a
// chunk expected to reject fewer candidates than this runs them one by
// one.
const minBatch = 20

// ExtendBatch extends each of cands as Extend would, in order, and
// writes candidate k's result to out[k] (len(out) ≥ len(cands)). The
// outcome is a loop of Extend's in every respect a caller sees: results,
// stats, the kernel-tier and registry counters, span attributes, and
// the gact/extend fault point, consulted once per candidate in order.
//
// Where the h_tile filter's first tiles can be decided on int8 lanes
// (align.TileAligner.FirstTileBatchOK), the candidates go in chunks of
// align.BatchLanes whose first tiles are scored in one call, one per
// lane. A candidate its lane scores below h_tile is rejected with that
// exact score and costs no Extend call; the rest, and every candidate
// of a chunk not expected to reject minBatch of them (batchPays), run
// Extend. The batch call is one interval of stage/align and of
// gact/first_tile; gact/first_tile_reject takes each rejected lane's
// share of it, the interval over the lanes it scored.
func (e *Engine) ExtendBatch(cands []Candidate, out []Outcome) {
	minFirst := max(1, e.cfg.MinFirstTile)
	batch := e.ta.FirstTileBatchOK(minFirst)
	for lo := 0; lo < len(cands); lo += align.BatchLanes {
		chunk := cands[lo:min(len(cands), lo+align.BatchLanes)]
		if batch && e.batchPays(len(chunk)) {
			e.extendChunk(chunk, out[lo:], minFirst)
			continue
		}
		for k, c := range chunk {
			o := &out[lo+k]
			o.Res, o.Stats, o.Err = e.Extend(c.R, c.Q, c.ISeed, c.JSeed)
		}
	}
}

// batchPays reports whether a chunk of n candidates is expected to
// reject at least minBatch of them, at the reject share of every first
// tile the engine has decided (all of them, on a fresh engine). Below
// that the batch call costs more than it saves, and each lane it
// accepts has its first tile scored twice.
func (e *Engine) batchPays(n int) bool {
	if e.firstTiles == 0 {
		return n >= minBatch
	}
	return n*e.rejects >= minBatch*e.firstTiles
}

// extendChunk is ExtendBatch over at most align.BatchLanes candidates:
// their first tiles in one ScoreFirstTiles call, then each candidate in
// order, rejected from its lane's score or run through Extend.
func (e *Engine) extendChunk(cands []Candidate, out []Outcome, minFirst int) {
	fT := e.cfg.firstT()
	rs, qs, lanes := e.batchR[:0], e.batchQ[:0], e.batchLane[:0]
	for _, c := range cands {
		if !anchorOK(c.R, c.Q, c.ISeed, c.JSeed) {
			lanes = append(lanes, -1) // Extend reports it
			continue
		}
		lanes = append(lanes, len(rs))
		rs = append(rs, c.R[c.ISeed:min(len(c.R), c.ISeed+fT)])
		qs = append(qs, c.Q[c.JSeed:min(len(c.Q), c.JSeed+fT)])
	}
	e.batchR, e.batchQ, e.batchLane = rs, qs, lanes
	var share time.Duration
	if len(rs) > 0 {
		stage := tAlign.Start(nil)
		ft := tFirstTile.Start(nil)
		e.ta.ScoreFirstTiles(rs, qs, e.batchScore[:])
		share = ft.End() / time.Duration(len(rs))
		stage.End()
	}
	for k, c := range cands {
		o := &out[k]
		l := lanes[k]
		if l < 0 || e.batchScore[l] >= minFirst {
			o.Res, o.Stats, o.Err = e.Extend(c.R, c.Q, c.ISeed, c.JSeed)
			continue
		}
		*o = Outcome{}
		if o.Err = fpExtend.Fire(); o.Err == nil {
			e.firstTiles++
			e.rejects++
			n, m := len(rs[l]), len(qs[l])
			o.Stats.add(n, m)
			o.Stats.FirstTileScore = e.batchScore[l]
			e.ta.CountRejectedFirstTile(n, m)
			tFirstReject.Observe(share)
			o.Stats.publish(true)
			e.publishKernel()
		}
		e.addSpanAttrs(o.Stats)
	}
}
