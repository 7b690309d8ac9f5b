package gact

import (
	"fmt"

	"darwin/internal/align"
	"darwin/internal/dna"
	"darwin/internal/faults"
	"darwin/internal/obs"
)

// gact/extend fires per candidate extension: an error drops just that
// candidate (core treats it like bad anchor geometry), a delay models
// a stuck tile pipeline, a panic is contained by core's per-read
// recover.
var fpExtend = faults.Default.Point("gact/extend")

// Engine is the GACT aligner every mapping path runs (Algorithm 2
// with the per-candidate allocations hoisted into reusable state;
// oracle_test.go holds the plain reference it must match). It owns a
// TileAligner (the allocation-free DP kernel) and the buffers the
// candidate's path is assembled in, so a rejected candidate — the
// common case downstream of D-SOFT — costs no heap allocation at all
// (nor, since the kernel is told the h_tile threshold, a pointer
// matrix or a traceback), and an accepted one allocates only its
// returned Result.
//
// Right extension runs on the reversed coordinate frame without ever
// materializing reversed sequences: tiles are cut from the forward
// slices and read back-to-front by TileAligner.AlignTileReversed,
// so no candidate pays for whole-sequence dna.Reverse copies.
//
// An Engine is not safe for concurrent use; each core.Worker owns one,
// mirroring the hardware's per-array private traceback SRAM.
type Engine struct {
	cfg Config
	ta  *align.TileAligner

	// span is the per-read trace sink Extend records into when set.
	span *obs.Span

	// The current candidate's path under assembly (see Extend), in two
	// halves reused across Extend calls: left[lo:] from its start to the
	// first tile's best cell, built front-first, and right the rest.
	left  align.Cigar
	lo    int
	right align.Cigar
	// score is the path's score so far: its tiles' PathScores, plus
	// what joining them added (joined).
	score int

	// lastKS is the kernel-stat snapshot at the end of the previous
	// Extend, so publishKernel can emit per-call deltas to the shared
	// counters.
	lastKS align.KernelStats

	// ExtendBatch's per-chunk state (batch.go): the lanes' first-tile
	// windows, each candidate's lane (−1 for none), and the lanes'
	// scores.
	batchR, batchQ []dna.Seq
	batchLane      []int
	batchScore     [align.BatchLanes]int
	// firstTiles and rejects count the first tiles the engine has
	// decided and those it rejected, ExtendBatch's reject share.
	firstTiles, rejects int
}

// NewEngine validates cfg and returns an engine whose kernel buffers
// are pre-sized for the configured tiles.
func NewEngine(cfg *Config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ta, err := align.NewTileAligner(&cfg.Scoring)
	if err != nil {
		return nil, err
	}
	side := cfg.T
	if ft := cfg.firstT(); ft > side {
		side = ft
	}
	ta.Preallocate(side)
	ta.SetKernel(cfg.Kernel)
	ta.SetKernelDivergence(cfg.KernelDivergence)
	return &Engine{cfg: *cfg, ta: ta}, nil
}

// Config returns the engine's configuration.
func (e *Engine) Config() *Config { return &e.cfg }

// SetSpan installs (nil clears) the per-read trace span subsequent
// Extend calls record into: aggregate extension/tile/cell attributes
// for every candidate, plus a gact/extend child, carrying the interval
// that timer records, for candidates that survive the first-tile
// filter (rejections are the overwhelming majority downstream of
// D-SOFT; giving each a child would blow the tree's child cap without
// saying anything a counter doesn't).
func (e *Engine) SetSpan(sp *obs.Span) { e.span = sp }

// Extend aligns Q against R around the D-SOFT candidate position
// (iSeed, jSeed) — the seed-hit position of a candidate bin. The first
// tile (size FirstTileT, default T) spans forward from the candidate,
// R[iSeed:iSeed+T'] × Q[jSeed:jSeed+T'], so a candidate near the start
// of the query (where D-SOFT draws its seeds) still sees a full tile
// of context — the geometry the h_tile filter of Figure 12 assumes.
// Traceback starts at the tile's highest-scoring cell; left and then
// right extension tiles follow per Algorithm 2.
//
// It returns the alignment (global coordinates, forward order) and
// tile statistics. The candidate must satisfy 0 ≤ iSeed < len(R),
// 0 ≤ jSeed < len(Q). A nil result with nil error means the candidate
// was rejected: the first tile scored below max(1, MinFirstTile).
// Stats are returned by value so the rejected path stays
// allocation-free.
func (e *Engine) Extend(R, Q dna.Seq, iSeed, jSeed int) (res *align.Result, stats Stats, err error) {
	sp := e.span
	if sp != nil {
		defer func() { e.addSpanAttrs(stats) }()
	}
	cfg := &e.cfg
	if err := fpExtend.Fire(); err != nil {
		return nil, stats, err
	}
	if !anchorOK(R, Q, iSeed, jSeed) {
		return nil, stats, fmt.Errorf("gact: seed position (%d,%d) outside R[0,%d) × Q[0,%d)", iSeed, jSeed, len(R), len(Q))
	}
	stage := tAlign.Start(nil)
	defer func() {
		d := stage.End()
		if res == nil {
			return
		}
		tExtend.Observe(d)
		if c := sp.AddTimedChild(tExtend, stage.Start(), d); c != nil {
			c.SetAttr("tiles", int64(stats.Tiles))
			c.SetAttr("cells", stats.Cells)
			c.SetAttr("first_tile_score", int64(stats.FirstTileScore))
			c.SetAttr("score", int64(res.Score))
		}
	}()
	defer e.publishKernel()

	// First tile, spanning forward from the candidate. The kernel is
	// told the h_tile threshold: a tile below it — the common case
	// downstream of D-SOFT — costs a score pass, and only a tile that
	// passes is traced back from its highest-scoring cell.
	fT := cfg.firstT()
	iEnd, jEnd := min(len(R), iSeed+fT), min(len(Q), jSeed+fT)
	minFirst := max(1, cfg.MinFirstTile)
	ft := tFirstTile.Start(nil)
	first := e.ta.AlignFirstTile(R[iSeed:iEnd], Q[jSeed:jEnd], fT-cfg.O, minFirst)
	ftTime := ft.End()
	stats.add(iEnd-iSeed, jEnd-jSeed)
	stats.FirstTileScore = first.Score
	e.firstTiles++
	if first.Score < minFirst {
		e.rejects++
		tFirstReject.Observe(ftTime)
		stats.publish(true)
		return nil, stats, nil
	}

	// Global coordinates of the alignment's right end (the first
	// tile's max cell) and of the running left end.
	rightI := iSeed + first.MaxI
	rightJ := jSeed + first.MaxJ
	curI := rightI - first.IOff
	curJ := rightJ - first.JOff

	// The tiles' paths come back last step first (TileAligner.AlignTile), the
	// order their tracebacks walk them. From the first tile's best cell
	// the left tiles walk towards the start, so each walk goes in front
	// of the left half (prependWalk); right extension runs as a left
	// extension in the mirrored coordinate frame, where a walk is in
	// forward order, so its tiles append to the right half in order.
	e.lo = len(e.left)
	e.score = first.PathScore
	e.prependWalk(first.Cigar)
	leftI, leftJ := e.extendDir(R, Q, curI, curJ, &stats, false)
	e.right = e.right[:0]
	revI, revJ := e.extendDir(R, Q, len(R)-rightI, len(Q)-rightJ, &stats, true)
	rightI = len(R) - revI
	rightJ = len(Q) - revJ

	left := e.left[e.lo:]
	path := append(make(align.Cigar, 0, len(left)+len(e.right)), left...)
	res = &align.Result{
		RefStart:   leftI,
		RefEnd:     rightI,
		QueryStart: leftJ,
		QueryEnd:   rightJ,
		Cigar:      e.appendWalk(path, e.right),
		Score:      e.score,
	}
	stats.publish(false)
	return res, stats, nil
}

// anchorOK reports whether (iSeed, jSeed) lies in R × Q, as Extend
// requires.
func anchorOK(R, Q dna.Seq, iSeed, jSeed int) bool {
	return 0 <= iSeed && iSeed < len(R) && 0 <= jSeed && jSeed < len(Q)
}

// addSpanAttrs folds one candidate's extension into the span's
// aggregate attributes, if a span is set.
func (e *Engine) addSpanAttrs(stats Stats) {
	if sp := e.span; sp != nil {
		sp.AddAttr("gact_extensions", 1)
		sp.AddAttr("gact_tiles", int64(stats.Tiles))
		sp.AddAttr("gact_cells", stats.Cells)
	}
}

// KernelStats returns the cumulative kernel-tier counters of the
// engine's TileAligner.
func (e *Engine) KernelStats() align.KernelStats { return e.ta.KernelStats() }

// publishKernel emits the kernel-tier counter deltas accumulated since
// the previous Extend. The TileAligner keeps cheap plain-int stats;
// batching the atomic counter adds per Extend (rather than per tile)
// keeps the rejected-candidate fast path free of contention.
func (e *Engine) publishKernel() {
	ks := e.ta.KernelStats()
	cTileBitvector.Add(ks.BitvectorTiles - e.lastKS.BitvectorTiles)
	cTileFallback.Add(ks.FallbackTiles - e.lastKS.FallbackTiles)
	cTileLUT.Add(ks.LUTTiles - e.lastKS.LUTTiles)
	cCellsBitvector.Add(ks.BitvectorCells - e.lastKS.BitvectorCells)
	cCellsLUT.Add(ks.LUTCells - e.lastKS.LUTCells)
	e.lastKS = ks
}

// extendDir runs Algorithm 2's non-first-tile loop from (iCurr, jCurr)
// until a tile consumes nothing or a sequence start is reached, putting
// each consumed tile's walk in front of e's left half, or with rev at
// the end of its right half, and returns the final left-end
// coordinates. With rev set, (iCurr, jCurr) and the returned
// coordinates are in the reversed frame — position x of Reverse(R) —
// and each tile is cut from the forward slices:
// reversed-frame rR[iStart:iCurr] is R[len(R)−iCurr : len(R)−iStart]
// read back-to-front, which AlignTileReversed precodes directly.
func (e *Engine) extendDir(R, Q dna.Seq, iCurr, jCurr int, stats *Stats, rev bool) (int, int) {
	cfg := &e.cfg
	rLen, qLen := len(R), len(Q)
	for iCurr > 0 && jCurr > 0 {
		iStart, jStart := max(0, iCurr-cfg.T), max(0, jCurr-cfg.T)
		var res align.TileResult
		if rev {
			res = e.ta.AlignTileReversed(R[rLen-iCurr:rLen-iStart], Q[qLen-jCurr:qLen-jStart], false, cfg.T-cfg.O)
		} else {
			res = e.ta.AlignTile(R[iStart:iCurr], Q[jStart:jCurr], false, cfg.T-cfg.O)
		}
		stats.add(iCurr-iStart, jCurr-jStart)
		if res.IOff == 0 && res.JOff == 0 {
			break
		}
		e.score += res.PathScore
		if rev {
			e.right = e.appendWalk(e.right, res.Cigar)
		} else {
			e.prependWalk(res.Cigar)
		}
		iCurr -= res.IOff
		jCurr -= res.JOff
	}
	return iCurr, jCurr
}

// prependWalk puts a tile's walk c, its path last step first, in front
// of the left half e.left[e.lo:], which so stays in forward order,
// merging runs as Concat does: c is canonical (positive runs, no two
// adjacent runs of one op), so only its first step can merge. A full
// buffer is regrown with the half at the end of one twice the size.
func (e *Engine) prependWalk(c align.Cigar) {
	if len(c) > 0 && e.lo < len(e.left) && e.left[e.lo].Op() == c[0].Op() {
		e.joined(c[0].Op())
		e.left[e.lo] = e.left[e.lo].Grow(c[0].Len())
		c = c[1:]
	}
	if e.lo < len(c) {
		half := e.left[e.lo:]
		grown := make(align.Cigar, 2*(len(e.left)+len(c)))
		e.lo = len(grown) - len(half)
		copy(grown[e.lo:], half)
		e.left = grown
	}
	for _, s := range c {
		e.lo--
		e.left[e.lo] = s
	}
}

// appendWalk appends c's steps to dst in order, merging the junction
// run as Concat does; the rest go in as one copy.
func (e *Engine) appendWalk(dst, c align.Cigar) align.Cigar {
	if len(c) == 0 {
		return dst
	}
	if len(dst) > 0 && dst[len(dst)-1].Op() == c[0].Op() {
		e.joined(c[0].Op())
	}
	return append(dst.Concat(c[:1]), c[1:]...)
}

// joined adds to the path's score what merging two runs of op at a
// junction of tile paths adds to the sum of their scores: for a gap,
// one opening fewer, as Result.Rescore charges one run.
func (e *Engine) joined(op align.Op) {
	if op != align.OpMatch {
		e.score += e.cfg.Scoring.GapOpen - e.cfg.Scoring.GapExtend
	}
}
