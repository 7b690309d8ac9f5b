package gact

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"darwin/internal/align"
	"darwin/internal/dna"
	"darwin/internal/faults"
	"darwin/internal/obs"
)

// gact/extend fires per candidate extension: an error drops just that
// candidate (core treats it like bad anchor geometry), a delay models
// a stuck tile pipeline (caught by core's per-read watchdog), a panic
// is contained by core's per-read recover.
var fpExtend = faults.Default.Point("gact/extend")

// Engine is the stateful GACT aligner: the free function Extend with
// the per-candidate allocations hoisted into reusable state. It owns a
// TileAligner (the allocation-free DP kernel) and a buffer the
// candidate's path is assembled in, so a rejected candidate — the
// common case downstream of D-SOFT — costs no heap allocation at all
// (nor, since the kernel is told the h_tile threshold, a pointer
// matrix or a traceback), and an accepted one allocates only its
// returned Result.
//
// Right extension runs on the reversed coordinate frame without ever
// materializing reversed sequences: tiles are cut from the forward
// slices and precoded back-to-front by TileAligner.AlignTileReversed,
// replacing Extend's two whole-sequence dna.Reverse copies per
// candidate.
//
// An Engine is not safe for concurrent use; clone one per worker
// (core.Darwin.Clone does this), mirroring the hardware's per-array
// private traceback SRAM.
type Engine struct {
	cfg Config
	ta  *align.TileAligner

	// span is the per-read trace sink Extend records into when set.
	// Atomic rather than a plain field: a read abandoned by core's
	// per-read watchdog leaves a stray goroutine still extending inside
	// this engine while the owning worker clears the sink and moves on
	// — the clear must not race the stray goroutine's load.
	span atomic.Pointer[obs.Span]

	// path is the current candidate's alignment under assembly (see
	// Extend), reused across Extend calls.
	path align.Cigar

	// lastKS is the kernel-stat snapshot at the end of the previous
	// Extend, so publishKernel can emit per-call deltas to the shared
	// counters.
	lastKS align.KernelStats
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
// for every candidate, plus a timed gact.extend child for candidates
// that survive the first-tile filter (rejections are the overwhelming
// majority downstream of D-SOFT; giving each a child would blow the
// tree's child cap without saying anything a counter doesn't).
func (e *Engine) SetSpan(sp *obs.Span) { e.span.Store(sp) }

// Extend computes exactly what the free function Extend computes —
// same tiles, same result, same published observability — using the
// engine's reused state. Stats are returned by value so the rejected
// path stays allocation-free.
func (e *Engine) Extend(R, Q dna.Seq, iSeed, jSeed int) (res *align.Result, stats Stats, err error) {
	if sp := e.span.Load(); sp != nil {
		extStart := time.Now()
		defer func() {
			sp.AddAttr("gact_extensions", 1)
			sp.AddAttr("gact_tiles", int64(stats.Tiles))
			sp.AddAttr("gact_cells", stats.Cells)
			if res != nil {
				c := sp.AddTimedChild("gact.extend", extStart, time.Since(extStart))
				c.SetAttr("tiles", int64(stats.Tiles))
				c.SetAttr("cells", stats.Cells)
				c.SetAttr("first_tile_score", int64(stats.FirstTileScore))
				c.SetAttr("score", int64(res.Score))
			}
		}()
	}
	cfg := &e.cfg
	if err := fpExtend.Fire(); err != nil {
		return nil, stats, err
	}
	if iSeed < 0 || iSeed >= len(R) || jSeed < 0 || jSeed >= len(Q) {
		return nil, stats, fmt.Errorf("gact: seed position (%d,%d) outside R[0,%d) × Q[0,%d)", iSeed, jSeed, len(R), len(Q))
	}
	defer tAlign.Time()()
	defer e.publishKernel()

	// First tile, spanning forward from the candidate. The kernel is
	// told the h_tile threshold: a tile below it — the common case
	// downstream of D-SOFT — costs a score pass, and only a tile that
	// passes is traced back from its highest-scoring cell.
	fT := cfg.firstT()
	iEnd, jEnd := min(len(R), iSeed+fT), min(len(Q), jSeed+fT)
	minFirst := max(1, cfg.MinFirstTile)
	ftStart := time.Now()
	endSpan := obs.Trace.Start("gact.first_tile")
	first := e.ta.AlignFirstTile(R[iSeed:iEnd], Q[jSeed:jEnd], fT-cfg.O, minFirst)
	endSpan()
	ftTime := time.Since(ftStart)
	tFirstTile.Observe(ftTime)
	stats.add(iEnd-iSeed, jEnd-jSeed)
	stats.FirstTileScore = first.Score
	if first.Score < minFirst {
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

	// The path is assembled in one buffer without knowing the tile count
	// up front: first.Cigar (which aliases the kernel's buffer) goes in
	// back-to-front, then each left tile's path back-to-front, so
	// reversing the buffer yields the left tiles outermost-first followed
	// by the first tile. Right extension runs as a left extension in the
	// mirrored coordinate frame, where a tile's path read back-to-front is
	// its forward-frame path, so its tiles append in order.
	e.path = appendReversed(e.path[:0], first.Cigar)
	leftI, leftJ := e.extendDir(R, Q, curI, curJ, &stats, false)
	e.path.Reverse()
	revI, revJ := e.extendDir(R, Q, len(R)-rightI, len(Q)-rightJ, &stats, true)
	rightI = len(R) - revI
	rightJ = len(Q) - revJ

	res = &align.Result{
		RefStart:   leftI,
		RefEnd:     rightI,
		QueryStart: leftJ,
		QueryEnd:   rightJ,
		Cigar:      slices.Clone(e.path),
	}
	res.Score = res.Rescore(R, Q, &cfg.Scoring)
	stats.publish(false)
	return res, stats, nil
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

// extendDir runs extendLeft's loop, appending each consumed tile's
// path back-to-front to e.path, and returns the final left-end
// coordinates. With rev set, (iCurr, jCurr) and the returned
// coordinates are in the reversed frame — position x of Reverse(R) —
// and each tile is cut from the forward slices: reversed-frame
// rR[iStart:iCurr] is R[len(R)−iCurr : len(R)−iStart] read
// back-to-front, which AlignTileReversed precodes directly.
func (e *Engine) extendDir(R, Q dna.Seq, iCurr, jCurr int, stats *Stats, rev bool) (int, int) {
	cfg := &e.cfg
	rLen, qLen := len(R), len(Q)
	for iCurr > 0 && jCurr > 0 {
		iStart, jStart := max(0, iCurr-cfg.T), max(0, jCurr-cfg.T)
		endSpan := obs.Trace.Start("gact.tile")
		var res align.TileResult
		if rev {
			res = e.ta.AlignTileReversed(R[rLen-iCurr:rLen-iStart], Q[qLen-jCurr:qLen-jStart], false, cfg.T-cfg.O)
		} else {
			res = e.ta.AlignTile(R[iStart:iCurr], Q[jStart:jCurr], false, cfg.T-cfg.O)
		}
		endSpan()
		stats.add(iCurr-iStart, jCurr-jStart)
		if res.IOff == 0 && res.JOff == 0 {
			break
		}
		e.path = appendReversed(e.path, res.Cigar)
		iCurr -= res.IOff
		jCurr -= res.JOff
	}
	return iCurr, jCurr
}

// appendReversed appends c's steps to dst last to first, merging runs
// as Concat does.
func appendReversed(dst, c align.Cigar) align.Cigar {
	for x := len(c) - 1; x >= 0; x-- {
		dst = dst.Concat(c[x : x+1])
	}
	return dst
}
