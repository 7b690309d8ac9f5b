package main

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"darwin/internal/align"
	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/dsoft"
	"darwin/internal/gact"
	"darwin/internal/obs"
	"darwin/internal/readsim"
	"darwin/internal/seedtable"
	"darwin/internal/shard"
)

// mapProbe is one segment of reads to measure the mapping layers on.
type mapProbe struct {
	ref    dna.Seq
	cfg    core.Config
	mapper core.Mapper
	seqs   []dna.Seq
	// pool is the whole read pool with its ground truth, for cutting
	// tiles at true loci; foreign marks the reads that have none (nil:
	// no read is foreign).
	pool    []readsim.Read
	foreign []bool
}

// window restricts one candidate's extension: skip drops it, else the
// extension sees only ref[lo:hi). Read mapping extends against the
// whole reference; the overlap step clips to the target read.
type window func(refPos int) (skip bool, lo, hi int)

// replayCounts is the work one replay did, from the values the layer
// functions return.
type replayCounts struct {
	seeds, hits, candidates    int
	extensions, rejects, tiles int
	cells                      int64
	alignments                 [][]core.ReadAlignment
	wall                       time.Duration
}

// replay maps each query the way core composes the layers — per strand
// Filter.QueryInto, MaxCandidates truncation, then Engine.Extend per
// candidate — from one goroutine, with a span around every call, so
// that time in D-SOFT and in GACT is measured by the harness clock at
// the layer boundary.
func replay(tr *tracer, ref dna.Seq, table *seedtable.Table, cfg core.Config, queries []dna.Seq, firstReq int, win func(q int) window) (replayCounts, error) {
	var rc replayCounts
	stride := max(cfg.SeedStride, 1)
	filter, err := dsoft.New(table, dsoft.Config{N: cfg.SeedN, H: cfg.Threshold, BinSize: cfg.BinSize, Stride: stride})
	if err != nil {
		return rc, err
	}
	g := cfg.GACT
	g.MinFirstTile = cfg.HTile
	engine, err := gact.NewEngine(&g)
	if err != nil {
		return rc, err
	}
	var cands []dsoft.Candidate
	var revBuf dna.Seq
	start := time.Now()
	for qi, q := range queries {
		req := firstReq + qi
		w := win(qi)
		readSpan := tr.begin("core", "replay.read", -1, req)
		var alns []core.ReadAlignment
		for _, rev := range []bool{false, true} {
			query := q
			if rev {
				revBuf = dna.AppendRevComp(revBuf[:0], q)
				query = revBuf
			}
			sp := tr.begin("dsoft", "dsoft.query", readSpan, req)
			var st dsoft.Stats
			cands, st = filter.QueryInto(query, cands[:0])
			tr.end(sp, "")
			rc.seeds += st.SeedsIssued
			rc.hits += st.Hits
			rc.candidates += len(cands)
			use := cands
			if cfg.MaxCandidates > 0 && len(use) > cfg.MaxCandidates {
				use = use[:cfg.MaxCandidates]
			}
			for _, c := range use {
				skip, lo, hi := w(c.RefPos)
				if skip {
					continue
				}
				sp := tr.begin("gact", "gact.extend", readSpan, req)
				res, gst, err := engine.Extend(ref[lo:hi], query, c.RefPos-lo, c.QueryPos)
				if err != nil {
					tr.end(sp, "gact.error")
					continue
				}
				rc.extensions++
				rc.tiles += gst.Tiles
				rc.cells += gst.Cells
				if res == nil {
					tr.end(sp, "gact.reject")
					rc.rejects++
					continue
				}
				tr.end(sp, "")
				res.RefStart += lo
				res.RefEnd += lo
				alns = append(alns, core.ReadAlignment{Result: *res, Reverse: rev, FirstTileScore: gst.FirstTileScore})
			}
		}
		core.SortAlignments(alns)
		tr.end(readSpan, "")
		rc.alignments = append(rc.alignments, alns)
	}
	rc.wall = time.Since(start)
	return rc, nil
}

// wholeRef is the window of read mapping.
func wholeRef(n int) func(int) window {
	return func(int) window {
		return func(int) (bool, int, int) { return false, 0, n }
	}
}

// fillReplayMetrics publishes a replay's layer metrics.
func fillReplayMetrics(out *outcome, tr *tracer, rc replayCounts) {
	busy := tr.busy()
	m := out.metrics
	m["dsoft.busy_s"] = busy["dsoft.query"]
	m["dsoft.seeds"] = float64(rc.seeds)
	m["dsoft.hits"] = float64(rc.hits)
	m["dsoft.candidates"] = float64(rc.candidates)
	m["dsoft.cand_precision"] = ratio(float64(rc.extensions-rc.rejects), float64(rc.candidates))
	m["gact.busy_s"] = busy["gact.extend"] + busy["gact.reject"]
	m["gact.reject_busy_s"] = busy["gact.reject"]
	m["gact.extensions"] = float64(rc.extensions)
	m["gact.htile_rejects"] = float64(rc.rejects)
	m["gact.tiles"] = float64(rc.tiles)
	m["gact.cells"] = float64(rc.cells)
	m["gact.mcells_per_s"] = ratio(float64(rc.cells)/1e6, m["gact.busy_s"])
}

// ratio is a/b, or 0 when the layer did no work on this workload.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fillAlignCounts publishes the tile-kernel tier counts of a registry
// diff.
func fillAlignCounts(out *outcome, d obs.Snapshot) {
	m := out.metrics
	bv, fb, lut := d.Counters["gact/tile_bitvector"], d.Counters["gact/tile_fallback"], d.Counters["gact/tile_lut"]
	m["align.tiles_bitvector"] = float64(bv)
	m["align.tiles_fallback"] = float64(fb)
	m["align.tiles_lut"] = float64(lut)
	m["align.cells_bitvector"] = float64(d.Counters["gact/cells_bitvector"])
	m["align.cells_lut"] = float64(d.Counters["gact/cells_lut"])
	m["align.bitvector_share"] = ratio(float64(bv), float64(bv+lut))
}

// buildTable times seedtable.Build, the index the replay and the
// monolithic comparison run on.
func buildTable(tr *tracer, out *outcome, ref dna.Seq, cfg core.Config) (*seedtable.Table, error) {
	sp := tr.begin("seedtable", "seedtable.build", -1, 0)
	table, err := seedtable.Build(ref, cfg.SeedK, cfg.TableOptions)
	out.metrics["seedtable.build_s"] = tr.end(sp, "").Seconds()
	if err != nil {
		return nil, err
	}
	out.metrics["seedtable.bytes"] = float64(table.Bytes())
	return table, nil
}

// probeMapping measures the seedtable, dsoft, gact, align, core and
// shard layers on one segment and returns the segment's single-worker
// Map results, which the caller checks.
func probeMapping(in mapProbe, tr *tracer, out *outcome) ([]core.MapResult, error) {
	ctx := context.Background()
	n := len(in.seqs)
	out.attempted += n

	// Untraced, W workers then one worker: the scaling efficiency.
	t := time.Now()
	resW, err := in.mapper.Map(ctx, in.seqs, core.WithWorkers(workers))
	if err != nil {
		return nil, fmt.Errorf("Map with %d workers: %w", workers, err)
	}
	wallW := time.Since(t)

	before := obs.Default.Snapshot()
	sp := tr.begin("core", "core.map", -1, 0)
	res1, err := in.mapper.Map(ctx, in.seqs, core.WithWorkers(1))
	wall1 := tr.end(sp, "")
	if err != nil {
		return nil, fmt.Errorf("Map with 1 worker: %w", err)
	}
	fillAlignCounts(out, obs.Default.Snapshot().Sub(before))
	if !sameAlignments(resW, res1) {
		out.problemf("Map results differ between %d workers and 1", workers)
	}

	table, err := buildTable(tr, out, in.ref, in.cfg)
	if err != nil {
		return nil, err
	}
	rc, err := replay(tr, in.ref, table, in.cfg, in.seqs, 0, wholeRef(len(in.ref)))
	if err != nil {
		return nil, err
	}
	for i := range res1 {
		if !reflect.DeepEqual(nilIfEmpty(rc.alignments[i]), nilIfEmpty(res1[i].Alignments)) {
			out.problemf("read %d: the replay's alignments differ from Mapper.Map's", i)
		}
	}
	fillReplayMetrics(out, tr, rc)
	m := out.metrics
	m["core.map1_wall_s"] = wall1.Seconds()
	m["core.self_s"] = wall1.Seconds() - m["dsoft.busy_s"] - m["gact.busy_s"]
	m["core.scale_eff"] = wall1.Seconds() / (float64(workers) * wallW.Seconds())
	// The replay runs on a monolithic table, so what tracing costs is
	// its time over the monolithic engine's on the same reads.
	wallMono := wall1
	if sm, ok := in.mapper.(*shard.ScatterMapper); ok {
		if wallMono, err = probeShard(sm, in, table, res1, wall1, tr, out); err != nil {
			return nil, err
		}
	}
	m["trace.overhead_share"] = rc.wall.Seconds()/wallMono.Seconds() - 1
	return res1, probeTiles(in, tr, out)
}

func nilIfEmpty(a []core.ReadAlignment) []core.ReadAlignment {
	if len(a) == 0 {
		return nil
	}
	return a
}

// probeShard measures what sharding costs on top of the monolithic
// engine: the same reads, configuration and worker count through both,
// then the worker half (ScatterShards) and the router half
// (MergeReadScatters) of the distributed path on their own. It returns
// the monolithic engine's wall time.
func probeShard(sm *shard.ScatterMapper, in mapProbe, table *seedtable.Table, res1 []core.MapResult, wall1 time.Duration, tr *tracer, out *outcome) (time.Duration, error) {
	ctx := context.Background()
	mono, err := core.NewWithTable(in.ref, table, in.cfg)
	if err != nil {
		return 0, err
	}
	sp := tr.begin("core", "core.map_monolithic", -1, 0)
	resMono, err := mono.Map(ctx, in.seqs, core.WithWorkers(1))
	wallMono := tr.end(sp, "")
	if err != nil {
		return 0, err
	}
	if !sameAlignments(resMono, res1) {
		out.problemf("sharded Map results differ from the monolithic engine's")
	}

	sp = tr.begin("shard", "shard.scatter", -1, 0)
	scatters, err := sm.ScatterShards(ctx, in.seqs, allShards(sm), 1)
	scatterS := tr.end(sp, "").Seconds()
	if err != nil {
		return 0, err
	}
	sp = tr.begin("shard", "shard.merge", -1, 0)
	merged := make([]core.MapResult, len(scatters))
	for i := range scatters {
		merged[i], err = shard.MergeReadScatters(in.cfg.MaxCandidates, scatters[i:i+1])
		if err != nil {
			return 0, err
		}
	}
	mergeS := tr.end(sp, "").Seconds()
	if !sameAlignments(merged, res1) {
		out.problemf("ScatterShards + MergeReadScatters results differ from Map's")
	}
	m := out.metrics
	m["shard.overhead_ratio"] = wall1.Seconds() / wallMono.Seconds()
	m["shard.scatter_s"] = scatterS
	m["shard.merge_s"] = mergeS
	m["shard.builds"] = float64(obs.Default.Counter("shard/builds").Value())
	m["shard.resident_mib"] = float64(sm.Set().ResidentBytes()) / (1 << 20)
	return wallMono, nil
}

// allShards lists every shard id of a sharded mapper.
func allShards(sm *shard.ScatterMapper) []int {
	ids := make([]int, len(sm.Set().Geometry().Parts))
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// tilesPerKind is how many first tiles and extension tiles are timed.
const tilesPerKind = 200

// probeTiles times TileAligner.AlignTile on tiles cut from the
// workload's reads where they truly lie: a first tile at the read's
// start, and an extension tile ending at the read's end, which is on
// the true path, so its traceback runs as GACT's left extension would.
func probeTiles(in mapProbe, tr *tracer, out *outcome) error {
	g := in.cfg.GACT
	ta, err := align.NewTileAligner(&g.Scoring)
	if err != nil {
		return err
	}
	firstT := g.FirstTileT
	if firstT == 0 {
		firstT = g.T
	}
	side := max(g.T, firstT)
	ta.Preallocate(side)
	ta.SetKernel(g.Kernel)
	ta.SetKernelDivergence(g.KernelDivergence)
	var own []int
	for i := range in.pool {
		r := &in.pool[i]
		if !isForeign(in.foreign, i) && r.RefEnd <= len(in.ref) && r.TemplateLen() >= side && len(r.Seq) >= side {
			own = append(own, i)
		}
	}
	if len(own) == 0 {
		return fmt.Errorf("no read long enough to cut a %d-base tile from", side)
	}
	var firstUs, extUs []float64
	for k := 0; k < tilesPerKind; k++ {
		r := &in.pool[own[k%len(own)]]
		q := r.Seq
		if r.Reverse {
			q = dna.RevComp(q)
		}
		sp := tr.begin("align", "align.first_tile", -1, k)
		ta.AlignTile(in.ref[r.RefStart:r.RefStart+firstT], q[:firstT], true, firstT-g.O)
		firstUs = append(firstUs, float64(tr.end(sp, ""))/float64(time.Microsecond))
		sp = tr.begin("align", "align.ext_tile", -1, k)
		ta.AlignTile(in.ref[r.RefEnd-g.T:r.RefEnd], q[len(q)-g.T:], false, g.T-g.O)
		extUs = append(extUs, float64(tr.end(sp, ""))/float64(time.Microsecond))
	}
	out.metrics["align.first_tile_us"] = median(firstUs)
	out.metrics["align.ext_tile_us"] = median(extUs)
	return nil
}
