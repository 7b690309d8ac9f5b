package shard

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/dsoft"
	"darwin/internal/genome"
	"darwin/internal/obs"
	"darwin/internal/readsim"
	"darwin/internal/seedtable"
)

func testGenome(t *testing.T, n int, seed int64) dna.Seq {
	t.Helper()
	g, err := genome.Generate(genome.Config{
		Length: n, GC: 0.45, RepeatFraction: 0.2, RepeatFamilies: 5,
		RepeatUnitLen: 250, RepeatDivergence: 0.1, TandemFraction: 0.1, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g.Seq
}

func smallConfig() core.Config {
	return core.DefaultConfig(11, 600, 20)
}

func TestPartitionInvariants(t *testing.T) {
	cfg := smallConfig()
	minOv := MinOverlap(cfg)
	cases := []struct {
		refLen, count int
	}{
		{100000, 4},
		{100000, 1},
		{100000, 7},
		{131072, 4}, // exact multiple
		{999, 3},    // shorter than one bin per shard
	}
	wantOverlap := roundUp(minOv, cfg.BinSize)
	for _, c := range cases {
		g, err := Partition(c.refLen, c.count, minOv, cfg.BinSize)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		if g.Overlap != wantOverlap {
			t.Fatalf("%+v: overlap %d, want the minimum %d rounded up to B = %d", c, g.Overlap, wantOverlap, cfg.BinSize)
		}
		if g.ShardSize%cfg.BinSize != 0 {
			t.Fatalf("%+v: shard size %d not bin-aligned", c, g.ShardSize)
		}
		// Cores tile [0, refLen) disjointly and extents are B-aligned
		// supersets of their cores.
		next := 0
		for i, p := range g.Parts {
			if p.Core.Start != next {
				t.Fatalf("%+v: shard %d core starts at %d, want %d", c, i, p.Core.Start, next)
			}
			if p.Core.Len() <= 0 {
				t.Fatalf("%+v: shard %d empty core", c, i)
			}
			next = p.Core.End
			if p.Extent.Start%cfg.BinSize != 0 {
				t.Fatalf("%+v: shard %d extent start %d not bin-aligned", c, i, p.Extent.Start)
			}
			if p.Extent.Start > p.Core.Start || p.Extent.End < p.Core.End {
				t.Fatalf("%+v: shard %d extent %+v does not cover core %+v", c, i, p.Extent, p.Core)
			}
			if p.Extent.Start < 0 || p.Extent.End > c.refLen {
				t.Fatalf("%+v: shard %d extent %+v out of range", c, i, p.Extent)
			}
		}
		if next != c.refLen {
			t.Fatalf("%+v: cores end at %d, want %d", c, next, c.refLen)
		}
		for _, p := range g.Parts {
			for _, pos := range []int{p.Core.Start, p.Core.End - 1} {
				if got := g.OwnerOf(pos); got != p.Index {
					t.Fatalf("%+v: OwnerOf(%d) = %d, want %d", c, pos, got, p.Index)
				}
			}
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	if _, err := Partition(0, 2, 0, 128); err == nil {
		t.Error("zero reference length should error")
	}
	if _, err := Partition(1000, 0, 0, 128); err == nil {
		t.Error("zero shard count should error")
	}
	if _, err := Partition(1000, 2, 0, 100); err == nil {
		t.Error("non-power-of-two bin size should error")
	}
}

func TestParseBytes(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int64 // -1: an error
	}{
		{"0", 0},
		{"512", 512},
		{"4k", 4 << 10},
		{" 256M ", 256 << 20},
		{"2GB", 2 << 30},
		{"8589934591G", 8589934591 << 30}, // the largest G count that fits
		{"9223372036854775807", math.MaxInt64},
		{"", -1},
		{"-1M", -1},
		{"12T", -1},
		{"8589934592G", -1}, // 2^63 bytes
		{"9000000000G", -1},
		{"9007199254740992K", -1},
		{"9223372036854775808", -1},
	} {
		got, err := ParseBytes(c.in)
		if c.want < 0 {
			if err == nil {
				t.Errorf("ParseBytes(%q) = %d, want an error", c.in, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ParseBytes(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
}

// alignmentsOf strips stats down to the bit-comparable parts.
func alignmentsOf(res []core.MapResult) [][]core.ReadAlignment {
	out := make([][]core.ReadAlignment, len(res))
	for i, r := range res {
		out[i] = r.Alignments
	}
	return out
}

// boundaryReads builds reads that straddle every core boundary of the
// geometry: exact substrings centered on each boundary, plus their
// reverse complements, plus simulated error-bearing reads.
func boundaryReads(t *testing.T, ref dna.Seq, g *Geometry) []dna.Seq {
	t.Helper()
	var reads []dna.Seq
	const half = 1200
	for _, p := range g.Parts[1:] {
		b := p.Core.Start
		lo, hi := b-half, b+half
		if lo < 0 {
			lo = 0
		}
		if hi > len(ref) {
			hi = len(ref)
		}
		reads = append(reads, ref[lo:hi], dna.RevComp(ref[lo:hi]))
	}
	nsim := 12
	if raceEnabled {
		nsim = 5
	}
	sim, err := readsim.SimulateN(ref, nsim, readsim.Config{Profile: readsim.PacBio, MeanLen: 2500, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sim {
		reads = append(reads, sim[i].Seq)
	}
	return reads
}

// TestBoundaryEquivalence is the central exactness property: for reads
// straddling every shard boundary, the sharded mapper's alignments are
// bit-identical to the monolithic engine's for shard counts 1, 2, 4,
// and 7 — including candidate counts and MaxCandidates truncation —
// on both layouts: the whole-reference table (no budget), whose one
// D-SOFT pass per strand is the monolith's, so every MapStats count
// matches, D-SOFT's included; and per-shard tables (a budget at its
// floor), whose D-SOFT counts sum over shards.
func TestBoundaryEquivalence(t *testing.T) {
	ref := testGenome(t, 120000, 201)
	cfg := smallConfig()
	mono, err := core.New(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shardCounts := []int{1, 2, 4, 7}
	if raceEnabled {
		shardCounts = []int{1, 4}
	}
	for _, budget := range []int64{0, 1} {
		for _, shards := range shardCounts {
			sm, err := New(ref, cfg, Config{Shards: shards, MaxResidentBytes: budget})
			if err != nil {
				t.Fatalf("shards=%d budget=%d: %v", shards, budget, err)
			}
			reads := boundaryReads(t, ref, sm.Set().Geometry())
			want, err := mono.Map(context.Background(), reads, core.WithWorkers(4))
			if err != nil {
				t.Fatal(err)
			}
			got, err := sm.Map(context.Background(), reads, core.WithWorkers(4))
			if err != nil {
				t.Fatalf("shards=%d budget=%d: %v", shards, budget, err)
			}
			if len(got) != len(want) {
				t.Fatalf("shards=%d budget=%d: %d results, want %d", shards, budget, len(got), len(want))
			}
			for i := range got {
				if !reflect.DeepEqual(got[i].Alignments, want[i].Alignments) {
					t.Errorf("shards=%d budget=%d read %d: alignments diverge from monolithic engine\n got: %+v\nwant: %+v",
						shards, budget, i, got[i].Alignments, want[i].Alignments)
				}
				g, w := workStats(got[i].Stats), workStats(want[i].Stats)
				if budget > 0 {
					g.DSOFT, w.DSOFT = dsoft.Stats{}, dsoft.Stats{}
				}
				if !reflect.DeepEqual(g, w) {
					t.Errorf("shards=%d budget=%d read %d: work stats diverge:\n got %+v\nwant %+v", shards, budget, i, g, w)
				}
			}
		}
	}
}

// workStats is s without its wall-clock fields, the part of MapStats
// two mapping paths can agree on exactly.
func workStats(s core.MapStats) core.MapStats {
	s.FiltrationTime, s.AlignmentTime = 0, 0
	if len(s.FirstTileScores) == 0 {
		s.FirstTileScores = nil
	}
	return s
}

// TestScatterOneShardHitsItsExtent: a ScatterShards call over one shard
// of four on the whole-reference table walks that shard's hits only —
// its D-SOFT hit count equals a BuildRange table's over the shard's
// extent under the global mask — and keeps exactly the candidates that
// table's filter finds inside the shard's core.
func TestScatterOneShardHitsItsExtent(t *testing.T) {
	ref := testGenome(t, 120000, 211)
	cfg := smallConfig()
	sm, err := New(ref, cfg, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Reads whose first seeds straddle each extent edge, so a window a
	// base too wide or too narrow changes the hit count.
	reads := boundaryReads(t, ref, sm.Set().Geometry())
	for _, part := range sm.Set().Geometry().Parts {
		for _, edge := range []int{part.Extent.Start, part.Extent.End} {
			if lo, hi := edge-300, edge+1700; lo >= 0 && hi <= len(ref) {
				reads = append(reads, ref[lo:hi])
			}
		}
	}
	mask, err := seedtable.ComputeMask(ref, cfg.SeedK, cfg.TableOptions)
	if err != nil {
		t.Fatal(err)
	}
	opts := cfg.TableOptions
	opts.Mask = mask
	for _, part := range sm.Set().Geometry().Parts {
		table, err := seedtable.BuildRange(ref, part.Extent.Start, part.Extent.End, cfg.SeedK, opts)
		if err != nil {
			t.Fatal(err)
		}
		f, err := dsoft.New(table, dsoft.Config{N: cfg.SeedN, H: cfg.Threshold, BinSize: cfg.BinSize, Stride: cfg.SeedStride})
		if err != nil {
			t.Fatal(err)
		}
		var wantHits int64
		want := make([][2][]CandExt, len(reads))
		for i, r := range reads {
			for strand, q := range []dna.Seq{r, dna.RevComp(r)} {
				cands, st := f.Query(q)
				wantHits += int64(st.Hits)
				for _, c := range cands {
					if g := c.RefPos + part.Extent.Start; part.Core.Contains(g) {
						want[i][strand] = append(want[i][strand], CandExt{QueryPos: c.QueryPos, RefPos: g})
					}
				}
			}
		}
		hits0 := obs.Default.Counter("dsoft/hits").Value()
		got, err := sm.ScatterShards(context.Background(), reads, []int{part.Index}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if hits := obs.Default.Counter("dsoft/hits").Value() - hits0; hits != wantHits {
			t.Errorf("shard %d: ScatterShards walked %d hits, a table over its extent holds %d", part.Index, hits, wantHits)
		}
		for i := range reads {
			for strand := range 2 {
				var anchors []CandExt
				for _, c := range got[i].Strand[strand] {
					anchors = append(anchors, CandExt{QueryPos: c.QueryPos, RefPos: c.RefPos})
				}
				sortCandidates(want[i][strand], func(c CandExt) (int, int) { return c.QueryPos, c.RefPos })
				if !reflect.DeepEqual(anchors, want[i][strand]) {
					t.Errorf("shard %d read %d strand %d: candidates %v, the extent's table finds %v", part.Index, i, strand, anchors, want[i][strand])
				}
			}
		}
	}
}

// TestDeterminism maps one batch under every combination of worker and
// shard counts and requires bit-identical results (satellite of the
// stable-ordering guarantee; the monolithic path is covered by
// core's TestMapDeterministicOrdering).
func TestDeterminism(t *testing.T) {
	ref := testGenome(t, 90000, 301)
	cfg := smallConfig()
	// One fixed read set (from the 3-shard geometry's boundaries) for
	// every engine variant, so results are comparable across variants.
	probe, err := New(ref, cfg, Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	reads := boundaryReads(t, ref, probe.Set().Geometry())
	var baseline []core.MapResult
	for _, shards := range []int{1, 3} {
		sm, err := New(ref, cfg, Config{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		workerCounts := []int{1, 2, 5}
		if raceEnabled {
			workerCounts = []int{1, 5}
		}
		for _, workers := range workerCounts {
			res, err := sm.Map(context.Background(), reads, core.WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			if baseline == nil {
				baseline = res
				continue
			}
			if !reflect.DeepEqual(alignmentsOf(res), alignmentsOf(baseline)) {
				t.Fatalf("shards=%d workers=%d: results differ from baseline", shards, workers)
			}
		}
	}
}

// TestEvictionThrash forces the budget to its floor (one resident
// shard): every shard is rebuilt on every batch, yet results stay
// bit-identical and residency never exceeds one table.
func TestEvictionThrash(t *testing.T) {
	ref := testGenome(t, 100000, 401)
	cfg := smallConfig()
	mono, err := core.New(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := New(ref, cfg, Config{Shards: 5, MaxResidentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	reads := boundaryReads(t, ref, sm.Set().Geometry())
	builds0 := obs.Default.Counter("shard/builds").Value()
	evict0 := obs.Default.Counter("shard/evictions").Value()
	for round := 0; round < 2; round++ {
		want, err := mono.Map(context.Background(), reads, core.WithWorkers(3))
		if err != nil {
			t.Fatal(err)
		}
		got, err := sm.Map(context.Background(), reads, core.WithWorkers(3))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(alignmentsOf(got), alignmentsOf(want)) {
			t.Fatalf("round %d: thrashing mapper diverged from monolithic engine", round)
		}
		st, infos := sm.Set().Snapshot()
		if st.Resident != 1 {
			t.Fatalf("round %d: %d shards resident, want 1 (budget floor)", round, st.Resident)
		}
		resident := 0
		for _, info := range infos {
			if info.Resident {
				resident++
				if info.Bytes <= 0 {
					t.Fatalf("round %d: resident shard %d reports %d bytes", round, info.Index, info.Bytes)
				}
			}
		}
		if resident != 1 {
			t.Fatalf("round %d: per-shard infos report %d resident, want 1", round, resident)
		}
	}
	builds := obs.Default.Counter("shard/builds").Value() - builds0
	evicts := obs.Default.Counter("shard/evictions").Value() - evict0
	// Shard-major batching bounds rebuild cost: exactly one build per
	// shard per batch even at the budget floor.
	if builds != 2*5 {
		t.Errorf("builds = %d, want 10 (5 shards × 2 rounds)", builds)
	}
	if evicts != builds-1 {
		t.Errorf("evictions = %d, want builds-1 = %d", evicts, builds-1)
	}
	if peak := sm.Set().PeakResidentBytes(); peak <= 0 {
		t.Errorf("peak resident bytes %d, want > 0", peak)
	}
}

// TestLazyBuildsCountAsIndexStage: a budgeted set's lazy shard builds
// are index work, timed under stage/index as well as shard/build, so a
// run's stage accounting covers them.
func TestLazyBuildsCountAsIndexStage(t *testing.T) {
	ref := testGenome(t, 100000, 403)
	sm, err := New(ref, smallConfig(), Config{Shards: 5, MaxResidentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	reads := boundaryReads(t, ref, sm.Set().Geometry())
	index0, build0 := obs.Default.Timer("stage/index").Total(), obs.Default.Timer("shard/build").Total()
	if _, err := sm.Map(context.Background(), reads, core.WithWorkers(2)); err != nil {
		t.Fatal(err)
	}
	index := obs.Default.Timer("stage/index").Total() - index0
	build := obs.Default.Timer("shard/build").Total() - build0
	if build <= 0 {
		t.Fatalf("shard/build grew by %v: the budgeted run built no shard", build)
	}
	if index < build {
		t.Errorf("stage/index grew by %v, less than shard/build's %v", index, build)
	}
}

// TestMapReadMatchesMap checks the monolithic engine's single-read
// surface agrees with the sharded batch surface, one read at a time.
func TestMapReadMatchesMap(t *testing.T) {
	ref := testGenome(t, 60000, 501)
	cfg := smallConfig()
	mono, err := core.New(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := New(ref, cfg, Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	reads := boundaryReads(t, ref, sm.Set().Geometry())[:6]
	for i, r := range reads {
		wantAlns, wantStats := mono.MapRead(r)
		got, err := sm.Map(context.Background(), []dna.Seq{r}, core.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[0].Alignments, wantAlns) {
			t.Errorf("read %d: MapRead alignments diverge", i)
		}
		if got[0].Stats.Candidates != wantStats.Candidates {
			t.Errorf("read %d: candidates %d, want %d", i, got[0].Stats.Candidates, wantStats.Candidates)
		}
	}
}

// TestConcurrentCallsOnOneMapper maps from several goroutines at once
// through one ScatterMapper under the tightest residency budget, half
// of them by Map and half by ScatterShards over every shard: each
// result must equal a serial run's, and the shared set's accounting
// must hold. Under `go test -race` this also proves the calls share no
// mutable state beyond the set.
func TestConcurrentCallsOnOneMapper(t *testing.T) {
	ref := testGenome(t, 80000, 601)
	cfg := smallConfig()
	sm, err := New(ref, cfg, Config{Shards: 4, MaxResidentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	reads := boundaryReads(t, ref, sm.Set().Geometry())[:8]
	all := []int{0, 1, 2, 3}
	ctx := context.Background()
	wantMap, err := sm.Map(ctx, reads, core.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	wantScatter, err := sm.ScatterShards(ctx, reads, all, 1)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g%2 == 0 {
				got, err := sm.Map(ctx, reads, core.WithWorkers(2))
				if err != nil {
					t.Error(err)
					return
				}
				for i := range got {
					if !reflect.DeepEqual(got[i].Alignments, wantMap[i].Alignments) {
						t.Errorf("goroutine %d read %d: Map alignments differ from a serial run", g, i)
					}
				}
				return
			}
			got, err := sm.ScatterShards(ctx, reads, all, 2)
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(got, wantScatter) {
				t.Errorf("goroutine %d: ScatterShards differs from a serial run", g)
			}
		}()
	}
	wg.Wait()
	if st, _ := sm.Set().Snapshot(); st.Resident < 1 {
		t.Fatalf("no shards resident after mapping: %+v", st)
	}
}

func TestNewErrors(t *testing.T) {
	ref := testGenome(t, 10000, 701)
	cfg := smallConfig()
	if _, err := New(nil, cfg, Config{Shards: 2}); err == nil {
		t.Error("empty reference should error")
	}
	if _, err := New(ref, cfg, Config{}); err == nil {
		t.Error("zero shard count should error")
	}
	bad := cfg
	bad.SeedN = 0
	if _, err := New(ref, bad, Config{Shards: 2}); err == nil {
		t.Error("N=0 should error")
	}
	bad = cfg
	bad.GACT.T = 0
	if _, err := New(ref, bad, Config{Shards: 2}); err == nil {
		t.Error("invalid GACT config should error at construction")
	}
}
