package shard

import (
	"context"
	"reflect"
	"testing"

	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/genome"
	"darwin/internal/obs"
	"darwin/internal/readsim"
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
		refLen, count, size, overlap int
	}{
		{100000, 4, 0, 0},
		{100000, 1, 0, 0},
		{100000, 0, 30000, 0},
		{100000, 7, 0, 5000},
		{131072, 4, 0, 0}, // exact multiple
		{999, 3, 0, 0},    // shorter than one bin per shard
	}
	for _, c := range cases {
		g, err := Partition(c.refLen, c.count, c.size, c.overlap, minOv, cfg.BinSize)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		if g.Overlap < minOv || g.Overlap%cfg.BinSize != 0 {
			t.Fatalf("%+v: overlap %d below minimum %d or unaligned", c, g.Overlap, minOv)
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
	if _, err := Partition(0, 2, 0, 0, 0, 128); err == nil {
		t.Error("zero reference length should error")
	}
	if _, err := Partition(1000, 2, 500, 0, 0, 128); err == nil {
		t.Error("count and size together should error")
	}
	if _, err := Partition(1000, 0, 0, 0, 0, 128); err == nil {
		t.Error("neither count nor size should error")
	}
	if _, err := Partition(1000, 2, 0, 0, 0, 100); err == nil {
		t.Error("non-power-of-two bin size should error")
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
// and 7 — including candidate counts and MaxCandidates truncation.
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
	for _, shards := range shardCounts {
		sm, err := New(ref, cfg, Config{Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		reads := boundaryReads(t, ref, sm.Set().Geometry())
		want, err := mono.Map(context.Background(), reads, core.WithWorkers(4))
		if err != nil {
			t.Fatal(err)
		}
		got, err := sm.Map(context.Background(), reads, core.WithWorkers(4))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d results, want %d", shards, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i].Alignments, want[i].Alignments) {
				t.Errorf("shards=%d read %d: alignments diverge from monolithic engine\n got: %+v\nwant: %+v",
					shards, i, got[i].Alignments, want[i].Alignments)
			}
			g, w := got[i].Stats, want[i].Stats
			if g.Candidates != w.Candidates || g.PassedHTile != w.PassedHTile ||
				g.Tiles != w.Tiles || g.Cells != w.Cells {
				t.Errorf("shards=%d read %d: work stats diverge: got {cand %d pass %d tiles %d cells %d}, want {%d %d %d %d}",
					shards, i, g.Candidates, g.PassedHTile, g.Tiles, g.Cells,
					w.Candidates, w.PassedHTile, w.Tiles, w.Cells)
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

// TestMapReadMatchesMap checks the single-read surface agrees with
// the batch surface and the monolithic engine.
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
		gotAlns, gotStats := sm.MapRead(r)
		if !reflect.DeepEqual(gotAlns, wantAlns) {
			t.Errorf("read %d: MapRead alignments diverge", i)
		}
		if gotStats.Candidates != wantStats.Candidates {
			t.Errorf("read %d: candidates %d, want %d", i, gotStats.Candidates, wantStats.Candidates)
		}
	}
}

// TestCloneSharesBudget maps concurrently through clones and checks
// the shared set's residency accounting stays within budget.
func TestCloneSharesBudget(t *testing.T) {
	ref := testGenome(t, 80000, 601)
	cfg := smallConfig()
	sm, err := New(ref, cfg, Config{Shards: 4, MaxResidentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := sm.CloneMapper()
	if err != nil {
		t.Fatal(err)
	}
	if m2.(*ScatterMapper).Set() != sm.Set() {
		t.Fatal("clone does not share the shard set")
	}
	reads := boundaryReads(t, ref, sm.Set().Geometry())[:8]
	done := make(chan error, 2)
	for _, m := range []core.Mapper{sm, m2} {
		go func(m core.Mapper) {
			_, err := m.Map(context.Background(), reads, core.WithWorkers(2))
			done <- err
		}(m)
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
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
	if _, err := New(ref, cfg, Config{Shards: 2, ShardSize: 100}); err == nil {
		t.Error("count and size together should error")
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
