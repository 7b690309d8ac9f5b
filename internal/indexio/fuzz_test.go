package indexio

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/dsoft"
	"darwin/internal/genome"
	"darwin/internal/indexfile"
	"darwin/internal/readsim"
	"darwin/internal/shard"
)

// mapPathsCase is one FuzzMapPaths input decoded into engine parameters,
// a shard layout, a grouping of shards into cluster workers, and reads.
type mapPathsCase struct {
	cfg    core.Config
	shards int
	groups [][]int
	recs   []dna.Record
	reads  []dna.Seq
	// wcfg and wspec write the cross-parameter arm's file.
	wcfg  core.Config
	wspec core.ShardSpec
}

// decodeMapPaths turns fuzz bytes into a case: k over 9–14 (both rank
// layouts), N, h, h_tile, B ∈ {64, 128, 256}, MaxCandidates ∈ {0, 3,
// 256}, (T, O), 1–7 shards dealt to 1–3 workers, and reads of one
// profile (exact, PacBio or ONT_1D) that include both strands of every
// core boundary.
func decodeMapPaths(t *testing.T, seed int64, k, n, h, htile, b, maxCand, tile, shards, workers, profile, other uint8) *mapPathsCase {
	c := &mapPathsCase{}
	c.cfg = core.DefaultConfig(9+int(k)%6, 20+int(n)%8*40, 10+int(h)%24)
	c.cfg.BinSize = []int{64, 128, 256}[b%3]
	c.cfg.HTile = []int{0, 40, 90}[htile%3]
	c.cfg.MaxCandidates = []int{0, 3, 256}[maxCand%3]
	tiles := [][2]int{{320, 128}, {256, 64}, {128, 32}}[tile%3]
	c.cfg.GACT.T, c.cfg.GACT.O = tiles[0], tiles[1]
	c.shards = 1 + int(shards)%7

	rng := rand.New(rand.NewSource(seed))
	g, err := genome.Generate(genome.Config{
		Length: 24_000 + rng.Intn(16_000), GC: 0.45, RepeatFraction: 0.25, RepeatFamilies: 3,
		RepeatUnitLen: 400, RepeatDivergence: 0.05, TandemFraction: 0.1, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.recs = []dna.Record{{Name: "chr1", Seq: g.Seq}, {Name: "chr2", Seq: dna.Random(rng, 3_000+rng.Intn(6_000), 0.5)}}

	// Deal a shuffled shard list round-robin to the workers, so groups
	// interleave as rendezvous hashing makes them.
	perm := rng.Perm(c.shards)
	c.groups = make([][]int, min(1+int(workers)%3, c.shards))
	for i, id := range perm {
		c.groups[i%len(c.groups)] = append(c.groups[i%len(c.groups)], id)
	}
	for _, grp := range c.groups {
		slices.Sort(grp)
	}

	ref, err := core.NewReference(c.recs, c.cfg.BinSize)
	if err != nil {
		t.Fatal(err)
	}
	seq := ref.Seq()
	geo, err := shard.Partition(len(seq), c.shards, shard.MinOverlap(c.cfg), c.cfg.BinSize)
	if err != nil {
		t.Fatal(err)
	}
	const half = 700
	for _, p := range geo.Parts[1:] {
		lo, hi := max(p.Core.Start-half, 0), min(p.Core.Start+half, len(seq))
		c.reads = append(c.reads, seq[lo:hi], dna.RevComp(seq[lo:hi]))
	}
	if prof := profile % 3; prof > 0 {
		sim, err := readsim.SimulateN(seq, 4, readsim.Config{
			Profile: []readsim.Profile{readsim.PacBio, readsim.ONT1D}[prof-1], MeanLen: 1500, Seed: seed + 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range sim {
			c.reads = append(c.reads, r.Seq)
		}
	}

	// The cross-parameter arm's writer differs in N, and by other's
	// choice in k or B too, with its own default shard count.
	c.wcfg = c.cfg
	c.wcfg.SeedN = 20 + int(other)%5*90
	switch other / 5 % 4 {
	case 1:
		c.wcfg.SeedK = 9 + (int(k)+1)%6
	case 2:
		c.wcfg.BinSize = []int{64, 128, 256}[(b+1)%3]
	}
	c.wspec = core.ShardSpec{Shards: int(other) % 6}
	return c
}

// mapWork is a read's results reduced to what every mapping path must
// agree on: alignments, and MapStats without wall-clock time.
type mapWork struct {
	Alignments []core.ReadAlignment
	Stats      core.MapStats
	Err        string
}

func workOf(r core.MapResult, dsoftToo bool) mapWork {
	w := mapWork{Alignments: r.Alignments, Stats: r.Stats}
	if len(w.Alignments) == 0 {
		w.Alignments = nil
	}
	w.Stats.FiltrationTime, w.Stats.AlignmentTime = 0, 0
	if len(w.Stats.FirstTileScores) == 0 {
		w.Stats.FirstTileScores = nil
	}
	if !dsoftToo {
		w.Stats.DSOFT = dsoft.Stats{}
	}
	if r.Err != nil {
		w.Err = r.Err.Error()
	}
	return w
}

// FuzzMapPaths is the equality web as one property: the monolith, the
// sharded engine with no budget, ScatterShards per worker group sent
// through the wire types and merged, and an engine opened from a .dwi
// all produce the same alignments and the same work stats — D-SOFT's
// counters included, since a shard set with no budget runs the
// monolith's D-SOFT pass (the merge carries none; its D-SOFT stats
// stay zero). A budgeted set (per-shard tables) must produce the same
// alignments. A file written under other parameters is refused as
// geometry_mismatch or maps as the monolith at the opening parameters.
func FuzzMapPaths(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(3), uint8(10), uint8(2), uint8(1), uint8(2), uint8(0), uint8(3), uint8(1), uint8(1), uint8(0))
	f.Add(int64(2), uint8(0), uint8(7), uint8(4), uint8(0), uint8(0), uint8(1), uint8(2), uint8(6), uint8(2), uint8(2), uint8(9))
	f.Add(int64(3), uint8(3), uint8(1), uint8(20), uint8(1), uint8(2), uint8(0), uint8(1), uint8(4), uint8(0), uint8(0), uint8(13))
	f.Add(int64(4), uint8(5), uint8(5), uint8(0), uint8(2), uint8(1), uint8(1), uint8(1), uint8(5), uint8(1), uint8(2), uint8(17))
	f.Add(int64(5), uint8(4), uint8(2), uint8(14), uint8(0), uint8(2), uint8(2), uint8(0), uint8(1), uint8(2), uint8(1), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, k, n, h, htile, b, maxCand, tile, shards, workers, profile, other uint8) {
		c := decodeMapPaths(t, seed, k, n, h, htile, b, maxCand, tile, shards, workers, profile, other)
		ctx := context.Background()
		label := fmt.Sprintf("k=%d N=%d h=%d htile=%d B=%d max=%d T/O=%d/%d shards=%d groups=%v",
			c.cfg.SeedK, c.cfg.SeedN, c.cfg.Threshold, c.cfg.HTile, c.cfg.BinSize, c.cfg.MaxCandidates,
			c.cfg.GACT.T, c.cfg.GACT.O, c.shards, c.groups)

		mono, _, err := core.NewMulti(c.recs, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want, err := mono.Map(ctx, c.reads, core.WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		check := func(path string, got []core.MapResult, dsoftToo, statsToo bool) {
			t.Helper()
			for i := range want {
				g, w := workOf(got[i], dsoftToo), workOf(want[i], dsoftToo)
				if !statsToo {
					g.Stats, w.Stats = core.MapStats{}, core.MapStats{}
				}
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("%s: %s read %d differs from the monolith:\n got %+v\nwant %+v", label, path, i, g, w)
				}
			}
		}

		sm, _, err := shard.NewMulti(c.recs, c.cfg, shard.Config{Shards: c.shards})
		if err != nil {
			t.Fatal(err)
		}
		got, err := sm.Map(ctx, c.reads, core.WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		check("sharded Map", got, true, true)

		parts := make([][]shard.ReadScatter, len(c.groups))
		for gi, grp := range c.groups {
			rs, err := sm.ScatterShards(ctx, c.reads, grp, 2)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(rs)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(raw, &parts[gi]); err != nil {
				t.Fatal(err)
			}
		}
		merged := make([]core.MapResult, len(c.reads))
		for i := range merged {
			sub := make([]shard.ReadScatter, len(parts))
			for gi := range parts {
				sub[gi] = parts[gi][i]
			}
			if merged[i], err = shard.MergeReadScatters(c.cfg.MaxCandidates, sub); err != nil {
				t.Fatalf("%s: merging read %d: %v", label, i, err)
			}
		}
		check("ScatterShards + MergeReadScatters", merged, false, true)

		path := filepath.Join(t.TempDir(), "ref.dwi")
		if _, err := WriteFile(path, c.recs, c.cfg, core.ShardSpec{Shards: c.shards}); err != nil {
			t.Fatal(err)
		}
		l, err := OpenSource(Source{Index: path}, c.cfg, core.ShardSpec{})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		got, err = l.Mapper.Map(ctx, c.reads, core.WithWorkers(2))
		l.File.Close()
		if err != nil {
			t.Fatal(err)
		}
		check("OpenSource of a v4 file", got, true, true)

		budgeted, _, err := shard.NewMulti(c.recs, c.cfg, shard.Config{Shards: c.shards, MaxResidentBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		got, err = budgeted.Map(ctx, c.reads, core.WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		check("budgeted sharded Map", got, false, false)

		path = filepath.Join(t.TempDir(), "other.dwi")
		if _, err := WriteFile(path, c.recs, c.wcfg, c.wspec); err != nil {
			t.Fatal(err)
		}
		l, err = OpenSource(Source{Index: path}, c.cfg, core.ShardSpec{})
		if err != nil {
			if code := indexfile.ErrCode(err); code != indexfile.CodeGeometryMismatch {
				t.Fatalf("%s: a file written at k=%d N=%d B=%d: %v, want a map or %s",
					label, c.wcfg.SeedK, c.wcfg.SeedN, c.wcfg.BinSize, err, indexfile.CodeGeometryMismatch)
			}
			return
		}
		got, err = l.Mapper.Map(ctx, c.reads, core.WithWorkers(2))
		l.File.Close()
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("a file written at N=%d with %d default shards", c.wcfg.SeedN, c.wspec.Shards), got, true, true)
	})
}
