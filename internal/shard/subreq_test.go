package shard

import (
	"context"
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"darwin/internal/align"
	"darwin/internal/core"
)

// TestScatterShardsMergeBitIdentity is the distributed analog of
// TestBoundaryEquivalence: splitting a batch into per-shard-group
// sub-requests (as the cluster router does across workers), shipping
// each ReadScatter through its JSON wire form, and recombining with
// MergeReadScatters must be bit-identical to the monolithic engine —
// alignments and work stats — including when MaxCandidates truncation
// fires, which is the case the global-merge ordering exists for. Both
// layouts run: the whole-reference table (no budget), where a group of
// adjacent shards is one windowed pass, and per-shard tables (a budget
// at its floor).
func TestScatterShardsMergeBitIdentity(t *testing.T) {
	ref := testGenome(t, 120000, 201)
	for _, arm := range []struct{ maxCand, budget int }{{0, 0}, {6, 0}, {0, 1}, {6, 1}} {
		maxCand := arm.maxCand
		cfg := smallConfig()
		cfg.MaxCandidates = maxCand
		mono, err := core.New(ref, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sm, err := New(ref, cfg, Config{Shards: 4, MaxResidentBytes: int64(arm.budget)})
		if err != nil {
			t.Fatal(err)
		}
		reads := boundaryReads(t, ref, sm.Set().Geometry())
		want, err := mono.Map(context.Background(), reads, core.WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		// Three ways to carve 4 shards into disjoint worker-owned
		// groups; each group is its own ScatterShards call, as on its
		// own node.
		groupings := [][][]int{
			{{0}, {1}, {2}, {3}},
			{{0, 2}, {1, 3}},
			{{0, 1}, {2, 3}},
			{{0, 1, 2, 3}},
		}
		for _, groups := range groupings {
			parts := make([][]ReadScatter, len(groups))
			for gi, g := range groups {
				rs, err := sm.ScatterShards(context.Background(), reads, g, 2)
				if err != nil {
					t.Fatalf("max=%d budget=%d groups=%v: %v", maxCand, arm.budget, groups, err)
				}
				// Round-trip through the wire encoding so the test
				// covers exactly what crosses the network.
				raw, err := json.Marshal(rs)
				if err != nil {
					t.Fatal(err)
				}
				var decoded []ReadScatter
				if err := json.Unmarshal(raw, &decoded); err != nil {
					t.Fatal(err)
				}
				parts[gi] = decoded
			}
			for i := range reads {
				sub := make([]ReadScatter, len(groups))
				for gi := range groups {
					sub[gi] = parts[gi][i]
				}
				got, err := MergeReadScatters(cfg.MaxCandidates, sub)
				if err != nil {
					t.Fatalf("max=%d budget=%d groups=%v read %d: %v", maxCand, arm.budget, groups, i, err)
				}
				if got.Err != nil {
					t.Fatalf("max=%d budget=%d groups=%v read %d: %v", maxCand, arm.budget, groups, i, got.Err)
				}
				if !reflect.DeepEqual(got.Alignments, want[i].Alignments) {
					t.Errorf("max=%d budget=%d groups=%v read %d: alignments diverge from monolithic engine\n got: %+v\nwant: %+v",
						maxCand, arm.budget, groups, i, got.Alignments, want[i].Alignments)
				}
				g, w := got.Stats, want[i].Stats
				if g.Candidates != w.Candidates || g.PassedHTile != w.PassedHTile ||
					g.Tiles != w.Tiles || g.Cells != w.Cells ||
					!reflect.DeepEqual(g.FirstTileScores, w.FirstTileScores) {
					t.Errorf("max=%d budget=%d groups=%v read %d: merged stats diverge: got {cand %d pass %d tiles %d cells %d}, want {%d %d %d %d}",
						maxCand, arm.budget, groups, i, g.Candidates, g.PassedHTile, g.Tiles, g.Cells,
						w.Candidates, w.PassedHTile, w.Tiles, w.Cells)
				}
			}
		}
	}
}

// TestMergeReadScattersRejectsMalformed: a sub-response the merge
// cannot trust must fail it loudly — the same shard group's
// sub-response fed twice (a double-merge), rather than silently
// doubling candidates past the truncation limit, and an aligned
// candidate whose CIGAR disagrees with its spans or holds a run no
// align.Step can (past align.MaxRun), rather than reaching
// RecordsFor as a SAM line whose CIGAR contradicts its POS and clips.
func TestMergeReadScattersRejectsMalformed(t *testing.T) {
	ref := testGenome(t, 60000, 77)
	cfg := smallConfig()
	sm, err := New(ref, cfg, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	reads := boundaryReads(t, ref, sm.Set().Geometry())
	rs, err := sm.ScatterShards(context.Background(), reads[:1], []int{0, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	strand, k := -1, -1
	for s, cs := range rs[0].Strand {
		for i, c := range cs {
			if c.Aligned && strand < 0 {
				strand, k = s, i
			}
		}
	}
	if strand < 0 {
		t.Fatal("test needs a read with an aligned candidate")
	}
	if _, err := MergeReadScatters(0, rs[:1]); err != nil {
		t.Fatalf("well-formed sub-response: %v", err)
	}
	// edited returns the sub-response with its aligned candidate changed
	// by edit, leaving rs untouched.
	edited := func(edit func(*CandExt)) []ReadScatter {
		p := rs[0]
		p.Strand[strand] = slices.Clone(p.Strand[strand])
		edit(&p.Strand[strand][k])
		return []ReadScatter{p}
	}
	for _, tc := range []struct {
		name  string
		parts []ReadScatter
	}{
		{"duplicate-sub-response", []ReadScatter{rs[0], rs[0]}},
		{"ref-span-longer-than-cigar", edited(func(c *CandExt) { c.RefEnd++ })},
		{"query-span-shorter-than-cigar", edited(func(c *CandExt) { c.QueryEnd-- })},
		{"reversed-ref-span", edited(func(c *CandExt) { c.RefStart, c.RefEnd = c.RefEnd, c.RefStart })},
		{"run-past-MaxRun", edited(func(c *CandExt) {
			c.Cigar = "1073741824M"
			c.RefEnd = c.RefStart + align.MaxRun + 1
			c.QueryEnd = c.QueryStart + align.MaxRun + 1
		})},
		{"negative-query-span", edited(func(c *CandExt) {
			d := c.QueryEnd + 1
			c.QueryStart -= d
			c.QueryEnd -= d
		})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := MergeReadScatters(0, tc.parts); err == nil {
				t.Error("malformed sub-response merged without error")
			}
		})
	}
}

// TestScatterShardsValidation: out-of-range and repeated shard IDs are
// batch-level errors, and a read-level failure string poisons only the
// merge of that read.
func TestScatterShardsValidation(t *testing.T) {
	ref := testGenome(t, 60000, 78)
	cfg := smallConfig()
	sm, err := New(ref, cfg, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	reads := boundaryReads(t, ref, sm.Set().Geometry())[:1]
	if _, err := sm.ScatterShards(context.Background(), reads, []int{2}, 1); err == nil {
		t.Error("out-of-range shard accepted")
	}
	if _, err := sm.ScatterShards(context.Background(), reads, []int{0, 0}, 1); err == nil {
		t.Error("duplicate shard ID accepted")
	}
	res, err := MergeReadScatters(0, []ReadScatter{{Read: 3, Err: "boom"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == nil || res.Index != 3 {
		t.Errorf("poisoned read not surfaced: %+v", res)
	}
}
