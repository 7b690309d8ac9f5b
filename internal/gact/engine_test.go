package gact

import (
	"math/rand"
	"reflect"
	"testing"

	"darwin/internal/align"
	"darwin/internal/dna"
	"darwin/internal/obs"
	"darwin/internal/readsim"
)

// extendEqual asserts the Engine produced exactly what the free
// function produced: same accept/reject decision, same Result (cigar
// included), same Stats.
func extendEqual(t *testing.T, label string, res *align.Result, stats Stats, wantRes *align.Result, wantStats *Stats) {
	t.Helper()
	if (res == nil) != (wantRes == nil) {
		t.Fatalf("%s: accept/reject mismatch: engine %v, reference %v", label, res != nil, wantRes != nil)
	}
	if wantRes != nil && !reflect.DeepEqual(*res, *wantRes) {
		t.Fatalf("%s: result mismatch:\nengine    %+v\nreference %+v", label, *res, *wantRes)
	}
	if !reflect.DeepEqual(stats, *wantStats) {
		t.Fatalf("%s: stats mismatch: engine %+v, reference %+v", label, stats, *wantStats)
	}
}

// TestEngineMatchesExtend is the end-to-end equivalence property: over
// random configurations — including a first tile the size of the
// extension tiles, the h_tile filter, both read orientations, and
// repeated reuse of one engine — Engine.Extend must be bit-identical to
// the free function Extend.
func TestEngineMatchesExtend(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 12; trial++ {
		cfg := DefaultConfig()
		switch trial % 4 {
		case 1:
			cfg = Config{T: 64 + rng.Intn(128), O: 16 + rng.Intn(32), Scoring: cfg.Scoring}
		case 2:
			cfg.FirstTileT = 0
		case 3:
			cfg.MinFirstTile = 50 + rng.Intn(200)
		}
		engine, err := NewEngine(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		profile := readsim.Profiles[trial%len(readsim.Profiles)]
		for rep := 0; rep < 4; rep++ {
			ref, query, iSeed, jSeed := simPair(t, 1000+rng.Intn(1500), profile, int64(500+trial*10+rep))
			// Jitter the anchor so some candidates reject.
			if rep%2 == 1 {
				iSeed = rng.Intn(len(ref))
				jSeed = rng.Intn(len(query) / 2)
			}
			wantRes, wantStats, wantErr := Extend(ref, query, iSeed, jSeed, &cfg)
			gotRes, gotStats, gotErr := engine.Extend(ref, query, iSeed, jSeed)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("trial %d rep %d: error mismatch: engine %v, reference %v", trial, rep, gotErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			extendEqual(t, "trial", gotRes, gotStats, wantRes, wantStats)
		}
	}
}

// A rejected candidate must not leave state behind that changes the
// next candidate's result (the engine's whole point is reuse).
func TestEngineReuseAfterReject(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinFirstTile = 90
	engine, err := NewEngine(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, query, iSeed, jSeed := simPair(t, 2000, readsim.PacBio, 901)
	rng := rand.New(rand.NewSource(902))
	junk := dna.Random(rng, len(query), 0.5)

	want, wantStats, err := Extend(ref, query, iSeed, jSeed, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave junk (rejected) candidates with the real one.
	for i := 0; i < 3; i++ {
		if res, _, err := engine.Extend(ref, junk, iSeed, 0); err != nil || res != nil {
			t.Fatalf("junk candidate: res=%v err=%v, want rejection", res, err)
		}
		got, gotStats, err := engine.Extend(ref, query, iSeed, jSeed)
		if err != nil {
			t.Fatal(err)
		}
		extendEqual(t, "after reject", got, gotStats, want, wantStats)
	}
}

// Engine must reject out-of-range anchors exactly like Extend.
func TestEngineErrors(t *testing.T) {
	cfg := DefaultConfig()
	engine, err := NewEngine(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	seq := dna.Random(rng, 100, 0.5)
	for _, pos := range [][2]int{{-1, 0}, {0, -1}, {100, 0}, {0, 100}} {
		if _, _, err := engine.Extend(seq, seq, pos[0], pos[1]); err == nil {
			t.Errorf("anchor %v should error", pos)
		}
	}
	bad := DefaultConfig()
	bad.T = 0
	if _, err := NewEngine(&bad); err == nil {
		t.Error("NewEngine should reject an invalid config")
	}
}

// The kernel-tier counters partition the tiles: every tile Engine.Extend
// runs — a first tile rejected on its score pass, one refilled in a
// band, an extension tile on either tier — lands in exactly one of
// gact/tile_bitvector and gact/tile_lut (the bench derives
// align.bitvector_share from the two), and a rejected candidate is one
// LUT tile whose filled cells are the tile's area.
func TestKernelCountersPartitionTiles(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinFirstTile = 90
	engine, err := NewEngine(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, query, iSeed, jSeed := simPair(t, 3000, readsim.PacBio, 907)
	junk := dna.Random(rand.New(rand.NewSource(908)), 1000, 0.5)

	before := obs.Default.Snapshot()
	res, _, err := engine.Extend(ref, junk, iSeed, 0)
	if err != nil || res != nil {
		t.Fatalf("junk candidate: res=%v err=%v, want rejection", res, err)
	}
	d := obs.Default.Snapshot().Sub(before).Counters
	if d["gact/tiles"] != 1 || d["gact/tile_lut"] != 1 || d["gact/tile_bitvector"] != 0 || d["gact/htile_rejects"] != 1 ||
		d["gact/cells_lut"] != d["gact/cells"] || d["gact/cells"] != 384*384 {
		t.Errorf("rejected candidate counted %v, want one LUT tile of 384² cells", d)
	}

	before = obs.Default.Snapshot()
	for i := 0; i < 3; i++ {
		if res, _, err := engine.Extend(ref, query, iSeed, jSeed); err != nil || res == nil {
			t.Fatalf("true candidate: res=%v err=%v, want an alignment", res, err)
		}
		if _, _, err := engine.Extend(ref, junk, iSeed+i, 0); err != nil {
			t.Fatal(err)
		}
	}
	diff := obs.Default.Snapshot().Sub(before)
	d = diff.Counters
	if d["gact/tile_bitvector"] == 0 || d["gact/tile_bitvector"]+d["gact/tile_lut"] != d["gact/tiles"] {
		t.Errorf("tile_bitvector %d + tile_lut %d != tiles %d", d["gact/tile_bitvector"], d["gact/tile_lut"], d["gact/tiles"])
	}
	if ft, rej := diff.Timers["gact/first_tile"], diff.Timers["gact/first_tile_reject"]; ft.Count != 6 || rej.Count != 3 || rej.Seconds <= 0 || rej.Seconds >= ft.Seconds {
		t.Errorf("first_tile %+v, first_tile_reject %+v: want 6 first tiles, 3 of them rejected, taking part of the time", ft, rej)
	}
}

// The default (auto) engine must actually route high-identity
// extension tiles through the bitvector tier, a KernelLUT engine must
// never, and validate must reject out-of-range kernel settings. The
// bit-identity of the tiers themselves is TestEngineMatchesExtend's
// job (the free Extend uses the reference AlignTile).
func TestEngineKernelTier(t *testing.T) {
	cfg := DefaultConfig()
	engine, err := NewEngine(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, query, iSeed, jSeed := simPair(t, 4000, readsim.PacBio, 314)
	if _, _, err := engine.Extend(ref, query, iSeed, jSeed); err != nil {
		t.Fatal(err)
	}
	ks := engine.KernelStats()
	if ks.BitvectorTiles == 0 {
		t.Errorf("auto engine took the bitvector path 0 times: %+v", ks)
	}

	cfg.Kernel = align.KernelLUT
	lutEng, err := NewEngine(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := lutEng.Extend(ref, query, iSeed, jSeed); err != nil {
		t.Fatal(err)
	}
	if ks := lutEng.KernelStats(); ks.BitvectorTiles != 0 || ks.LUTTiles == 0 {
		t.Errorf("lut engine stats %+v, want pure LUT", ks)
	}

	bad := DefaultConfig()
	bad.Kernel = align.KernelBitvector + 1
	if _, err := NewEngine(&bad); err == nil {
		t.Error("NewEngine should reject an unknown kernel mode")
	}
	bad = DefaultConfig()
	bad.KernelDivergence = -1
	if _, err := NewEngine(&bad); err == nil {
		t.Error("NewEngine should reject a negative kernel divergence")
	}
}
