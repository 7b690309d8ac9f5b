package seedtable

import (
	"math/rand"
	"testing"

	"darwin/internal/dna"
)

// testRef builds a repetitive reference with N gaps so masking and
// the rolling pack's resets both engage.
func testRef(t *testing.T, n int, seed int64) dna.Seq {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ref := dna.Random(rng, n, 0.45)
	// Plant a high-frequency repeat so the mask threshold trips.
	motif := ref[:40].Clone()
	for i := 0; i < 60; i++ {
		p := rng.Intn(n - len(motif))
		copy(ref[p:], motif)
	}
	for i := 0; i < n/200; i++ {
		ref[rng.Intn(n)] = 'N'
	}
	return ref
}

// rangeEquiv checks that BuildRange with a global mask stores exactly
// the whole-reference hit lists restricted to the window.
func rangeEquiv(t *testing.T, ref dna.Seq, k int, opts Options, start, end int) {
	t.Helper()
	mask, err := ComputeMask(ref, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	global, err := Build(ref, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	ropts := opts
	ropts.Mask = mask
	sub, err := BuildRange(ref, start, end, k, ropts)
	if err != nil {
		t.Fatal(err)
	}
	if sub.RefLen() != end-start {
		t.Fatalf("RefLen = %d, want window length %d", sub.RefLen(), end-start)
	}
	for code := 0; code < dna.NumSeeds(k); code++ {
		var want []uint32
		for _, h := range global.Lookup(uint32(code)) {
			if int(h) >= start && int(h) <= end-k {
				want = append(want, h-uint32(start))
			}
		}
		got := sub.Lookup(uint32(code))
		if len(got) != len(want) {
			t.Fatalf("code %d: %d hits in window table, want %d (window [%d,%d))",
				code, len(got), len(want), start, end)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("code %d hit %d: got %d, want %d", code, i, got[i], want[i])
			}
		}
	}
}

func TestBuildRangeMatchesGlobal(t *testing.T) {
	ref := testRef(t, 6000, 11)
	var opts Options
	for _, win := range [][2]int{{0, 2048}, {1024, 3072}, {2048, 6000}, {5000, 6000}} {
		rangeEquiv(t, ref, 7, opts, win[0], win[1])
	}
}

func TestBuildRangeMatchesGlobalSparse(t *testing.T) {
	// k > directLimit exercises the sparse build and sparse ComputeMask.
	ref := testRef(t, 4000, 17)
	rangeEquiv(t, ref, directLimit+1, Options{}, 1024, 3000)
}

func TestComputeMaskMatchesBuild(t *testing.T) {
	ref := testRef(t, 6000, 19)
	var opts Options
	mask, err := ComputeMask(ref, 7, opts)
	if err != nil {
		t.Fatal(err)
	}
	global, err := Build(ref, 7, opts)
	if err != nil {
		t.Fatal(err)
	}
	if mask.Threshold() != global.MaskThreshold() {
		t.Fatalf("mask threshold %d != build threshold %d", mask.Threshold(), global.MaskThreshold())
	}
	if mask.Len() != global.MaskedSeeds() {
		t.Fatalf("mask has %d codes, build masked %d seeds", mask.Len(), global.MaskedSeeds())
	}
	if mask.Len() == 0 {
		t.Fatal("test reference produced no masked seeds; repeat planting failed")
	}
	for code := 0; code < dna.NumSeeds(7); code++ {
		if mask.Masked(uint32(code)) && global.Lookup(uint32(code)) != nil {
			t.Fatalf("code %d masked in set but present in table", code)
		}
	}
	// Building with the precomputed mask must reproduce the plain build.
	mopts := opts
	mopts.Mask = mask
	masked, err := Build(ref, 7, mopts)
	if err != nil {
		t.Fatal(err)
	}
	if masked.Positions() != global.Positions() || masked.MaskedSeeds() != global.MaskedSeeds() {
		t.Fatalf("mask-set build: %d positions/%d masked, want %d/%d",
			masked.Positions(), masked.MaskedSeeds(), global.Positions(), global.MaskedSeeds())
	}
}

func TestTableBytes(t *testing.T) {
	ref := testRef(t, 4000, 23)
	tab, err := Build(ref, 7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Directory words, one start entry per stored seed plus the end, and
	// the positions: 8·4^k/32 + 4·(D+1) + 4·P bytes.
	stored := 0
	for code := 0; code < dna.NumSeeds(7); code++ {
		if tab.Lookup(uint32(code)) != nil {
			stored++
		}
	}
	want := int64(dna.NumSeeds(7)/32)*8 + int64(stored+1)*4 + int64(tab.Positions())*4
	if got := tab.Bytes(); got != want || got <= 0 {
		t.Fatalf("Bytes() = %d, want %d", got, want)
	}
	sparse := build(ref, 7, Options{}, false)
	if got, want := sparse.Bytes(), int64(stored)*4+int64(stored+1)*4+int64(tab.Positions())*4; got != want {
		t.Fatalf("sparse Bytes() = %d, want %d", got, want)
	}
}
