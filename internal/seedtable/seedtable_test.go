package seedtable

import (
	"math/rand"
	"testing"

	"darwin/internal/dna"
)

// refLookup is a brute-force oracle: all positions where the k-mer at
// that position equals the query seed.
func refLookup(ref dna.Seq, k int, code uint32) []uint32 {
	var out []uint32
	for i := 0; i+k <= len(ref); i++ {
		c, ok := dna.PackSeed(ref, i, k)
		if ok && c == code {
			out = append(out, uint32(i))
		}
	}
	return out
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPaperFigure3Example(t *testing.T) {
	// The reference and k=3 example of Figure 3:
	// TACGCGTAGCCATATCACCTAGACTAG — 'TAG' hits at 6, 19, 24.
	ref := dna.NewSeq("TACGCGTAGCCATATCACCTAGACTAG")
	tab, err := Build(ref, 3, Options{NoMask: true})
	if err != nil {
		t.Fatal(err)
	}
	code, _ := dna.PackSeed(dna.NewSeq("TAG"), 0, 3)
	if got := tab.Lookup(code); !equalU32(got, []uint32{6, 19, 24}) {
		t.Errorf("TAG hits = %v, want [6 19 24]", got)
	}
	code, _ = dna.PackSeed(dna.NewSeq("TAC"), 0, 3)
	if got := tab.Lookup(code); !equalU32(got, []uint32{0, 19 + 6 - 6}) && !equalU32(got, refLookup(ref, 3, code)) {
		t.Errorf("TAC hits = %v, want oracle %v", got, refLookup(ref, 3, code))
	}
}

func TestLookupMatchesOracleDense(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ref := dna.Random(rng, 3000, 0.5)
	for _, k := range []int{1, 2, 4, 6} {
		tab, err := Build(ref, k, Options{NoMask: true})
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 200; trial++ {
			code := uint32(rng.Intn(dna.NumSeeds(k)))
			if got, want := tab.Lookup(code), refLookup(ref, k, code); !equalU32(got, want) {
				t.Fatalf("k=%d code=%d: got %v, want %v", k, code, got, want)
			}
		}
	}
}

func TestLookupMatchesOracleSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	ref := dna.Random(rng, 5000, 0.5)
	k := directLimit + 1 // force sparse mode
	tab, err := Build(ref, k, Options{NoMask: true})
	if err != nil {
		t.Fatal(err)
	}
	if tab.dir != nil {
		t.Fatal("expected sparse mode")
	}
	// Query seeds drawn from the reference (present) and random (mostly absent).
	for i := 0; i+k <= len(ref); i += 97 {
		code, ok := dna.PackSeed(ref, i, k)
		if !ok {
			continue
		}
		if got, want := tab.Lookup(code), refLookup(ref, k, code); !equalU32(got, want) {
			t.Fatalf("sparse lookup code=%d: got %v, want %v", code, got, want)
		}
	}
	for trial := 0; trial < 50; trial++ {
		code := rng.Uint32() & uint32(dna.NumSeeds(k)-1)
		if got, want := tab.Lookup(code), refLookup(ref, k, code); !equalU32(got, want) {
			t.Fatalf("sparse random code=%d: got %v, want %v", code, got, want)
		}
	}
}

func TestDenseSparseAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ref := dna.Random(rng, 4000, 0.5)
	const k = 8
	dense, err := Build(ref, k, Options{NoMask: true})
	if err != nil {
		t.Fatal(err)
	}
	sparse := build(ref, k, Options{NoMask: true}, false)
	for i := 0; i+k <= len(ref); i += 13 {
		code, ok := dna.PackSeed(ref, i, k)
		if !ok {
			continue
		}
		if !equalU32(dense.Lookup(code), sparse.Lookup(code)) {
			t.Fatalf("dense/sparse disagree for code %d", code)
		}
	}
}

func TestNSkipped(t *testing.T) {
	ref := dna.NewSeq("ACGTNACGT")
	tab, err := Build(ref, 4, Options{NoMask: true})
	if err != nil {
		t.Fatal(err)
	}
	code, _ := dna.PackSeed(dna.NewSeq("ACGT"), 0, 4)
	// Windows overlapping the N (positions 1..4) must be absent; only
	// positions 0 and 5 have valid ACGT windows.
	if got := tab.Lookup(code); !equalU32(got, []uint32{0, 5}) {
		t.Errorf("ACGT hits = %v, want [0 5]", got)
	}
	if tab.Positions() != 2 {
		t.Errorf("total positions = %d, want 2 (N windows skipped)", tab.Positions())
	}
}

func TestMasking(t *testing.T) {
	// A tandem repeat makes one seed extremely frequent.
	var ref dna.Seq
	for i := 0; i < 400; i++ {
		ref = append(ref, dna.NewSeq("ACGT")...)
	}
	rng := rand.New(rand.NewSource(24))
	ref = append(ref, dna.Random(rng, 1000, 0.5)...)
	const k = 4
	masked, err := Build(ref, k, Options{}) // threshold 32·2600/4^4 = 325 < 400
	if err != nil {
		t.Fatal(err)
	}
	if masked.MaskedSeeds() == 0 {
		t.Fatal("expected masked seeds")
	}
	code, _ := dna.PackSeed(dna.NewSeq("ACGT"), 0, k)
	if got := masked.Lookup(code); got != nil {
		t.Errorf("masked seed returned %d hits, want nil", len(got))
	}
	unmasked, err := Build(ref, k, Options{NoMask: true})
	if err != nil {
		t.Fatal(err)
	}
	if unmasked.MaskedSeeds() != 0 {
		t.Error("NoMask table reported masked seeds")
	}
	if got := unmasked.Lookup(code); len(got) < 400 {
		t.Errorf("unmasked ACGT hits = %d, want ≥ 400", len(got))
	}
	if masked.Positions()+masked.MaskedHits() != unmasked.Positions() {
		t.Errorf("masked positions %d + masked hits %d != unmasked %d",
			masked.Positions(), masked.MaskedHits(), unmasked.Positions())
	}
}

func TestLookupSeq(t *testing.T) {
	ref := dna.NewSeq("TACGCGTAGCCATATCACCTAGACTAG")
	tab, err := Build(ref, 3, Options{NoMask: true})
	if err != nil {
		t.Fatal(err)
	}
	q := dna.NewSeq("TTAGN")
	if got := tab.LookupSeq(q, 1); !equalU32(got, []uint32{6, 19, 24}) {
		t.Errorf("LookupSeq(TAG) = %v", got)
	}
	if got := tab.LookupSeq(q, 2); got != nil {
		t.Errorf("LookupSeq over N = %v, want nil", got)
	}
	if got := tab.LookupSeq(q, 4); got != nil {
		t.Errorf("LookupSeq past end = %v, want nil", got)
	}
}

func TestBuildErrors(t *testing.T) {
	ref := dna.NewSeq("ACGT")
	if _, err := Build(ref, 0, Options{}); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := Build(ref, dna.MaxSeedSize+1, Options{}); err == nil {
		t.Error("k too large should error")
	}
	if _, err := Build(ref, 5, Options{}); err == nil {
		t.Error("ref shorter than k should error")
	}
}

func TestHitsPerSeedMonotone(t *testing.T) {
	// hits/seed must decrease as k grows (paper Table 3 trend).
	rng := rand.New(rand.NewSource(25))
	ref := dna.Random(rng, 100000, 0.5)
	prev := -1.0
	for _, k := range []int{4, 6, 8, 10} {
		tab, err := Build(ref, k, Options{NoMask: true})
		if err != nil {
			t.Fatal(err)
		}
		hps := tab.Stats().HitsPerSeed
		if prev > 0 && hps >= prev {
			t.Errorf("hits/seed not decreasing: k=%d gives %.2f, previous %.2f", k, hps, prev)
		}
		prev = hps
	}
}

func TestStatsBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	ref := dna.Random(rng, 10000, 0.5)
	tab, err := Build(ref, 8, Options{NoMask: true})
	if err != nil {
		t.Fatal(err)
	}
	// A k = 8 directory is 4^8/32 words of 8 bytes; start has one entry
	// per distinct seed plus the end.
	st := tab.Stats()
	distinct := map[uint32]bool{}
	for i := 0; i+8 <= len(ref); i++ {
		code, _ := dna.PackSeed(ref, i, 8)
		distinct[code] = true
	}
	if want := int64(dna.NumSeeds(8)/32)*8 + int64(len(distinct)+1)*4; st.PointerBytes != want {
		t.Errorf("pointer bytes = %d, want %d", st.PointerBytes, want)
	}
	if st.PositionByte != int64(st.Positions)*4 {
		t.Errorf("position bytes = %d", st.PositionByte)
	}
}
