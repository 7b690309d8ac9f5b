package seedtable

import (
	"slices"
	"testing"

	"darwin/internal/dna"
)

// fuzzKs are the seed sizes FuzzLookup draws from: every k a whole
// seed space can be swept at, and the first k of the sparse layout.
var fuzzKs = []int{1, 2, 3, 4, 5, 6, 7, 8, directLimit + 1}

// FuzzLookup checks both table layouts against a map-built oracle on a
// fuzzed reference (any bytes: lower case, N and IUPAC codes included)
// with no mask, the local mask, or a global mask computed over a wider
// reference than the window the table indexes. Every code's Lookup,
// and its Ranks + Hits from one batched rank pass, must equal the
// oracle's hit list, and MaskedSeeds, MaskedHits and Positions its
// tallies. Ranks must pass values ≥ Absent through unchanged.
func FuzzLookup(f *testing.F) {
	f.Add([]byte("TACGCGTAGCCATATCACCTAGACTAG"), uint8(2), uint8(0), uint16(0), uint16(0))
	f.Add([]byte("acgtNNacgtRYacgtACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTacgt"), uint8(3), uint8(1), uint16(0), uint16(0))
	f.Add([]byte("ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTTTGACCAGGATTACAGGCAT"), uint8(1), uint8(2), uint16(9), uint16(40))
	f.Add([]byte("GATTACAGATTACAGATTACAGATTACANGATTACAGATTACAGATTACAGATTACAGATTACA"), uint8(8), uint8(2), uint16(3), uint16(50))
	f.Add([]byte("CCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCC"), uint8(5), uint8(1), uint16(0), uint16(0))
	f.Fuzz(func(t *testing.T, ref []byte, kSel, mode uint8, lo, hi uint16) {
		if len(ref) > 4096 {
			ref = ref[:4096]
		}
		k := fuzzKs[int(kSel)%len(fuzzKs)]
		seq := dna.Seq(ref)
		var opts Options
		switch mode % 3 {
		case 0:
			opts.NoMask = true
		case 2:
			// A window [lo, hi) of the reference, masked by the whole
			// reference's counts.
			if len(ref) == 0 {
				return
			}
			a, b := int(lo)%len(ref), int(hi)%(len(ref)+1)
			if a > b {
				a, b = b, a
			}
			if b-a < k {
				return
			}
			mask, err := ComputeMask(seq, k, opts)
			if err != nil {
				t.Fatal(err)
			}
			oracleMask := maskOracle(counts(seq, k), max(32*len(seq)/dna.NumSeeds(k), 8))
			if got := mask.Codes(); !slices.Equal(got, oracleMask) {
				t.Fatalf("ComputeMask = %v, oracle %v", got, oracleMask)
			}
			opts.Mask = mask
			seq = seq[a:b]
		}
		if len(seq) < k {
			return
		}
		hits := counts(seq, k)
		var masked []uint32
		switch {
		case opts.Mask != nil:
			masked = opts.Mask.Codes()
		case !opts.NoMask:
			masked = maskOracle(hits, max(32*len(seq)/dna.NumSeeds(k), 8))
		}
		maskedSeeds, maskedHits, positions := 0, 0, 0
		for c, h := range hits {
			if _, drop := slices.BinarySearch(masked, c); drop {
				maskedSeeds++
				maskedHits += len(h)
				delete(hits, c)
				continue
			}
			positions += len(h)
		}

		// Every code of a small seed space; for the sparse k, the codes
		// present plus a spread of others.
		var codes []uint32
		if k <= 8 {
			for c := 0; c < dna.NumSeeds(k); c++ {
				codes = append(codes, uint32(c))
			}
		} else {
			for i := 0; i+k <= len(seq); i++ {
				if c, ok := dna.PackSeed(seq, i, k); ok {
					codes = append(codes, c, c^1)
				}
			}
			for c := 0; c < dna.NumSeeds(k); c += dna.NumSeeds(k)/97 + 1 {
				codes = append(codes, uint32(c))
			}
		}
		layouts := []bool{k <= directLimit}
		if k <= 8 {
			layouts = []bool{true, false}
		}
		for _, directory := range layouts {
			tab := build(seq, k, opts, directory)
			if tab.MaskedSeeds() != maskedSeeds || tab.MaskedHits() != maskedHits || tab.Positions() != positions {
				t.Fatalf("directory=%v: masked seeds/hits %d/%d, positions %d; oracle %d/%d, %d",
					directory, tab.MaskedSeeds(), tab.MaskedHits(), tab.Positions(), maskedSeeds, maskedHits, positions)
			}
			ranks := append(slices.Clone(codes), Absent, noSeed)
			tab.Ranks(ranks)
			if ranks[len(codes)] != Absent || ranks[len(codes)+1] != noSeed {
				t.Fatalf("directory=%v: Ranks rewrote Absent/noSeed to %d/%d", directory, ranks[len(codes)], ranks[len(codes)+1])
			}
			for i, c := range codes {
				want := hits[c]
				if got := tab.Lookup(c); !equalU32(got, want) {
					t.Fatalf("directory=%v k=%d: Lookup(%d) = %v, oracle %v", directory, k, c, got, want)
				}
				if got := tab.Hits(ranks[i]); !equalU32(got, want) {
					t.Fatalf("directory=%v k=%d: Hits(Ranks(%d)=%d) = %v, oracle %v", directory, k, c, ranks[i], got, want)
				}
				if (ranks[i] == Absent) != (want == nil) {
					t.Fatalf("directory=%v k=%d: code %d ranks %d with %d oracle hits", directory, k, c, ranks[i], len(want))
				}
			}
		}
	})
}

// counts is the oracle's occurrence list per code over seq.
func counts(seq dna.Seq, k int) map[uint32][]uint32 {
	out := map[uint32][]uint32{}
	for i := 0; i+k <= len(seq); i++ {
		if c, ok := dna.PackSeed(seq, i, k); ok {
			out[c] = append(out[c], uint32(i))
		}
	}
	return out
}

// maskOracle returns, ascending, the codes occurring more than
// threshold times.
func maskOracle(hits map[uint32][]uint32, threshold int) []uint32 {
	out := []uint32{}
	for c, h := range hits {
		if len(h) > threshold {
			out = append(out, c)
		}
	}
	slices.Sort(out)
	return out
}
