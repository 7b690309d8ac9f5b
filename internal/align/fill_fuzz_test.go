package align

import (
	"testing"

	"darwin/internal/dna"
)

// FuzzFill drives arbitrary tiles (canonicalized onto ACGTN) and linear
// scorings — gap 0, asymmetric W, and scores past the vector table's
// ±127 included — through the pointer fill as production runs it, and
// holds it to the scalar rows: on a full fill every pointer byte, H(n,
// m) and the cell count agree; and the tile API's extension, reversed
// and first tiles return the reference AlignTile's result in the
// fuzzed kernel mode, with the scalar aligner's KernelStats in the lut
// and bitvector modes (under auto, vector-eligible extension tiles
// certify a guessed band instead of running the bitvector tier). On amd64 with AVX2 that is the vector fill at
// every width the CPU has against its oracle, and so against each
// other; under purego or elsewhere, the scalar rows alone.
func FuzzFill(f *testing.F) {
	f.Add([]byte("ACGTACGTNNACGTACGGTACCATGACTTACGATCAG"), []byte("CGTACGNTACGATACCATGACTTAGCATCAG"), uint8(0), uint8(0), uint8(1), uint8(6), int8(-3), uint8(0), uint8(7))
	f.Add([]byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"), []byte("AAAAAAAAAAAAAAAAA"), uint8(1), uint8(1), uint8(0), uint8(0), int8(1), uint8(2), uint8(0))
	f.Fuzz(func(t *testing.T, refB, queryB []byte, match, mismatch, gap, at uint8, w int8, mode, maxOff uint8) {
		const maxLen = 400 // GACT's tile side, and the oracle's matrix stays small
		if len(refB) == 0 || len(queryB) == 0 || len(refB) > maxLen || len(queryB) > maxLen {
			t.Skip()
		}
		sc := Simple(1+int(match)%140, int(mismatch)%140, int(gap)%8)
		sc.W[at>>2&3][at&3] = int(w)
		tas, err := widthAligners(&sc)
		if err != nil {
			t.Skip() // w cleared every positive match
		}
		scalar, _ := NewTileAligner(&sc)
		scalar.vecSub = nil
		ref, query := canonSeq(refB), canonSeq(queryB)
		rc, qc := dna.AppendCodes(nil, ref), dna.AppendCodes(nil, query)
		n, m := len(rc), len(qc)
		scalar.loadCodes(rc, qc)
		wantCells, want := scalar.fill(n, m, -1, 1, false)
		km := KernelMode(mode % 3)
		scalar.SetKernel(km)
		off := int(maxOff)
		for _, ta := range tas {
			ta.loadCodes(rc, qc)
			gotCells, got := ta.fill(n, m, -1, 1, ta.vectorOK(n, m))
			if got != want || gotCells != wantCells {
				t.Fatalf("%d×%d tile, %+v (vector fill %v, %d lanes): H(n,m) %d over %d cells, scalar %d over %d",
					n, m, sc, ta.vectorOK(n, m), ta.width(), got, gotCells, want, wantCells)
			}
			for j := 1; j <= m; j++ {
				for i := 1; i <= n; i++ {
					if got, want := ta.ptr[ptrIndex(n, m, i, j)], scalar.ptr[ptrIndex(n, m, i, j)]; got != want {
						t.Fatalf("%d×%d tile, %+v (vector fill %v, %d lanes): ptr(%d,%d) = %04b, scalar %04b",
							n, m, sc, ta.vectorOK(n, m), ta.width(), i, j, got, want)
					}
				}
			}
		}

		// The tile calls refill scalar's pointers: after every width's
		// full fill.
		for _, ta := range tas {
			ta.SetKernel(km)
			for _, tc := range []struct {
				name     string
				first    bool
				reversed bool
			}{{"extension", false, false}, {"reversed", false, true}, {"first", true, false}, {"reversed first", true, true}} {
				r, q := ref, query
				if tc.reversed {
					r, q = dna.Reverse(ref), dna.Reverse(query)
				}
				want := walked(AlignTile(r, q, tc.first, off, &sc))
				run := (*TileAligner).AlignTile
				if tc.reversed {
					run = (*TileAligner).AlignTileReversed
				}
				vks, sks := ta.KernelStats(), scalar.KernelStats()
				got := run(ta, ref, query, tc.first, off)
				run(scalar, ref, query, tc.first, off)
				if d := tileContractDiff(got, want, tc.first); d != "" {
					t.Fatalf("%s %s tile %d×%d, %+v, maxOff %d, %d lanes: %s\n got %+v\nwant %+v", kernelName[km], tc.name, n, m, sc, off, ta.width(), d, got, want)
				}
				if km != KernelAuto || tc.first {
					if vks, sks = ta.KernelStats().since(vks), scalar.KernelStats().since(sks); vks != sks {
						t.Fatalf("%s %s tile %d×%d, %+v, %d lanes: stats %+v, scalar %+v", kernelName[km], tc.name, n, m, sc, ta.width(), vks, sks)
					}
				}
			}
		}
	})
}

// since is the stats' growth from then.
func (ks KernelStats) since(then KernelStats) KernelStats {
	return KernelStats{
		LUTTiles:       ks.LUTTiles - then.LUTTiles,
		LUTCells:       ks.LUTCells - then.LUTCells,
		BitvectorTiles: ks.BitvectorTiles - then.BitvectorTiles,
		BitvectorCells: ks.BitvectorCells - then.BitvectorCells,
		FallbackTiles:  ks.FallbackTiles - then.FallbackTiles,
	}
}
