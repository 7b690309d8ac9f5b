package align

import (
	"testing"

	"darwin/internal/dna"
)

// FuzzMaxCell drives arbitrary tiles (canonicalized onto ACGTN) and
// linear scorings — gap 0, asymmetric W, and scores past the vector
// table's ±127 included — through maxCell as production runs it, and
// holds its (maxScore, maxI, maxJ) to the scalar pass and to the
// reference fillLocal. On amd64 with AVX2 that is the vector pass
// against its oracle; under purego or elsewhere, the scalar pass alone.
func FuzzMaxCell(f *testing.F) {
	f.Add([]byte("ACGTACGTNNACGTAC"), []byte("CGTACGNTACG"), uint8(0), uint8(0), uint8(1), uint8(6), int8(-3))
	f.Add([]byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"), []byte("AAAAAAAAAAAAAAAAA"), uint8(1), uint8(1), uint8(0), uint8(0), int8(1))
	f.Fuzz(func(t *testing.T, refB, queryB []byte, match, mismatch, gap, at uint8, w int8) {
		const maxLen = 400 // GACT's tile side, and the oracle's matrix stays small
		if len(refB) == 0 || len(queryB) == 0 || len(refB) > maxLen || len(queryB) > maxLen {
			t.Skip()
		}
		sc := Simple(1+int(match)%140, int(mismatch)%140, int(gap)%8)
		sc.W[at>>2&3][at&3] = int(w)
		ta, err := NewTileAligner(&sc)
		if err != nil {
			t.Skip() // w cleared every positive match
		}
		ref, query := canonSeq(refB), canonSeq(queryB)
		rc, qc := dna.AppendCodes(nil, ref), dna.AppendCodes(nil, query)
		ta.grow(len(rc)+1, len(qc)+1)

		ta.maxCell(rc, qc, true)
		got := [3]int{int(ta.maxScore), ta.maxI, ta.maxJ}
		ta.maxCellScalar(rc, qc, true)
		scalar := [3]int{int(ta.maxScore), ta.maxI, ta.maxJ}
		want := fillLocal(ref, query, &sc)
		if oracle := [3]int{want.maxScore, want.maxI, want.maxJ}; got != oracle || scalar != oracle {
			t.Errorf("%d×%d tile, %+v (vector pass %v): maxCell %v, scalar %v, fillLocal %v\nref   %s\nquery %s",
				len(rc), len(qc), sc, ta.vectorOK(len(rc), len(qc)), got, scalar, oracle, ref, query)
		}
	})
}
