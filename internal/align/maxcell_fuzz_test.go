package align

import (
	"bytes"
	"fmt"
	"testing"

	"darwin/internal/dna"
)

// FuzzMaxCell drives arbitrary tiles (canonicalized onto ACGTN) and
// linear scorings — gap 0, asymmetric W, and scores past the vector
// table's ±127 included — through maxCell as production runs it, and
// holds its (maxScore, maxI, maxJ) to the scalar pass and to the
// reference fillLocal. On amd64 with AVX2 that is the vector pass at
// every width the CPU has against its oracle and each other; under
// purego or elsewhere, the scalar pass alone.
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
		tas, err := widthAligners(&sc)
		if err != nil {
			t.Skip() // w cleared every positive match
		}
		ref, query := canonSeq(refB), canonSeq(queryB)
		rc, qc := dna.AppendCodes(nil, ref), dna.AppendCodes(nil, query)
		want := fillLocal(ref, query, &sc)
		oracle := [3]int{want.maxScore, want.maxI, want.maxJ}
		for _, ta := range tas {
			ta.grow(len(rc)+1, len(qc)+1)
			ta.maxCell(rc, qc, true)
			got := [3]int{int(ta.maxScore), ta.maxI, ta.maxJ}
			ta.maxCellScalar(rc, qc, true)
			scalar := [3]int{int(ta.maxScore), ta.maxI, ta.maxJ}
			if got != oracle || scalar != oracle {
				t.Errorf("%d×%d tile, %+v (vector pass %v, %d lanes): maxCell %v, scalar %v, fillLocal %v\nref   %s\nquery %s",
					len(rc), len(qc), sc, ta.vectorOK(len(rc), len(qc)), ta.width(), got, scalar, oracle, ref, query)
			}
		}
	})
}

// widthAligners are an aligner for sc at each vector width the CPU has
// (laneWidths), or where it has none the one NewTileAligner returns.
func widthAligners(sc *Scoring) ([]*TileAligner, error) {
	widths := laneWidths()
	if len(widths) == 0 {
		widths = []int{0}
	}
	var tas []*TileAligner
	for _, w := range widths {
		ta, err := NewTileAligner(sc)
		if err != nil {
			return nil, err
		}
		if w > 0 {
			ta.setWidth(w)
		}
		tas = append(tas, ta)
	}
	return tas, nil
}

// laneWidths are the vector widths the CPU runs, widest first: on
// AVX-512BW 64 — the 32-lane kernels with byte lanes first wherever
// they hold the scores (the pointer fill, the score pass of every first
// tile), as production runs them — then 32 and 16, each narrower one
// the wider ones' oracle.
func laneWidths() []int {
	switch vectorLanes {
	case 32:
		return []int{64, 32, 16}
	case 16:
		return []int{16}
	}
	return nil
}

// FuzzFirstTile drives arbitrary tiles, linear scorings and h_tile
// thresholds (0–255: the int8 screen's 2–127 and both sides of it)
// through AlignFirstTile at every vector width the CPU has, and holds
// each result to an aligner kept to the scalar passes and its best cell
// to fillLocal's (firstTileDiff). On amd64 with AVX2 a threshold of
// 2–127 on a vector-eligible tile runs the screen; under purego or
// elsewhere, the scalar pass alone.
func FuzzFirstTile(f *testing.F) {
	f.Add([]byte("ACGTACGTNNACGTAC"), []byte("CGTACGNTACG"), uint8(0), uint8(0), uint8(1), uint8(6), int8(-3), uint8(90))
	f.Add(bytes.Repeat([]byte("ACGTTGCA"), 17), bytes.Repeat([]byte("ACGTTGCA"), 17), uint8(0), uint8(0), uint8(1), uint8(0), int8(1), uint8(127))
	f.Add(bytes.Repeat([]byte("N"), 70), []byte("ACGTACGTAC"), uint8(2), uint8(3), uint8(127), uint8(5), int8(127), uint8(2))
	f.Fuzz(func(t *testing.T, refB, queryB []byte, match, mismatch, gap, at uint8, w int8, minScore uint8) {
		const maxLen = 400
		if len(refB) == 0 || len(queryB) == 0 || len(refB) > maxLen || len(queryB) > maxLen {
			t.Skip()
		}
		sc := Simple(1+int(match)%140, int(mismatch)%140, int(gap)%200)
		sc.W[at>>2&3][at&3] = int(w)
		tas, err := widthAligners(&sc)
		if err != nil {
			t.Skip() // w cleared every positive match
		}
		scalar, _ := NewTileAligner(&sc)
		scalar.vecSub = nil
		ref, query := canonSeq(refB), canonSeq(queryB)
		if d := firstTileDiff(tas, scalar, ref, query, max(len(ref), len(query)), int(minScore)); d != "" {
			t.Errorf("%d×%d tile, %+v: %s\nref   %s\nquery %s", len(ref), len(query), sc, d, ref, query)
		}
	})
}

// firstTileDiff runs AlignFirstTile(ref, query, maxOff, minScore) at
// each threshold on each aligner of tas and on scalar, one kept to the
// scalar passes, and describes the first way a result departs from the
// scalar one, its (Score, MaxI, MaxJ) from fillLocal's best cell, or
// its path presence from the threshold; "" when none does.
func firstTileDiff(tas []*TileAligner, scalar *TileAligner, ref, query dna.Seq, maxOff int, thresholds ...int) string {
	want := fillLocal(ref, query, scalar.Scoring())
	oracle := [3]int{want.maxScore, want.maxI, want.maxJ}
	for _, minScore := range thresholds {
		wantRes := cloneTile(scalar.AlignFirstTile(ref, query, maxOff, minScore))
		if got := [3]int{wantRes.Score, wantRes.MaxI, wantRes.MaxJ}; got != oracle {
			return fmt.Sprintf("threshold %d: scalar (score, i, j) %v, fillLocal %v", minScore, got, oracle)
		}
		for _, ta := range tas {
			got := ta.AlignFirstTile(ref, query, maxOff, minScore)
			if d := tileContractDiff(got, wantRes, true); d != "" {
				return fmt.Sprintf("threshold %d, %d lanes (vector pass %v) vs scalar: %s", minScore, ta.width(), ta.vectorOK(len(ref), len(query)), d)
			}
			if accepted := got.Score >= max(1, minScore); accepted != (len(got.Cigar) > 0) {
				return fmt.Sprintf("threshold %d, %d lanes: score %d with a %d-op path", minScore, ta.width(), got.Score, len(got.Cigar))
			}
		}
	}
	return ""
}

// setWidth sets the aligner to width w of laneWidths: its int16 lanes,
// and at 64 its byte lanes.
func (a *TileAligner) setWidth(w int) { a.lanes, a.byteLanes = min(w, 32), w == 64 }

// width is the aligner's width in laneWidths' terms.
func (a *TileAligner) width() int {
	if a.byteLanes {
		return 64
	}
	return a.lanes
}
