package align

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"darwin/internal/dna"
)

// scalarScore is the best-cell score maxCellScalar gives rTile × qTile
// under sc's linear recurrence: the batch's oracle.
func scalarScore(t testing.TB, sc *Scoring, rTile, qTile dna.Seq) int {
	ta, err := NewTileAligner(sc)
	if err != nil {
		t.Fatal(err)
	}
	rc, qc := dna.AppendCodes(nil, rTile), dna.AppendCodes(nil, qTile)
	ta.grow(len(rc)+1, len(qc)+1)
	ta.maxCellScalar(rc, qc, true)
	return int(ta.maxScore)
}

// batchDiff scores the tiles rs[k] × qs[k] in one ScoreFirstTiles call
// and describes the first lane whose score departs from min(scalar,
// 127) — so every lane below a threshold of at most 127 is exact, and
// every lane at or above it is reported there — or "" when none does.
func batchDiff(t testing.TB, ta *TileAligner, rs, qs []dna.Seq) string {
	scores := make([]int, len(rs))
	ta.ScoreFirstTiles(rs, qs, scores)
	for k := range rs {
		want := min(scalarScore(t, ta.Scoring(), rs[k], qs[k]), 127)
		if scores[k] != want {
			return fmt.Sprintf("lane %d of %d, %d×%d tile: batch score %d, scalar %d\nref   %s\nquery %s",
				k, len(rs), len(rs[k]), len(qs[k]), scores[k], want, rs[k], qs[k])
		}
	}
	return ""
}

// Every byte converts to the lane byte its base code gives: laneCodes
// (the VPSHUFB nibble tables) against dna.Code, for all 256 bytes, as
// reference and as query.
func TestLaneCodesMatchCode(t *testing.T) {
	sc := GACTEval()
	if ta, _ := NewTileAligner(&sc); !ta.FirstTileBatchOK(90) {
		t.Skip("no vector passes on this platform")
	}
	for _, side := range []struct {
		name  string
		code  *[16]byte
		shift uint
	}{{"reference", &laneRef, 0}, {"query", &laneQuery, 2}} {
		buf := make([]byte, 256)
		for b := range buf {
			buf[b] = byte(b)
		}
		laneCodes(buf, side.code)
		for b, got := range buf {
			want := byte(laneN)
			if c := dna.Code(byte(b)); c != dna.CodeN {
				want = c << side.shift
			}
			if got != want {
				t.Errorf("%s lane byte of %#02x = %#02x, want %#02x", side.name, b, got, want)
			}
		}
	}
}

// The batch against the scalar score pass, lane by lane: ragged batches
// of 1–32 tiles of every shape from 1×1 to 384×384 (so lanes pad with N
// columns and rows, and unused lanes are all N), N-rich, repeat,
// related and unrelated tiles, scorings with asymmetric substitution
// scores, gap 0 and gaps past int8, and tiles that saturate a lane.
func TestFirstTileBatchMatchesScalar(t *testing.T) {
	sc := GACTEval()
	if ta, _ := NewTileAligner(&sc); !ta.FirstTileBatchOK(90) {
		t.Skip("no vector passes on this platform: engines take the per-candidate path")
	}
	rng := rand.New(rand.NewSource(50))
	seq := func(n int) dna.Seq {
		switch rng.Intn(5) {
		case 0:
			s := dna.Random(rng, n, 0.45)
			for i := range s {
				if rng.Intn(3) == 0 {
					s[i] = "NnRY-"[rng.Intn(5)]
				}
			}
			return s
		case 1:
			return bytes.Repeat([]byte("ACGTTG"), n/6+1)[:n]
		}
		return dna.Random(rng, n, 0.45)
	}
	scorings := []Scoring{GACTEval(), Simple(2, 1, 1), Simple(1, 1, 0), Simple(3, 2, 200), Simple(100, 1, 1)}
	asym := Simple(2, 3, 2)
	asym.W[1][2], asym.W[3][0] = 4, -127
	scorings = append(scorings, asym)
	for _, sc := range scorings {
		ta, err := NewTileAligner(&sc)
		if err != nil {
			t.Fatal(err)
		}
		for trial := range 12 {
			lanes := 1 + rng.Intn(BatchLanes)
			if trial == 0 {
				lanes = BatchLanes
			}
			rs, qs := make([]dna.Seq, lanes), make([]dna.Seq, lanes)
			for k := range rs {
				n, m := 1+rng.Intn(384), 1+rng.Intn(384)
				if rng.Intn(2) == 0 {
					n, m = 384, 384
				}
				rs[k] = seq(n)
				if rng.Intn(3) == 0 { // related: the query 30 % mutated
					qs[k] = mutate(rng, rs[k], 0.3)
					qs[k] = qs[k][:min(len(qs[k]), m)]
					if len(qs[k]) == 0 {
						qs[k] = seq(m)
					}
				} else {
					qs[k] = seq(m)
				}
			}
			if d := batchDiff(t, ta, rs, qs); d != "" {
				t.Fatalf("%+v: %s", sc, d)
			}
		}
	}
}

// FuzzFirstTileBatch drives a batch of lanes cut from two fuzzed
// sequences — lane k the ref from k·shift and the query from k·shift/2,
// each cut to its own length — under fuzzed linear scorings through
// ScoreFirstTiles, and holds every lane to the scalar pass
// (batchDiff): exact below 127, 127 at or above it.
func FuzzFirstTileBatch(f *testing.F) {
	f.Add([]byte("ACGTACGTNNACGTAC"), []byte("CGTACGNTACG"), uint8(5), uint8(3), uint8(0), uint8(1), uint8(1), uint8(6), int8(-3))
	f.Add(bytes.Repeat([]byte("ACGTTGCA"), 48), bytes.Repeat([]byte("ACGTTGCA"), 48), uint8(32), uint8(7), uint8(0), uint8(0), uint8(1), uint8(0), int8(1))
	f.Add(bytes.Repeat([]byte("N"), 70), []byte("ACGTACGTAC"), uint8(1), uint8(0), uint8(2), uint8(3), uint8(127), uint8(5), int8(127))
	f.Fuzz(func(t *testing.T, refB, queryB []byte, lanes, shift, match, mismatch, gap, at uint8, w int8) {
		const maxLen = 400
		if len(refB) == 0 || len(queryB) == 0 || len(refB) > maxLen || len(queryB) > maxLen {
			t.Skip()
		}
		sc := Simple(1+int(match)%140, int(mismatch)%140, int(gap)%200)
		sc.W[at>>2&3][at&3] = int(w)
		ta, err := NewTileAligner(&sc)
		if err != nil || !ta.FirstTileBatchOK(2) {
			t.Skip() // w cleared every positive match, or no batch here
		}
		ref, query := canonSeq(refB), canonSeq(queryB)
		k := 1 + int(lanes)%BatchLanes
		rs, qs := make([]dna.Seq, k), make([]dna.Seq, k)
		for l := range k {
			r := ref[l*int(shift)%len(ref):]
			q := query[l*int(shift)/2%len(query):]
			rs[l], qs[l] = r[:1+(l*37)%len(r)], q[:1+(l*53)%len(q)]
			if l == 0 {
				rs[l], qs[l] = r, q
			}
		}
		if d := batchDiff(t, ta, rs, qs); d != "" {
			t.Errorf("%+v: %s", sc, d)
		}
	})
}

// BenchmarkFirstTileBatch times the first-tile batch on 384×384 tiles
// an h_tile of 90 rejects (unrelated reference and query), transposition
// included, at batch sizes 1, 8, 16, 24 and 32: ns/tile is the cost of
// one rejected first tile at that size, against BenchmarkScorePass's
// htile90/unrelated for the per-candidate screen. A call costs about the
// same however few of its lanes are used, so the size at which ns/tile
// falls below the screen's is the engine's batch crossover
// (gact.minBatch).
func BenchmarkFirstTileBatch(b *testing.B) {
	const side = 384
	sc := GACTEval()
	ta, err := NewTileAligner(&sc)
	if err != nil {
		b.Fatal(err)
	}
	if !ta.FirstTileBatchOK(90) {
		b.Skip("no first-tile batch on this platform")
	}
	rng := rand.New(rand.NewSource(73))
	rs, qs := make([]dna.Seq, BatchLanes), make([]dna.Seq, BatchLanes)
	for k := range rs {
		rs[k], qs[k] = dna.Random(rng, side, 0.45), dna.Random(rng, side, 0.45)
	}
	scores := make([]int, BatchLanes)
	for _, size := range []int{1, 8, 16, 24, 32} {
		b.Run(fmt.Sprintf("size%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ta.ScoreFirstTiles(rs[:size], qs[:size], scores)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(size), "ns/tile")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(size*side*side), "ns/cell")
		})
	}
}
