package align

import (
	"math/rand"
	"testing"

	"darwin/internal/dna"
)

// naiveLocalScore is an independent O(mn) affine-gap local alignment
// scorer using three full matrices — the textbook Gotoh formulation —
// used as an oracle for the production kernels.
func naiveLocalScore(ref, query dna.Seq, sc *Scoring) int {
	n, m := len(ref), len(query)
	H := make([][]int, m+1)
	E := make([][]int, m+1) // horizontal gap (consumes ref)
	F := make([][]int, m+1) // vertical gap (consumes query)
	for j := 0; j <= m; j++ {
		H[j] = make([]int, n+1)
		E[j] = make([]int, n+1)
		F[j] = make([]int, n+1)
		for i := 0; i <= n; i++ {
			E[j][i] = negInf
			F[j][i] = negInf
		}
	}
	best := 0
	for j := 1; j <= m; j++ {
		for i := 1; i <= n; i++ {
			E[j][i] = max(H[j][i-1]-sc.GapOpen, E[j][i-1]-sc.GapExtend)
			F[j][i] = max(H[j-1][i]-sc.GapOpen, F[j-1][i]-sc.GapExtend)
			H[j][i] = max(0, max(H[j-1][i-1]+sc.Sub(ref[i-1], query[j-1]), max(E[j][i], F[j][i])))
			if H[j][i] > best {
				best = H[j][i]
			}
		}
	}
	return best
}

// naiveEditDistance is an O(mn) Levenshtein oracle.
func naiveEditDistance(ref, query dna.Seq, infix bool) int {
	n, m := len(ref), len(query)
	prev := make([]int, n+1)
	cur := make([]int, n+1)
	for i := 0; i <= n; i++ {
		if infix {
			prev[i] = 0
		} else {
			prev[i] = i
		}
	}
	best := 1 << 30
	for j := 1; j <= m; j++ {
		cur[0] = j
		for i := 1; i <= n; i++ {
			cost := 1
			if ref[i-1] == query[j-1] && ref[i-1] != 'N' {
				cost = 0
			}
			cur[i] = min(prev[i-1]+cost, min(cur[i-1]+1, prev[i]+1))
		}
		prev, cur = cur, prev
	}
	if infix {
		for i := 0; i <= n; i++ {
			if prev[i] < best {
				best = prev[i]
			}
		}
		return best
	}
	return prev[n]
}

func mutate(rng *rand.Rand, s dna.Seq, rate float64) dna.Seq {
	out := make(dna.Seq, 0, len(s))
	for _, b := range s {
		r := rng.Float64()
		switch {
		case r < rate/3:
			// deletion: skip
		case r < 2*rate/3:
			out = append(out, dna.Base(byte(rng.Intn(4))), b)
		case r < rate:
			out = append(out, dna.MutatePoint(rng, b))
		default:
			out = append(out, b)
		}
	}
	if len(out) == 0 {
		out = append(out, 'A')
	}
	return out
}

func TestScoringValidate(t *testing.T) {
	good := Simple(1, 1, 1)
	if err := good.Validate(); err != nil {
		t.Errorf("Simple(1,1,1) invalid: %v", err)
	}
	bad := Scoring{GapOpen: -1}
	if err := bad.Validate(); err == nil {
		t.Error("negative gap open should be invalid")
	}
	bad = Simple(1, 1, 1)
	bad.GapExtend = 5
	if err := bad.Validate(); err == nil {
		t.Error("extend > open should be invalid")
	}
	bad = Simple(0, 1, 1)
	if err := bad.Validate(); err == nil {
		t.Error("no positive match score should be invalid")
	}
}

func TestScoringSubN(t *testing.T) {
	sc := Simple(2, 3, 1)
	if sc.Sub('A', 'A') != 2 || sc.Sub('A', 'C') != -3 {
		t.Error("substitution scores wrong")
	}
	if sc.Sub('N', 'A') != 0 || sc.Sub('A', 'N') != 0 || sc.Sub('N', 'N') != 0 {
		t.Error("N must contribute zero")
	}
}

// TestPaperFigure1 reproduces the Smith-Waterman example of Figure 1:
// reference GCGACTTT, query GTCGTTT, match=+2, mismatch=-1, gap=1,
// optimal score 9 with alignment G-CGACTTT / GTCG--TTT.
func TestPaperFigure1(t *testing.T) {
	ref := dna.NewSeq("GCGACTTT")
	query := dna.NewSeq("GTCGTTT")
	sc := Figure1()
	res, err := SmithWaterman(ref, query, &sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != 9 {
		t.Fatalf("score = %d, want 9 (paper Figure 1)", res.Score)
	}
	if err := res.Check(ref, query); err != nil {
		t.Fatal(err)
	}
	if got := res.Rescore(ref, query, &sc); got != 9 {
		t.Errorf("rescore = %d, want 9", got)
	}
	// The optimal path consumes all 8 reference and all 7 query bases
	// (Figure 1d: G-CGACTTT over GTCG--TTT).
	if res.RefEnd-res.RefStart != 8 || res.QueryEnd-res.QueryStart != 7 {
		t.Errorf("span = ref[%d,%d) query[%d,%d), want full 8x7",
			res.RefStart, res.RefEnd, res.QueryStart, res.QueryEnd)
	}
}

func TestSWMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	scorings := []Scoring{Simple(1, 1, 1), Simple(2, 1, 1), {W: Simple(3, 2, 0).W, GapOpen: 4, GapExtend: 1}}
	for trial := 0; trial < 60; trial++ {
		ref := dna.Random(rng, 5+rng.Intn(60), 0.5)
		query := mutate(rng, ref, 0.3)
		sc := scorings[trial%len(scorings)]
		res, err := SmithWaterman(ref, query, &sc)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveLocalScore(ref, query, &sc)
		if res.Score != want {
			t.Fatalf("trial %d: SW score %d, oracle %d\nref=%s\nq=%s", trial, res.Score, want, ref, query)
		}
		if err := res.Check(ref, query); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got := res.Rescore(ref, query, &sc); got != res.Score {
			t.Fatalf("trial %d: traceback path rescores to %d, matrix says %d (cigar %s)", trial, got, res.Score, res.Cigar)
		}
		if got := ScoreOnly(ref, query, &sc); got != want {
			t.Fatalf("trial %d: ScoreOnly %d, oracle %d", trial, got, want)
		}
	}
}

func TestSWIdentical(t *testing.T) {
	s := dna.NewSeq("ACGTACGTACGT")
	sc := Simple(1, 1, 1)
	res, err := SmithWaterman(s, s, &sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != len(s) {
		t.Errorf("score = %d, want %d", res.Score, len(s))
	}
	if res.Cigar.String() != "12M" {
		t.Errorf("cigar = %s, want 12M", res.Cigar)
	}
}

func TestSWEmptyInputs(t *testing.T) {
	sc := Simple(1, 1, 1)
	if _, err := SmithWaterman(nil, dna.NewSeq("A"), &sc); err == nil {
		t.Error("empty ref should error")
	}
	if _, err := SmithWaterman(dna.NewSeq("A"), nil, &sc); err == nil {
		t.Error("empty query should error")
	}
}

func TestSWWithN(t *testing.T) {
	ref := dna.NewSeq("ACGTNNNNACGT")
	query := dna.NewSeq("ACGTACGT")
	sc := Simple(1, 1, 1)
	res, err := SmithWaterman(ref, query, &sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(ref, query); err != nil {
		t.Fatal(err)
	}
	if res.Score != naiveLocalScore(ref, query, &sc) {
		t.Errorf("score with N = %d, oracle %d", res.Score, naiveLocalScore(ref, query, &sc))
	}
}

func TestCigarOps(t *testing.T) {
	var c Cigar
	for _, op := range []Op{OpMatch, OpMatch, OpIns, OpDel, OpDel, OpMatch} {
		c = c.AppendOp(op)
	}
	if c.String() != "2M1I2D1M" {
		t.Errorf("cigar = %s, want 2M1I2D1M", c)
	}
	if c.RefLen() != 5 || c.QueryLen() != 4 {
		t.Errorf("lens = (%d,%d), want (5,4)", c.RefLen(), c.QueryLen())
	}
	d := Cigar{{OpMatch, 3}}.Concat(Cigar{{OpMatch, 2}, {OpIns, 1}})
	if d.String() != "5M1I" {
		t.Errorf("concat = %s, want 5M1I", d)
	}
	if got := d.Reverse().String(); got != "1I5M" {
		t.Errorf("reverse = %s, want 1I5M", got)
	}
}

func TestTileFirstVsSubsequent(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	ref := dna.Random(rng, 100, 0.5)
	query := mutate(rng, ref, 0.1)
	sc := GACTEval()

	first := AlignTile(ref, query, true, 0, &sc)
	if first.Score <= 0 {
		t.Fatal("first tile score should be positive for similar sequences")
	}
	if first.MaxI == 0 && first.MaxJ == 0 {
		t.Error("first tile should report the max cell")
	}
	// First-tile score equals the optimal local score of the tile.
	if want := ScoreOnly(ref, query, &sc); first.Score != want {
		t.Errorf("first tile score %d, optimal %d", first.Score, want)
	}

	sub := AlignTile(ref, query, false, 0, &sc)
	// Subsequent tiles trace from the bottom-right cell.
	if sub.Score > first.Score {
		t.Errorf("bottom-right score %d exceeds max score %d", sub.Score, first.Score)
	}
}

func TestTileOffsetClipping(t *testing.T) {
	s := dna.NewSeq("ACGTACGTACGTACGTACGT") // 20 bases, identical
	sc := GACTEval()
	res := AlignTile(s, s, false, 8, &sc)
	if res.IOff != 8 || res.JOff != 8 {
		t.Errorf("offsets = (%d,%d), want clipped to (8,8)", res.IOff, res.JOff)
	}
	if res.Cigar.String() != "8M" {
		t.Errorf("cigar = %s, want 8M", res.Cigar)
	}
}

func TestTileEmpty(t *testing.T) {
	sc := GACTEval()
	res := AlignTile(nil, dna.NewSeq("ACGT"), true, 0, &sc)
	if res.Score != 0 || len(res.Cigar) != 0 {
		t.Errorf("empty tile result = %+v", res)
	}
}

func TestTileDissimilarTerminates(t *testing.T) {
	// Unrelated sequences: bottom-right cell is likely 0 ⇒ no extension.
	rng := rand.New(rand.NewSource(34))
	a := dna.Random(rng, 50, 0.5)
	b := dna.Random(rng, 50, 0.5)
	sc := GACTEval()
	res := AlignTile(a, b, false, 0, &sc)
	if res.IOff > 50 || res.JOff > 50 {
		t.Errorf("offsets out of range: %+v", res)
	}
}

func TestMyersMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 60; trial++ {
		// Sizes straddle the 64-row block boundary.
		refLen := 1 + rng.Intn(150)
		ref := dna.Random(rng, refLen, 0.5)
		query := mutate(rng, ref, 0.25)
		for _, mode := range []EditMode{EditGlobal, EditInfix} {
			res, err := Myers(ref, query, mode)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			want := naiveEditDistance(ref, query, mode == EditInfix)
			if res.Distance != want {
				t.Fatalf("trial %d mode %d: Myers %d, oracle %d\nref=%s\nq=%s", trial, mode, res.Distance, want, ref, query)
			}
			fast, err := EditDistance(ref, query, mode)
			if err != nil {
				t.Fatal(err)
			}
			if fast != want {
				t.Fatalf("trial %d mode %d: EditDistance %d, oracle %d", trial, mode, fast, want)
			}
			// Path consistency: ops must consume the recorded spans and
			// their edit cost must equal the distance.
			cost := 0
			i, j := res.RefStart, res.QueryStart
			for _, s := range res.Cigar {
				switch s.Op {
				case OpMatch:
					for k := 0; k < s.Len; k++ {
						if ref[i+k] != query[j+k] || ref[i+k] == 'N' {
							cost++
						}
					}
					i += s.Len
					j += s.Len
				case OpIns:
					cost += s.Len
					j += s.Len
				case OpDel:
					cost += s.Len
					i += s.Len
				}
			}
			if cost != res.Distance {
				t.Fatalf("trial %d mode %d: path cost %d, distance %d (cigar %s)", trial, mode, cost, res.Distance, res.Cigar)
			}
			if i != res.RefEnd || j != res.QueryEnd {
				t.Fatalf("trial %d mode %d: path ends at (%d,%d), spans say (%d,%d)", trial, mode, i, j, res.RefEnd, res.QueryEnd)
			}
			if res.QueryStart != 0 || res.QueryEnd != len(query) {
				t.Fatalf("trial %d mode %d: query not fully consumed", trial, mode)
			}
		}
	}
}

func TestMyersInfixFindsSubstring(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	ref := dna.Random(rng, 500, 0.5)
	query := ref[200:300].Clone()
	res, err := Myers(ref, query, EditInfix)
	if err != nil {
		t.Fatal(err)
	}
	if res.Distance != 0 {
		t.Fatalf("exact substring distance = %d, want 0", res.Distance)
	}
	if res.RefStart != 200 || res.RefEnd != 300 {
		// Repeats may allow other exact placements; verify content.
		if ref[res.RefStart:res.RefEnd].String() != query.String() {
			t.Errorf("infix placement [%d,%d) does not match query", res.RefStart, res.RefEnd)
		}
	}
}

func TestMyersIdentical(t *testing.T) {
	s := dna.NewSeq("ACGTTGCAACGTTGCA")
	res, err := Myers(s, s, EditGlobal)
	if err != nil {
		t.Fatal(err)
	}
	if res.Distance != 0 {
		t.Errorf("distance = %d, want 0", res.Distance)
	}
	if res.Cigar.String() != "16M" {
		t.Errorf("cigar = %s, want 16M", res.Cigar)
	}
}

func TestMyersEmpty(t *testing.T) {
	if _, err := Myers(nil, dna.NewSeq("A"), EditGlobal); err == nil {
		t.Error("empty ref should error")
	}
	if _, err := EditDistance(dna.NewSeq("A"), nil, EditGlobal); err == nil {
		t.Error("empty query should error")
	}
}

func TestMyersLongBlockBoundary(t *testing.T) {
	// Query lengths exactly at 64/128 exercise the tail-mask edge.
	rng := rand.New(rand.NewSource(39))
	for _, m := range []int{63, 64, 65, 127, 128, 129} {
		query := dna.Random(rng, m, 0.5)
		ref := mutate(rng, query, 0.1)
		want := naiveEditDistance(ref, query, false)
		got, err := EditDistance(ref, query, EditGlobal)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("m=%d: EditDistance %d, oracle %d", m, got, want)
		}
	}
}
