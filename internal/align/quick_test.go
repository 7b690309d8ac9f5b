package align

import (
	"math/rand"
	"testing"
	"testing/quick"

	"darwin/internal/dna"
)

// quickSeqs generates a pair of related sequences from quick's random
// source.
func quickSeqs(rng *rand.Rand) (dna.Seq, dna.Seq) {
	ref := dna.Random(rng, 2+rng.Intn(60), 0.5)
	var query dna.Seq
	if rng.Intn(3) == 0 {
		query = dna.Random(rng, 2+rng.Intn(60), 0.5)
	} else {
		query = mutate(rng, ref, 0.3)
	}
	return ref, query
}

// Property: Smith-Waterman's traceback path always rescores to the
// matrix score, passes consistency checks, and agrees with the
// score-only kernel.
func TestQuickSWPathConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ref, query := quickSeqs(rng)
		sc := Simple(1+rng.Intn(3), 1+rng.Intn(3), 1+rng.Intn(2))
		res, err := SmithWaterman(ref, query, &sc)
		if err != nil {
			return false
		}
		if err := res.Check(ref, query); err != nil {
			t.Logf("check: %v", err)
			return false
		}
		return res.Rescore(ref, query, &sc) == res.Score &&
			ScoreOnly(ref, query, &sc) == res.Score
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: local alignment scores are non-negative and bounded by
// min(m, n) · max match score.
func TestQuickSWScoreBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ref, query := quickSeqs(rng)
		match := 1 + rng.Intn(4)
		sc := Simple(match, 1, 1)
		s := ScoreOnly(ref, query, &sc)
		bound := match * min(len(ref), len(query))
		return s >= 0 && s <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: edit distance is a metric on the global mode — symmetric,
// zero iff equal (for N-free sequences), and bounded by the length
// difference from below and max length from above.
func TestQuickEditDistanceMetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := quickSeqs(rng)
		dab, err := EditDistance(a, b, EditGlobal)
		if err != nil {
			return false
		}
		dba, err := EditDistance(b, a, EditGlobal)
		if err != nil {
			return false
		}
		if dab != dba {
			return false
		}
		lenDiff := len(a) - len(b)
		if lenDiff < 0 {
			lenDiff = -lenDiff
		}
		if dab < lenDiff || dab > max(len(a), len(b)) {
			return false
		}
		daa, err := EditDistance(a, a, EditGlobal)
		if err != nil {
			return false
		}
		return daa == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: the infix distance never exceeds the global distance, and
// appending flanking junk to the reference never increases it.
func TestQuickInfixMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ref, query := quickSeqs(rng)
		global, err := EditDistance(ref, query, EditGlobal)
		if err != nil {
			return false
		}
		infix, err := EditDistance(ref, query, EditInfix)
		if err != nil {
			return false
		}
		if infix > global {
			return false
		}
		padded := append(dna.Random(rng, 10, 0.5), ref...)
		padded = append(padded, dna.Random(rng, 10, 0.5)...)
		infixPadded, err := EditDistance(padded, query, EditInfix)
		if err != nil {
			return false
		}
		return infixPadded <= infix
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: Cigar Concat preserves consumed lengths and Reverse is an
// involution.
func TestQuickCigarAlgebra(t *testing.T) {
	f := func(ops []byte) bool {
		var a, b Cigar
		for i, o := range ops {
			op := []Op{OpMatch, OpIns, OpDel}[int(o)%3]
			if i%2 == 0 {
				a = a.AppendOp(op)
			} else {
				b = b.AppendOp(op)
			}
		}
		wantRef := a.RefLen() + b.RefLen()
		wantQ := a.QueryLen() + b.QueryLen()
		c := a.Concat(b)
		if c.RefLen() != wantRef || c.QueryLen() != wantQ {
			return false
		}
		// Adjacent runs must be merged.
		for i := 1; i < len(c); i++ {
			if c[i-1].Op() == c[i].Op() {
				return false
			}
		}
		d := append(Cigar(nil), c...)
		d = d.Reverse().Reverse()
		if len(d) != len(c) {
			return false
		}
		for i := range c {
			if c[i] != d[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: GACT tiles never exceed the tile-local optimum and always
// respect the offset clip.
func TestQuickTileClipAndBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ref, query := quickSeqs(rng)
		sc := Simple(1, 1, 1)
		maxOff := 1 + rng.Intn(30)
		res := AlignTile(ref, query, rng.Intn(2) == 0, maxOff, &sc)
		if res.IOff > maxOff || res.JOff > maxOff {
			return false
		}
		return res.Score <= ScoreOnly(ref, query, &sc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
