package align

import (
	"math/rand"
	"testing"
	"testing/quick"

	"darwin/internal/dna"
)

// checkInfixResult validates one infix alignment against the quadratic
// oracle: the distance must be the true infix minimum, the cigar must
// cost exactly the distance and span exactly [RefStart, RefEnd) ×
// [0, m), and — the start-column recovery property — the recovered ref
// window must itself align globally at the same cost (a wrong RefStart
// would make the window's own global distance exceed it).
func checkInfixResult(t *testing.T, ref, query dna.Seq, res *EditResult) bool {
	t.Helper()
	if want := naiveEditDistance(ref, query, true); res.Distance != want {
		t.Logf("infix distance %d, oracle %d", res.Distance, want)
		return false
	}
	if res.RefStart < 0 || res.RefStart > res.RefEnd || res.RefEnd > len(ref) {
		t.Logf("bad ref span [%d,%d) of %d", res.RefStart, res.RefEnd, len(ref))
		return false
	}
	if res.QueryStart != 0 || res.QueryEnd != len(query) {
		t.Logf("bad query span [%d,%d), want [0,%d)", res.QueryStart, res.QueryEnd, len(query))
		return false
	}
	if rl := res.Cigar.RefLen(); res.RefStart+rl != res.RefEnd {
		t.Logf("cigar ref length %d inconsistent with span [%d,%d)", rl, res.RefStart, res.RefEnd)
		return false
	}
	if ql := res.Cigar.QueryLen(); ql != len(query) {
		t.Logf("cigar query length %d, want %d", ql, len(query))
		return false
	}
	// Walk the cigar and count its edit cost directly.
	cost, i, j := 0, 0, res.RefStart
	for _, s := range res.Cigar {
		switch s.Op() {
		case OpMatch:
			for k := 0; k < s.Len(); k++ {
				rc, qc := dna.Code(ref[j+k]), dna.Code(query[i+k])
				if rc != qc || rc == dna.CodeN {
					cost++
				}
			}
			i += s.Len()
			j += s.Len()
		case OpIns:
			cost += s.Len()
			i += s.Len()
		case OpDel:
			cost += s.Len()
			j += s.Len()
		}
	}
	if cost != res.Distance {
		t.Logf("cigar cost %d, distance %d", cost, res.Distance)
		return false
	}
	// Start-column recovery: the chosen window must achieve the
	// distance as a *global* alignment (any window does no better than
	// the infix minimum, so equality pins RefStart to a true optimum).
	if res.RefEnd > res.RefStart {
		win := ref[res.RefStart:res.RefEnd]
		if wd := naiveEditDistance(win, query, false); wd != res.Distance {
			t.Logf("recovered window [%d,%d) has global distance %d, want %d",
				res.RefStart, res.RefEnd, wd, res.Distance)
			return false
		}
	}
	return true
}

// Property: infix traceback start-column recovery against the
// quadratic oracle, over random N-containing refs and query lengths
// clustered around the 64-bit block boundaries (the hin/hout carry
// seams of the bitvector recurrence).
func TestQuickMyersInfixStartColumn(t *testing.T) {
	lens := []int{1, 7, 63, 64, 65, 127, 128, 129, 191, 192, 193, 200}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := lens[rng.Intn(len(lens))]
		n := m/2 + rng.Intn(2*m+16)
		ref := dna.Random(rng, n, 0.5)
		// Lace the ref with N runs: N never matches, so windows that
		// cross them are penalized — exactly what stresses the
		// start-column choice.
		for x := 0; x < rng.Intn(4); x++ {
			at := rng.Intn(len(ref))
			run := 1 + rng.Intn(3)
			for k := at; k < len(ref) && k < at+run; k++ {
				ref[k] = 'N'
			}
		}
		var query dna.Seq
		switch rng.Intn(3) {
		case 0:
			query = dna.Random(rng, m, 0.5)
		default:
			// An embedded mutated window: the infix optimum is interior.
			at := rng.Intn(max(1, len(ref)-m+1))
			end := min(len(ref), at+m)
			query = mutate(rng, ref[at:end], 0.15)
			if len(query) == 0 {
				query = dna.Random(rng, m, 0.5)
			}
		}
		res, err := Myers(ref, query, EditInfix)
		if err != nil {
			t.Logf("Myers: %v", err)
			return false
		}
		return checkInfixResult(t, ref, query, res)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

// MyersState.Align must agree with the pooled wrapper (same scratch
// reused across differently-shaped calls — the dirty-buffer case the
// pool hides).
func TestMyersStateReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var st MyersState
	for it := 0; it < 50; it++ {
		ref := dna.Random(rng, 1+rng.Intn(300), 0.5)
		query := mutate(rng, ref, 0.25)
		if len(query) == 0 {
			query = dna.Random(rng, 1+rng.Intn(100), 0.5)
		}
		mode := EditMode(it % 2)
		want, err := Myers(ref, query, mode)
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.Align(ref, query, mode)
		if err != nil {
			t.Fatal(err)
		}
		if got.Distance != want.Distance || got.RefStart != want.RefStart || got.RefEnd != want.RefEnd {
			t.Fatalf("it %d mode %v: state %+v != pooled %+v", it, mode, got, want)
		}
		if len(got.Cigar) != len(want.Cigar) {
			t.Fatalf("it %d: cigar lengths differ: %d vs %d", it, len(got.Cigar), len(want.Cigar))
		}
		for i := range got.Cigar {
			if got.Cigar[i] != want.Cigar[i] {
				t.Fatalf("it %d: cigar[%d] %+v != %+v", it, i, got.Cigar[i], want.Cigar[i])
			}
		}
	}
}

// canonSeq maps arbitrary fuzz bytes onto the canonical ACGTN
// alphabet via the base codes, so the byte-comparing oracle and the
// code-comparing bitvector aligner see the same sequence (junk bytes
// and lowercase both canonicalize through dna.Code).
func canonSeq(b []byte) dna.Seq {
	s := make(dna.Seq, len(b))
	for i, c := range b {
		s[i] = "ACGTN"[dna.Code(c)]
	}
	return s
}

// FuzzMyersInfix drives arbitrary byte inputs (canonicalized onto
// ACGTN) through the infix path and checks every invariant against the
// quadratic oracle.
func FuzzMyersInfix(f *testing.F) {
	f.Add([]byte("ACGTACGTNNACGT"), []byte("CGTACG"))
	f.Add([]byte("AAAA"), []byte("TTTTTTTT"))
	f.Add([]byte("ACGTNCA"), []byte("ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT"))
	f.Fuzz(func(t *testing.T, refB, queryB []byte) {
		const maxLen = 192 // keep the quadratic oracle affordable
		if len(refB) == 0 || len(queryB) == 0 || len(refB) > maxLen || len(queryB) > maxLen {
			t.Skip()
		}
		ref, query := canonSeq(refB), canonSeq(queryB)
		res, err := Myers(ref, query, EditInfix)
		if err != nil {
			t.Fatalf("Myers failed on valid input: %v", err)
		}
		if !checkInfixResult(t, ref, query, res) {
			t.Errorf("infix invariants violated for ref %q query %q: %+v", ref, query, res)
		}
	})
}
