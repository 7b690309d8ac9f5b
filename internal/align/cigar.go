package align

import (
	"fmt"
	"strconv"

	"darwin/internal/dna"
)

// Op is one alignment operation kind.
type Op byte

// Alignment operation kinds. Match covers both equal and substituted
// bases (CIGAR 'M'); Ins consumes query only; Del consumes reference
// only — matching the 2-bit insert/delete/match encoding the GACT
// traceback hardware emits (Section 7).
const (
	OpMatch Op = 'M'
	OpIns   Op = 'I'
	OpDel   Op = 'D'
)

// Step is one run of an alignment path in four bytes: the run length
// in bits 2–31 and the op in bits 0–1, numbered as BAM numbers these
// three (0 = M, 1 = I, 2 = D). Build one with NewStep and lengthen it
// with Grow, the only writers, which hold the length to MaxRun.
type Step uint32

// MaxRun is the longest run a Step holds, 2^30 − 1.
const MaxRun = 1<<30 - 1

// stepOps maps a Step's op bits to its Op; 3 is no op.
var stepOps = [4]Op{OpMatch, OpIns, OpDel}

// NewStep returns a run of n operations op, 0 ≤ n ≤ MaxRun, op one of
// OpMatch, OpIns and OpDel. Anything else is a bug of the caller:
// input is checked where it is parsed (ParseCigar).
func NewStep(op Op, n int) Step {
	if n < 0 || n > MaxRun {
		panic(fmt.Sprintf("align: run of %d %c outside [0, MaxRun = %d]", n, op, MaxRun))
	}
	var code Step
	switch op {
	case OpMatch:
	case OpIns:
		code = 1
	case OpDel:
		code = 2
	default:
		panic(fmt.Sprintf("align: no step op %q", op))
	}
	return Step(n)<<2 | code
}

// Op returns the run's operation.
func (s Step) Op() Op { return stepOps[s&3] }

// Len returns the run's length.
func (s Step) Len() int { return int(s >> 2) }

// Grow returns s lengthened by k ≥ 0 operations. A run past MaxRun
// panics rather than splits: Check requires adjacent runs of one op to
// be merged, so no canonical path can hold it.
func (s Step) Grow(k int) Step {
	if n := s.Len() + k; k < 0 || n > MaxRun {
		panic(fmt.Sprintf("align: merged run of %d %c exceeds MaxRun = %d", n, s.Op(), MaxRun))
	}
	return s + Step(k)<<2
}

// Cigar is a run-length encoded alignment path.
type Cigar []Step

// AppendOp appends one operation, merging with the trailing run.
func (c Cigar) AppendOp(op Op) Cigar { return c.appendRun(op, 1) }

// appendRun appends a run of k ≥ 1 operations, merging with the
// trailing run.
func (c Cigar) appendRun(op Op, k int) Cigar {
	if n := len(c); n > 0 && c[n-1].Op() == op {
		c[n-1] = c[n-1].Grow(k)
		return c
	}
	return append(c, NewStep(op, k))
}

// Concat appends another cigar, merging the boundary runs.
func (c Cigar) Concat(other Cigar) Cigar {
	for _, s := range other {
		if s.Len() == 0 {
			continue
		}
		if n := len(c); n > 0 && c[n-1].Op() == s.Op() {
			c[n-1] = c[n-1].Grow(s.Len())
		} else {
			c = append(c, s)
		}
	}
	return c
}

// RefLen returns the number of reference bases the path consumes.
func (c Cigar) RefLen() int {
	n := 0
	for _, s := range c {
		if s.Op() != OpIns {
			n += s.Len()
		}
	}
	return n
}

// QueryLen returns the number of query bases the path consumes.
func (c Cigar) QueryLen() int {
	n := 0
	for _, s := range c {
		if s.Op() != OpDel {
			n += s.Len()
		}
	}
	return n
}

// AppendText appends the path in CIGAR notation, e.g. "12M1I3M", to
// dst and returns the extended buffer.
func (c Cigar) AppendText(dst []byte) []byte {
	for _, s := range c {
		dst = strconv.AppendInt(dst, int64(s.Len()), 10)
		dst = append(dst, byte(s.Op()))
	}
	return dst
}

// String renders the path in CIGAR notation.
func (c Cigar) String() string { return string(c.AppendText(make([]byte, 0, 4*len(c)))) }

// ParseCigar parses CIGAR notation produced by Cigar.String — only the
// M/I/D operations the GACT traceback emits, no clips — back into a
// path. Round-tripping through String and ParseCigar is exact: Check's
// canonical-form invariant (positive runs, adjacent runs merged) means
// the string form carries the full step structure, and ParseCigar
// accepts only strings String can print.
func ParseCigar(s string) (Cigar, error) {
	var c Cigar
	i := 0
	for i < len(s) {
		j := i
		for j < len(s) && s[j] >= '0' && s[j] <= '9' {
			j++
		}
		if j == i || j == len(s) {
			return nil, fmt.Errorf("align: malformed cigar %q at offset %d", s, i)
		}
		// A leading zero is a zero run or a padded one ("01M"), neither of
		// which String prints; no Step holds a run past MaxRun.
		n, err := strconv.Atoi(s[i:j])
		if err != nil || s[i] == '0' || n > MaxRun {
			return nil, fmt.Errorf("align: bad cigar run length in %q at offset %d", s, i)
		}
		op := Op(s[j])
		switch op {
		case OpMatch, OpIns, OpDel:
		default:
			return nil, fmt.Errorf("align: unsupported cigar op %q in %q", s[j], s)
		}
		if k := len(c); k > 0 && c[k-1].Op() == op {
			return nil, fmt.Errorf("align: non-canonical cigar %q: adjacent %c runs", s, op)
		}
		c = append(c, NewStep(op, n))
		i = j + 1
	}
	return c, nil
}

// Reverse reverses the path in place and returns it (left extension
// produces operations back-to-front).
func (c Cigar) Reverse() Cigar {
	for i, j := 0, len(c)-1; i < j; i, j = i+1, j-1 {
		c[i], c[j] = c[j], c[i]
	}
	return c
}

// Result is a pairwise alignment between a reference and a query.
type Result struct {
	// Score is the alignment score under the scoring that produced it.
	Score int
	// RefStart, RefEnd delimit the aligned reference span [start, end).
	RefStart, RefEnd int
	// QueryStart, QueryEnd delimit the aligned query span [start, end).
	QueryStart, QueryEnd int
	// Cigar is the alignment path.
	Cigar Cigar
}

// Identity returns the fraction of match columns whose bases are equal,
// given the two sequences the result refers to.
func (r *Result) Identity(ref, query dna.Seq) float64 {
	i, j := r.RefStart, r.QueryStart
	matchCols, equal := 0, 0
	for _, s := range r.Cigar {
		n := s.Len()
		switch s.Op() {
		case OpMatch:
			for k := 0; k < n; k++ {
				matchCols++
				if ref[i+k] == query[j+k] {
					equal++
				}
			}
			i += n
			j += n
		case OpIns:
			j += n
		case OpDel:
			i += n
		}
	}
	if matchCols == 0 {
		return 0
	}
	return float64(equal) / float64(matchCols)
}

// Rescore recomputes the alignment score of the path under sc, which
// must pass Validate. It is the ground truth the hardware's running
// score must agree with; tests use it as an invariant. Bases are
// scored through sc's SubLUT, the table every kernel reads, which holds
// Scoring.Sub for every pair of base codes.
func (r *Result) Rescore(ref, query dna.Seq, sc *Scoring) int {
	lut := sc.LUT()
	score := 0
	i, j := r.RefStart, r.QueryStart
	for _, s := range r.Cigar {
		n := s.Len()
		switch s.Op() {
		case OpMatch:
			q := query[j : j+n]
			for k, b := range ref[i : i+n] {
				score += int(lut[(int(dna.Code(q[k]))&7)*LUTStride+int(dna.Code(b))&7])
			}
			i += n
			j += n
		case OpIns:
			score -= sc.GapOpen + (n-1)*sc.GapExtend
			j += n
		case OpDel:
			score -= sc.GapOpen + (n-1)*sc.GapExtend
			i += n
		}
	}
	return score
}

// Check validates that the result's path is consistent with its spans
// and stays inside the sequences. Alignments out of any aligner must
// pass Check; property tests rely on it.
func (r *Result) Check(ref, query dna.Seq) error {
	if r.RefStart < 0 || r.RefEnd > len(ref) || r.RefStart > r.RefEnd {
		return fmt.Errorf("align: ref span [%d,%d) out of bounds (len %d)", r.RefStart, r.RefEnd, len(ref))
	}
	if r.QueryStart < 0 || r.QueryEnd > len(query) || r.QueryStart > r.QueryEnd {
		return fmt.Errorf("align: query span [%d,%d) out of bounds (len %d)", r.QueryStart, r.QueryEnd, len(query))
	}
	if got, want := r.Cigar.RefLen(), r.RefEnd-r.RefStart; got != want {
		return fmt.Errorf("align: cigar consumes %d ref bases, span is %d", got, want)
	}
	if got, want := r.Cigar.QueryLen(), r.QueryEnd-r.QueryStart; got != want {
		return fmt.Errorf("align: cigar consumes %d query bases, span is %d", got, want)
	}
	for i, s := range r.Cigar {
		if s.Len() == 0 {
			return fmt.Errorf("align: cigar step %d has zero length", i)
		}
		if i > 0 && r.Cigar[i-1].Op() == s.Op() {
			return fmt.Errorf("align: cigar steps %d,%d not merged (%c)", i-1, i, s.Op())
		}
	}
	return nil
}
