package align

import (
	"fmt"
	"strconv"
	"strings"

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

// Step is a run-length encoded alignment operation.
type Step struct {
	Op  Op
	Len int
}

// Cigar is a run-length encoded alignment path.
type Cigar []Step

// AppendOp appends one operation, merging with the trailing run.
func (c Cigar) AppendOp(op Op) Cigar {
	if n := len(c); n > 0 && c[n-1].Op == op {
		c[n-1].Len++
		return c
	}
	return append(c, Step{op, 1})
}

// Concat appends another cigar, merging the boundary runs.
func (c Cigar) Concat(other Cigar) Cigar {
	for _, s := range other {
		if s.Len == 0 {
			continue
		}
		if n := len(c); n > 0 && c[n-1].Op == s.Op {
			c[n-1].Len += s.Len
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
		if s.Op != OpIns {
			n += s.Len
		}
	}
	return n
}

// QueryLen returns the number of query bases the path consumes.
func (c Cigar) QueryLen() int {
	n := 0
	for _, s := range c {
		if s.Op != OpDel {
			n += s.Len
		}
	}
	return n
}

// String renders the path in CIGAR notation, e.g. "12M1I3M".
func (c Cigar) String() string {
	var b strings.Builder
	for _, s := range c {
		b.WriteString(strconv.Itoa(s.Len))
		b.WriteByte(byte(s.Op))
	}
	return b.String()
}

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
		// which String prints.
		n, err := strconv.Atoi(s[i:j])
		if err != nil || s[i] == '0' {
			return nil, fmt.Errorf("align: bad cigar run length in %q at offset %d", s, i)
		}
		op := Op(s[j])
		switch op {
		case OpMatch, OpIns, OpDel:
		default:
			return nil, fmt.Errorf("align: unsupported cigar op %q in %q", s[j], s)
		}
		if k := len(c); k > 0 && c[k-1].Op == op {
			return nil, fmt.Errorf("align: non-canonical cigar %q: adjacent %c runs", s, op)
		}
		c = append(c, Step{op, n})
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
		switch s.Op {
		case OpMatch:
			for k := 0; k < s.Len; k++ {
				matchCols++
				if ref[i+k] == query[j+k] {
					equal++
				}
			}
			i += s.Len
			j += s.Len
		case OpIns:
			j += s.Len
		case OpDel:
			i += s.Len
		}
	}
	if matchCols == 0 {
		return 0
	}
	return float64(equal) / float64(matchCols)
}

// Rescore recomputes the alignment score of the path under sc. It is the
// ground truth the hardware's running score must agree with; tests use
// it as an invariant.
func (r *Result) Rescore(ref, query dna.Seq, sc *Scoring) int {
	score := 0
	i, j := r.RefStart, r.QueryStart
	for _, s := range r.Cigar {
		switch s.Op {
		case OpMatch:
			for k := 0; k < s.Len; k++ {
				score += sc.Sub(ref[i+k], query[j+k])
			}
			i += s.Len
			j += s.Len
		case OpIns:
			score -= sc.GapOpen + (s.Len-1)*sc.GapExtend
			j += s.Len
		case OpDel:
			score -= sc.GapOpen + (s.Len-1)*sc.GapExtend
			i += s.Len
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
		if s.Len <= 0 {
			return fmt.Errorf("align: cigar step %d has non-positive length %d", i, s.Len)
		}
		if i > 0 && r.Cigar[i-1].Op == s.Op {
			return fmt.Errorf("align: cigar steps %d,%d not merged (%c)", i-1, i, s.Op)
		}
	}
	return nil
}
