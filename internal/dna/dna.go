// Package dna provides the nucleotide-sequence substrate used throughout
// the Darwin reproduction: base codes for the extended DNA alphabet
// Σext = {A, C, G, T, N}, 2-bit k-mer packing for seed lookup, reverse
// complements, and deterministic random sequence generation.
//
// Sequences are stored as upper-case ASCII bytes. Darwin's hardware
// stores sequences in ASCII in DRAM and converts to a 3-bit internal
// representation inside the GACT array (Section 7 of the paper); the
// Code/Base mapping here plays the role of that converter.
package dna

import (
	"fmt"
	"math/rand"
	"strings"
)

// Base codes for the extended alphabet. A..T are the 2-bit codes used to
// pack seeds; N marks an unknown nucleotide and never matches anything.
const (
	CodeA = 0
	CodeC = 1
	CodeG = 2
	CodeT = 3
	CodeN = 4
)

// NumBases is the number of distinct 2-bit encodable nucleotides.
const NumBases = 4

// codeTable maps an ASCII byte to its base code. Lower-case letters map
// like their upper-case counterparts; every other byte maps to CodeN.
var codeTable = buildCodeTable()

func buildCodeTable() [256]byte {
	var t [256]byte
	for i := range t {
		t[i] = CodeN
	}
	t['A'], t['a'] = CodeA, CodeA
	t['C'], t['c'] = CodeC, CodeC
	t['G'], t['g'] = CodeG, CodeG
	t['T'], t['t'] = CodeT, CodeT
	return t
}

// baseTable maps a base code back to its ASCII byte.
var baseTable = [5]byte{'A', 'C', 'G', 'T', 'N'}

// complementTable maps an ASCII base to its Watson-Crick complement.
var complementTable = buildComplementTable()

func buildComplementTable() [256]byte {
	var t [256]byte
	for i := range t {
		t[i] = 'N'
	}
	t['A'], t['a'] = 'T', 'T'
	t['C'], t['c'] = 'G', 'G'
	t['G'], t['g'] = 'C', 'C'
	t['T'], t['t'] = 'A', 'A'
	return t
}

// Code returns the base code (CodeA..CodeN) for an ASCII nucleotide.
func Code(b byte) byte { return codeTable[b] }

// Base returns the ASCII nucleotide for a base code.
func Base(code byte) byte {
	if int(code) >= len(baseTable) {
		return 'N'
	}
	return baseTable[code]
}

// AppendCodes appends the base codes (CodeA..CodeN) of s to dst and
// returns the extended slice. Aligner kernels pre-encode each tile once
// with this instead of decoding ASCII per DP cell (Section 7's
// ASCII-to-3-bit converter, hoisted out of the inner loop).
func AppendCodes(dst []byte, s Seq) []byte {
	for _, b := range s {
		dst = append(dst, codeTable[b])
	}
	return dst
}

// AppendCodesReversed appends the base codes of s in reverse order,
// letting GACT's right extension precode reversed tiles directly from
// the forward sequence without materializing a reversed copy.
func AppendCodesReversed(dst []byte, s Seq) []byte {
	for i := len(s) - 1; i >= 0; i-- {
		dst = append(dst, codeTable[s[i]])
	}
	return dst
}

// AppendRevComp appends the reverse complement of s to dst and returns
// the extended slice — RevComp without the per-call allocation, for
// hot paths that reuse a scratch buffer across reads.
func AppendRevComp(dst Seq, s Seq) Seq {
	off := len(dst)
	dst = append(dst, s...)
	buf := dst[off:]
	for i, j := 0, len(buf)-1; i <= j; i, j = i+1, j-1 {
		buf[i], buf[j] = complementTable[buf[j]], complementTable[buf[i]]
	}
	return dst
}

// Seq is a nucleotide sequence stored as upper-case ASCII bytes.
type Seq []byte

// NewSeq normalizes s to upper-case ACGTN and returns it as a Seq.
func NewSeq(s string) Seq {
	out := make(Seq, len(s))
	for i := 0; i < len(s); i++ {
		out[i] = Base(Code(s[i]))
	}
	return out
}

// String returns the sequence as a plain string.
func (s Seq) String() string { return string(s) }

// Clone returns an independent copy of s.
func (s Seq) Clone() Seq {
	out := make(Seq, len(s))
	copy(out, s)
	return out
}

// RevComp returns the reverse complement of s as a new sequence.
func RevComp(s Seq) Seq {
	out := make(Seq, len(s))
	for i, b := range s {
		out[len(s)-1-i] = complementTable[b]
	}
	return out
}

// Reverse returns s reversed (no complement) as a new sequence. GACT uses
// reversed sequences for right extension (Section 4).
func Reverse(s Seq) Seq {
	out := make(Seq, len(s))
	for i, b := range s {
		out[len(s)-1-i] = b
	}
	return out
}

// MaxSeedSize is the largest seed (k-mer) size representable as a packed
// 2-bit code in a uint32, matching Darwin's k ≤ 15 seed-pointer table.
const MaxSeedSize = 15

// PackSeed packs the k bases starting at s[pos] into a 2-bit code.
// It returns ok=false if the window contains an N or falls off the end;
// such seeds are skipped, as in the hardware (N has no 2-bit code).
func PackSeed(s Seq, pos, k int) (code uint32, ok bool) {
	if k <= 0 || k > MaxSeedSize || pos < 0 || pos+k > len(s) {
		return 0, false
	}
	for i := 0; i < k; i++ {
		c := codeTable[s[pos+i]]
		if c == CodeN {
			return 0, false
		}
		code = code<<2 | uint32(c)
	}
	return code, true
}

// UnpackSeed expands a packed 2-bit seed code of size k back to ASCII.
func UnpackSeed(code uint32, k int) Seq {
	out := make(Seq, k)
	for i := k - 1; i >= 0; i-- {
		out[i] = baseTable[code&3]
		code >>= 2
	}
	return out
}

// NumSeeds returns 4^k, the number of distinct seeds of size k.
func NumSeeds(k int) int { return 1 << (2 * uint(k)) }

// Random returns a length-n sequence drawn from rng with the given GC
// content (probability of each base being G or C). gc=0.5 is uniform.
func Random(rng *rand.Rand, n int, gc float64) Seq {
	out := make(Seq, n)
	for i := range out {
		r := rng.Float64()
		if r < gc {
			if rng.Intn(2) == 0 {
				out[i] = 'G'
			} else {
				out[i] = 'C'
			}
		} else {
			if rng.Intn(2) == 0 {
				out[i] = 'A'
			} else {
				out[i] = 'T'
			}
		}
	}
	return out
}

// MutatePoint returns a base different from b, drawn uniformly from the
// other three nucleotides. If b is not a concrete base, a random base is
// returned.
func MutatePoint(rng *rand.Rand, b byte) byte {
	c := codeTable[b]
	if c == CodeN {
		return baseTable[rng.Intn(NumBases)]
	}
	nc := byte(rng.Intn(NumBases - 1))
	if nc >= c {
		nc++
	}
	return baseTable[nc]
}

// GCContent returns the fraction of G/C bases in s (N bases are excluded
// from the denominator). Returns 0 for sequences with no concrete bases.
func GCContent(s Seq) float64 {
	gc, acgt := 0, 0
	for _, b := range s {
		switch codeTable[b] {
		case CodeG, CodeC:
			gc++
			acgt++
		case CodeA, CodeT:
			acgt++
		}
	}
	if acgt == 0 {
		return 0
	}
	return float64(gc) / float64(acgt)
}

// Validate reports an error if s contains a byte outside {A,C,G,T,N}.
func Validate(s Seq) error {
	for i, b := range s {
		switch b {
		case 'A', 'C', 'G', 'T', 'N':
		default:
			return fmt.Errorf("dna: invalid byte %q at position %d", b, i)
		}
	}
	return nil
}

// FormatWidth wraps s into lines of the given width, FASTA-style.
func FormatWidth(s Seq, width int) string {
	if width <= 0 || len(s) <= width {
		return string(s)
	}
	var b strings.Builder
	for i := 0; i < len(s); i += width {
		end := i + width
		if end > len(s) {
			end = len(s)
		}
		b.Write(s[i:end])
		if end != len(s) {
			b.WriteByte('\n')
		}
	}
	return b.String()
}
