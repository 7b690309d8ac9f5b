// Package seedtable implements the seed position table of Section 3
// (Figure 3): every occurrence of a seed in the reference, stored
// sequentially in a position table and reached from the seed's packed
// code. Sequential hit storage is the property Darwin's D-SOFT
// accelerator exploits for long DRAM bursts (versus suffix trees /
// BWT-FM indexes, whose lookups are pointer chases); the companion
// fmindex package implements that alternative for comparison.
//
// Figure 3 reaches a seed's hits through a pointer table with one entry
// per possible seed, 4^k in all, which fits the paper's genomes, where
// |R| is close to 4^k. The references here are far smaller, so a table
// is sized to what its reference holds: a code maps to its rank among
// the codes present, the rank to an offset in a start array with one
// entry per present code, and that to the code's hits in pos. For
// k ≤ 12 the rank comes from a directory of 8 bytes per 32 codes
// (occupancy bits plus the rank of the block's first present code); for
// larger k the present codes are kept sorted and a code's rank is its
// index. Ranks resolves a whole batch of codes at once, so D-SOFT
// issues its directory reads back to back before it walks any hits.
//
// Darwin masks high-frequency seeds — those occurring more than
// 32·|R|/4^k times (Section 5) — to bound worst-case hit lists from
// repeat regions.
package seedtable

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"darwin/internal/dna"
)

// directLimit is the largest k whose codes are ranked by a directory
// (4^12 codes cost 4 MiB of directory). Larger k keep their present
// codes sorted instead; lookups behave identically.
const directLimit = 12

// Absent is the rank Ranks gives a code the table does not hold: one
// the reference lacks, or a masked one. Ranks leaves values ≥ Absent
// untouched, so a caller's own sentinel above it rides through a rank
// pass.
const Absent = ^uint32(0) - 1

// noSeed marks a reference window holding a base with no 2-bit code in
// the build's code buffer; Ranks leaves it alone.
const noSeed = ^uint32(0)

// Darwin's masking rule (Section 5): a seed occurring more than
// maskMultiplier·|R|/4^k times is masked. maskFloor keeps the cutoff
// meaningful when |R| ≪ 4^k (scaled-down genomes), where the raw
// formula would mask every seed that occurs at all.
const (
	maskMultiplier = 32
	maskFloor      = 8
)

// Options configures table construction. The zero value is the paper's
// masking rule.
type Options struct {
	// NoMask disables masking entirely.
	NoMask bool
	// Mask, when non-nil, replaces local frequency thresholding with a
	// precomputed masked-seed set (ComputeMask). Sharded builds use
	// this so every shard masks exactly the seeds a whole-reference
	// table would mask — a shard-local count can never cross the
	// global threshold on its own, and Darwin's ASIC likewise applies
	// one reference-wide mask across all four DRAM-channel partitions.
	Mask *MaskSet
}

// MaskSet is a precomputed set of high-frequency seed codes to mask,
// derived from whole-reference occurrence counts by ComputeMask and
// shared across per-shard tables.
type MaskSet struct {
	threshold int
	codes     map[uint32]struct{}
}

// NewMaskSet rebuilds a mask from its serialized form (Codes and
// Threshold), as a persistent index stores it.
func NewMaskSet(threshold int, codes []uint32) *MaskSet {
	m := &MaskSet{threshold: threshold, codes: make(map[uint32]struct{}, len(codes))}
	for _, c := range codes {
		m.codes[c] = struct{}{}
	}
	return m
}

// Masked reports whether code is in the set.
func (m *MaskSet) Masked(code uint32) bool {
	_, ok := m.codes[code]
	return ok
}

// Len returns the number of masked seed codes.
func (m *MaskSet) Len() int { return len(m.codes) }

// Threshold returns the occurrence count above which seeds were masked
// (0 when masking was disabled).
func (m *MaskSet) Threshold() int { return m.threshold }

// Codes returns the masked seed codes in ascending order — the
// serializable form of the set (a persistent index stores these so
// inspection tools can report exactly which seeds the index masked).
func (m *MaskSet) Codes() []uint32 {
	out := make([]uint32, 0, len(m.codes))
	for c := range m.codes {
		out = append(out, c)
	}
	slices.Sort(out)
	return out
}

// maskThreshold computes the occurrence cutoff Build applies for a
// reference of the given length (0 = masking disabled).
func (opts Options) maskThreshold(refLen int, k int) int {
	if opts.NoMask {
		return 0
	}
	return max(maskMultiplier*refLen/dna.NumSeeds(k), maskFloor)
}

// checkK rejects seed sizes the 2-bit packed uint32 codes cannot hold
// and a sequence (what: "reference" or "window") of n bases too short
// to hold one seed.
func checkK(k, n int, what string) error {
	if k < 1 || k > dna.MaxSeedSize {
		return fmt.Errorf("seedtable: seed size %d out of range [1,%d]", k, dna.MaxSeedSize)
	}
	if n < k {
		return fmt.Errorf("seedtable: %s length %d shorter than seed size %d", what, n, k)
	}
	return nil
}

// ComputeMask counts seed occurrences over the whole reference and
// returns the set of codes Build would mask. The result is passed to
// per-shard BuildRange calls via Options.Mask.
func ComputeMask(ref dna.Seq, k int, opts Options) (*MaskSet, error) {
	if err := checkK(k, len(ref), "reference"); err != nil {
		return nil, err
	}
	m := &MaskSet{threshold: opts.maskThreshold(len(ref), k), codes: map[uint32]struct{}{}}
	if m.threshold == 0 {
		return m, nil
	}
	t, _ := index(ref, k, k <= directLimit)
	for _, c := range t.codesOver(m.threshold) {
		m.codes[c] = struct{}{}
	}
	return m, nil
}

// Table is a seed position table over one reference sequence.
type Table struct {
	k       int
	refLen  int
	maskMax int

	// Directory layout (k ≤ directLimit): dir[b] covers codes 32b …
	// 32b+31, their occupancy bits in the low word and the rank of the
	// block's first present code in the high word.
	dir []uint64

	// Sparse layout (k > directLimit): the present codes, ascending; a
	// code's rank is its index.
	codes []uint32

	// start has one entry per present code plus a final one: rank r's
	// hits are pos[start[r]:start[r+1]].
	start []uint32

	// pos is the position table: reference offsets grouped by seed code,
	// ascending within each group.
	pos []uint32

	maskedSeeds int
	maskedHits  int
}

// Build constructs the table for all k-mers of ref.
func Build(ref dna.Seq, k int, opts Options) (*Table, error) {
	if err := checkK(k, len(ref), "reference"); err != nil {
		return nil, err
	}
	return build(ref, k, opts, k <= directLimit), nil
}

// BuildRange constructs a seed table over the reference window
// [start, end) — one shard of a physically partitioned index, the
// software analogue of Darwin tiling its seed-position table across
// four LPDDR4 channels (Section 5). Stored positions are window-local
// (global position minus start) and RefLen reports the window length,
// so a D-SOFT filter over the table sizes its bin state to the shard,
// not the genome.
//
// With opts.Mask = ComputeMask(ref, k, opts) every shard masks exactly
// the globally high-frequency seeds, and Lookup(code) on this table
// returns exactly the whole-reference hit list restricted to start
// positions in [start, end−k], shifted by −start. Without it, masking
// thresholds on the window length, and a seed's fate can differ
// between shard sizes.
func BuildRange(ref dna.Seq, start, end, k int, opts Options) (*Table, error) {
	if start < 0 || end > len(ref) || start >= end {
		return nil, fmt.Errorf("seedtable: window [%d,%d) outside reference [0,%d)", start, end, len(ref))
	}
	if err := checkK(k, end-start, "window"); err != nil {
		return nil, err
	}
	return build(ref[start:end], k, opts, k <= directLimit), nil
}

// build indexes every k-mer of seq under opts' mask, ranking codes by
// a directory or by a sorted code list. Every pass is O(|seq|) plus,
// for a directory, one pass over its 4^k/32 words.
func build(seq dna.Seq, k int, opts Options, directory bool) *Table {
	t, seeds := index(seq, k, directory)
	if opts.Mask != nil {
		t.maskMax = opts.Mask.Threshold()
		t.drop(seeds, opts.Mask.Codes())
	} else if t.maskMax = opts.maskThreshold(len(seq), k); t.maskMax > 0 {
		t.drop(seeds, t.codesOver(t.maskMax))
	}
	t.fill(seeds)
	return t
}

// index rolls every seed of seq into a buffer, indexes the codes
// present, and rewrites the buffer in place to each seed's rank (the
// same Ranks pass D-SOFT runs). It returns the unmasked table with
// start holding each rank's occurrence count, and the rank buffer.
func index(seq dna.Seq, k int, directory bool) (*Table, []uint32) {
	t := &Table{k: k, refLen: len(seq)}
	seeds := rollSeeds(seq, k)
	present := 0
	if directory {
		t.dir = make([]uint64, (dna.NumSeeds(k)+31)/32)
		for _, c := range seeds {
			if c != noSeed {
				t.dir[c>>5] |= 1 << (c & 31)
			}
		}
		present = t.rankDir()
	} else {
		codes := make([]uint32, 0, len(seeds))
		for _, c := range seeds {
			if c != noSeed {
				codes = append(codes, c)
			}
		}
		slices.Sort(codes)
		t.codes = slices.Clone(slices.Compact(codes))
		present = len(t.codes)
	}
	t.start = make([]uint32, present+1)
	t.Ranks(seeds)
	for _, r := range seeds {
		if r < Absent {
			t.start[r]++
		}
	}
	return t, seeds
}

// rollSeeds returns the code of every k-base window of seq, indexed by
// the window's start, or noSeed for a window holding a byte dna.Code
// maps to CodeN. The code rolls over every base (one shift-and-mask
// each), not k bases per window.
func rollSeeds(seq dna.Seq, k int) []uint32 {
	out := make([]uint32, len(seq)-k+1)
	mask := uint32(dna.NumSeeds(k) - 1)
	var code uint32
	valid := 0 // bases since the last N
	for i, b := range seq {
		c := dna.Code(b)
		if c == dna.CodeN {
			valid = 0
		} else {
			valid++
		}
		code = (code<<2 | uint32(c&3)) & mask
		if i >= k-1 {
			if valid >= k {
				out[i-k+1] = code
			} else {
				out[i-k+1] = noSeed
			}
		}
	}
	return out
}

// rankDir writes each directory block's first rank from the occupancy
// bits and returns the number of present codes.
func (t *Table) rankDir() int {
	var r uint32
	for b, w := range t.dir {
		occ := uint32(w)
		t.dir[b] = uint64(r)<<32 | uint64(occ)
		r += uint32(bits.OnesCount32(occ))
	}
	return int(r)
}

// codesOver returns, ascending, the present codes whose occurrence
// count (held in start before fill) exceeds n.
func (t *Table) codesOver(n int) []uint32 {
	var out []uint32
	for r, c := range t.start[:len(t.start)-1] {
		if int(c) > n {
			out = append(out, t.codeOf(r))
		}
	}
	return out
}

// codeOf returns the present code of rank r. In a directory that code
// sits in the last block whose first rank is ≤ r, as the r−first-th
// occupied bit.
func (t *Table) codeOf(r int) uint32 {
	if t.dir == nil {
		return t.codes[r]
	}
	b := sort.Search(len(t.dir), func(b int) bool { return int(t.dir[b]>>32) > r }) - 1
	occ := uint32(t.dir[b])
	for i := r - int(t.dir[b]>>32); i > 0; i-- {
		occ &= occ - 1
	}
	return uint32(b)<<5 | uint32(bits.TrailingZeros32(occ))
}

// drop masks the given codes (ascending; codes the table lacks are
// skipped) before fill: it records them under MaskedSeeds/MaskedHits,
// takes them out of the directory or code list, and renumbers the
// remaining ranks in seeds and in the per-rank counts held in start.
func (t *Table) drop(seeds, gone []uint32) {
	ranks := slices.Clone(gone)
	t.Ranks(ranks)
	ranks = slices.DeleteFunc(ranks, func(r uint32) bool { return r == Absent })
	if len(ranks) == 0 {
		return
	}
	if t.dir != nil {
		for _, c := range gone {
			if int(c>>5) < len(t.dir) {
				t.dir[c>>5] &^= 1 << (c & 31)
			}
		}
		t.rankDir()
	}
	remap := make([]uint32, len(t.start)-1)
	next := uint32(0)
	for r := range remap {
		n := t.start[r]
		if len(ranks) > 0 && ranks[0] == uint32(r) {
			ranks = ranks[1:]
			remap[r] = Absent
			t.maskedSeeds++
			t.maskedHits += int(n)
			continue
		}
		remap[r] = next
		t.start[next] = n
		if t.dir == nil {
			t.codes[next] = t.codes[r]
		}
		next++
	}
	t.start = t.start[:next+1]
	t.start[next] = 0
	if t.dir == nil {
		t.codes = t.codes[:next]
	}
	for i, r := range seeds {
		if r < Absent {
			seeds[i] = remap[r]
		}
	}
}

// fill turns the per-rank counts in start into offsets and stores each
// seed's position under its rank, in reference order, so every hit
// list is ascending.
func (t *Table) fill(seeds []uint32) {
	var sum uint32
	for r, n := range t.start {
		t.start[r] = sum
		sum += n
	}
	t.pos = make([]uint32, sum)
	for i, r := range seeds {
		if r < Absent {
			t.pos[t.start[r]] = uint32(i)
			t.start[r]++
		}
	}
	// Each start[r] now holds rank r's end, which is rank r+1's start.
	copy(t.start[1:], t.start)
	t.start[0] = 0
}

// K returns the seed size.
func (t *Table) K() int { return t.k }

// RefLen returns the indexed reference length.
func (t *Table) RefLen() int { return t.refLen }

// MaskThreshold returns the occurrence count above which seeds were
// masked (0 if masking was disabled).
func (t *Table) MaskThreshold() int { return t.maskMax }

// MaskedSeeds returns how many distinct seeds were masked.
func (t *Table) MaskedSeeds() int { return t.maskedSeeds }

// MaskedHits returns how many reference positions the masked seeds had.
func (t *Table) MaskedHits() int { return t.maskedHits }

// Positions returns the total number of stored (unmasked) positions.
func (t *Table) Positions() int { return len(t.pos) }

// Bytes returns the table's retained heap footprint (directory or
// sorted codes, start and position arrays) — the quantity a
// byte-budgeted shard set accounts against its MaxResidentBytes.
func (t *Table) Bytes() int64 {
	return int64(len(t.dir))*8 + int64(len(t.codes))*4 +
		int64(len(t.start))*4 + int64(len(t.pos))*4
}

// Ranks rewrites each seed code in codes to its rank in the table, or
// to Absent when the table does not hold it. Values ≥ Absent are left
// as they are. A directory word whose rank a corrupt (yet CRC-valid)
// index file pushed past start answers Absent: FromParts checks only
// the directory's last word, since a full check would read every word,
// every page of a mapped file, at open.
func (t *Table) Ranks(codes []uint32) {
	if t.dir == nil {
		for i, c := range codes {
			if c >= Absent {
				continue
			}
			if r, ok := slices.BinarySearch(t.codes, c); ok {
				codes[i] = uint32(r)
			} else {
				codes[i] = Absent
			}
		}
		return
	}
	dir, present := t.dir, uint32(len(t.start)-1)
	for i, c := range codes {
		if c >= Absent {
			continue
		}
		if int(c>>5) >= len(dir) {
			codes[i] = Absent
			continue
		}
		w := dir[c>>5]
		bit := uint32(1) << (c & 31)
		r := uint32(w>>32) + uint32(bits.OnesCount32(uint32(w)&(bit-1)))
		if uint32(w)&bit == 0 || r >= present {
			r = Absent
		}
		codes[i] = r
	}
}

// Hits returns the reference positions of the code with rank r (from
// Ranks), in ascending order. The returned slice aliases internal
// storage and must not be modified. Absent returns nil, and so does a
// rank whose start pair a corrupt index file made decreasing or ran
// past the position table.
func (t *Table) Hits(r uint32) []uint32 {
	if int(r) >= len(t.start)-1 {
		return nil
	}
	s, e := t.start[r], t.start[r+1]
	if s >= e || int(e) > len(t.pos) {
		return nil
	}
	return t.pos[s:e]
}

// Lookup returns the reference positions of the seed with the given
// packed code: its rank, then Hits. Masked and absent seeds return nil.
func (t *Table) Lookup(code uint32) []uint32 {
	r := [1]uint32{code}
	t.Ranks(r[:])
	return t.Hits(r[0])
}

// LookupSeq packs the k bases of q starting at pos and looks them up.
// Seeds containing N return nil (they are skipped, as in hardware).
func (t *Table) LookupSeq(q dna.Seq, pos int) []uint32 {
	code, ok := dna.PackSeed(q, pos, t.k)
	if !ok {
		return nil
	}
	return t.Lookup(code)
}

// Stats summarizes the table for reporting and for the DRAM model.
type Stats struct {
	K           int
	RefLen      int
	Positions   int
	MaskedSeeds int
	MaskedHits  int
	HitsPerSeed float64 // mean hits per possible seed value (paper Table 3 column)
	// PointerBytes is what leads from a code to its hits: the
	// directory (or sorted codes) plus the start array.
	PointerBytes int64
	PositionByte int64
}

// Stats computes summary statistics. HitsPerSeed is the expected hit
// count for a uniformly random seed drawn from the reference itself,
// i.e. Σ count(s)² / Σ count(s), matching how "hits/seed" behaves for
// query seeds that come from the same genome (Table 3).
func (t *Table) Stats() Stats {
	st := Stats{
		K:            t.k,
		RefLen:       t.refLen,
		Positions:    len(t.pos),
		MaskedSeeds:  t.maskedSeeds,
		MaskedHits:   t.maskedHits,
		PointerBytes: t.Bytes() - int64(len(t.pos))*4,
		PositionByte: int64(len(t.pos)) * 4,
	}
	var sumSq, sum float64
	for r := 0; r+1 < len(t.start); r++ {
		n := float64(t.start[r+1] - t.start[r])
		sumSq += n * n
		sum += n
	}
	if sum > 0 {
		st.HitsPerSeed = sumSq / sum
	}
	return st
}
