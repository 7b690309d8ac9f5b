// Package seedtable implements the seed position table of Section 3
// (Figure 3): for each of the 4^k possible seeds, a pointer table gives
// the span of a position table holding every occurrence of that seed in
// the reference, stored sequentially. Sequential hit storage is the
// property Darwin's D-SOFT accelerator exploits for long DRAM bursts
// (versus suffix trees / BWT-FM indexes, whose lookups are pointer
// chases); the companion fmindex package implements that alternative
// for comparison.
//
// Darwin masks high-frequency seeds — those occurring more than
// 32·|R|/4^k times (Section 5) — to bound worst-case hit lists from
// repeat regions.
package seedtable

import (
	"fmt"
	"sort"

	"darwin/internal/dna"
)

// directLimit is the largest k for which a dense 4^k-entry pointer table
// is allocated (4^12 entries ≈ 67 MB of uint32). Larger k fall back to a
// sorted sparse representation; lookups behave identically.
const directLimit = 12

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
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
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
	if k <= directLimit {
		counts := make([]uint32, dna.NumSeeds(k))
		forEachSeed(ref, k, func(code uint32, _ int) { counts[code]++ })
		for c, n := range counts {
			if int(n) > m.threshold {
				m.codes[uint32(c)] = struct{}{}
			}
		}
		return m, nil
	}
	// Sparse k: sort the code stream and run-length count, the same
	// O(occurrences) strategy buildSparse uses.
	codes := make([]uint32, 0, len(ref))
	forEachSeed(ref, k, func(code uint32, _ int) { codes = append(codes, code) })
	sort.Slice(codes, func(a, b int) bool { return codes[a] < codes[b] })
	for i := 0; i < len(codes); {
		j := i
		for j < len(codes) && codes[j] == codes[i] {
			j++
		}
		if j-i > m.threshold {
			m.codes[codes[i]] = struct{}{}
		}
		i = j
	}
	return m, nil
}

// Table is a seed position table over one reference sequence.
type Table struct {
	k       int
	refLen  int
	maskMax int
	mask    *MaskSet // non-nil: precomputed global mask instead of local counts

	// Dense mode (k ≤ directLimit): ptr has 4^k+1 entries; the hits for
	// seed code c occupy pos[ptr[c]:ptr[c+1]].
	ptr []uint32

	// Sparse mode (k > directLimit): codes lists the distinct seed codes
	// in ascending order and spans[i] delimits pos for codes[i].
	codes []uint32
	spans [][2]uint32

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
	return build(ref, k, opts), nil
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
	return build(ref[start:end], k, opts), nil
}

// build indexes every k-mer of seq under opts' mask.
func build(seq dna.Seq, k int, opts Options) *Table {
	t := &Table{k: k, refLen: len(seq), mask: opts.Mask}
	if opts.Mask != nil {
		t.maskMax = opts.Mask.Threshold()
	} else {
		t.maskMax = opts.maskThreshold(len(seq), k)
	}
	if k <= directLimit {
		t.buildDense(seq)
	} else {
		t.buildSparse(seq)
	}
	return t
}

// buildDense uses a two-pass counting sort into a 4^k+1 pointer table.
func (t *Table) buildDense(ref dna.Seq) {
	n := dna.NumSeeds(t.k)
	counts := make([]uint32, n+1)
	forEachSeed(ref, t.k, func(code uint32, _ int) {
		counts[code+1]++
	})
	// Mask high-frequency seeds by zeroing their counts: seeds in the
	// precomputed global set when one was supplied, else seeds whose
	// local count crosses the threshold.
	switch {
	case t.mask != nil:
		for code := range t.mask.codes {
			if int(code)+1 <= n && counts[code+1] > 0 {
				t.maskedSeeds++
				t.maskedHits += int(counts[code+1])
				counts[code+1] = 0
			}
		}
	case t.maskMax > 0:
		for c := 1; c <= n; c++ {
			if int(counts[c]) > t.maskMax {
				t.maskedSeeds++
				t.maskedHits += int(counts[c])
				counts[c] = 0
			}
		}
	}
	for c := 1; c <= n; c++ {
		counts[c] += counts[c-1]
	}
	t.ptr = counts
	t.pos = make([]uint32, t.ptr[n])
	fill := make([]uint32, n)
	copy(fill, t.ptr[:n])
	forEachSeed(ref, t.k, func(code uint32, i int) {
		if t.ptr[code+1] == t.ptr[code] {
			return // masked (or impossible) seed
		}
		t.pos[fill[code]] = uint32(i)
		fill[code]++
	})
}

// buildSparse sorts (code, position) pairs packed into uint64s and
// derives per-code spans; memory is O(occurrences) instead of O(4^k).
func (t *Table) buildSparse(ref dna.Seq) {
	pairs := make([]uint64, 0, len(ref))
	forEachSeed(ref, t.k, func(code uint32, i int) {
		pairs = append(pairs, uint64(code)<<32|uint64(uint32(i)))
	})
	sort.Slice(pairs, func(a, b int) bool { return pairs[a] < pairs[b] })
	t.pos = make([]uint32, 0, len(pairs))
	for i := 0; i < len(pairs); {
		code := uint32(pairs[i] >> 32)
		j := i
		for j < len(pairs) && uint32(pairs[j]>>32) == code {
			j++
		}
		masked := (t.mask != nil && t.mask.Masked(code)) ||
			(t.mask == nil && t.maskMax > 0 && j-i > t.maskMax)
		if masked {
			t.maskedSeeds++
			t.maskedHits += j - i
			i = j
			continue
		}
		start := uint32(len(t.pos))
		for ; i < j; i++ {
			t.pos = append(t.pos, uint32(pairs[i]))
		}
		t.codes = append(t.codes, code)
		t.spans = append(t.spans, [2]uint32{start, uint32(len(t.pos))})
	}
}

func forEachSeed(ref dna.Seq, k int, fn func(code uint32, pos int)) {
	// Incremental rolling pack: maintain the 2k-bit window, resetting
	// after an N. This is O(|ref|) rather than O(|ref|·k).
	mask := uint32(dna.NumSeeds(k) - 1)
	var code uint32
	valid := 0
	for i := 0; i < len(ref); i++ {
		c := dna.Code(ref[i])
		if c == dna.CodeN {
			valid = 0
			code = 0
			continue
		}
		code = (code<<2 | uint32(c)) & mask
		valid++
		if valid >= k {
			fn(code, i-k+1)
		}
	}
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

// Bytes returns the table's retained heap footprint (pointer table or
// sparse code/span index plus the position table) — the quantity a
// byte-budgeted shard set accounts against its MaxResidentBytes.
func (t *Table) Bytes() int64 {
	return int64(len(t.ptr))*4 + int64(len(t.pos))*4 +
		int64(len(t.codes))*4 + int64(len(t.spans))*8
}

// Lookup returns the reference positions of the seed with the given
// packed code, in ascending order. The returned slice aliases internal
// storage and must not be modified. Masked and absent seeds return nil,
// and so does a seed whose pointer pair a corrupt (yet CRC-valid) index
// file made decreasing or ran past the position table: FromParts checks
// only the pointer table's last entry, since a full check would read
// all 4^k pointers, every page of a mapped file, at open.
func (t *Table) Lookup(code uint32) []uint32 {
	if t.ptr != nil {
		if int(code) >= len(t.ptr)-1 {
			return nil
		}
		s, e := t.ptr[code], t.ptr[code+1]
		if s >= e || int(e) > len(t.pos) {
			return nil
		}
		return t.pos[s:e]
	}
	i := sort.Search(len(t.codes), func(i int) bool { return t.codes[i] >= code })
	if i == len(t.codes) || t.codes[i] != code {
		return nil
	}
	sp := t.spans[i]
	return t.pos[sp[0]:sp[1]]
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
	K            int
	RefLen       int
	Positions    int
	MaskedSeeds  int
	MaskedHits   int
	HitsPerSeed  float64 // mean hits per possible seed value (paper Table 3 column)
	PointerBytes int64
	PositionByte int64
}

// Stats computes summary statistics. HitsPerSeed is the expected hit
// count for a uniformly random seed drawn from the reference itself,
// i.e. Σ count(s)² / Σ count(s), matching how "hits/seed" behaves for
// query seeds that come from the same genome (Table 3).
func (t *Table) Stats() Stats {
	st := Stats{
		K:           t.k,
		RefLen:      t.refLen,
		Positions:   len(t.pos),
		MaskedSeeds: t.maskedSeeds,
		MaskedHits:  t.maskedHits,
	}
	if t.ptr != nil {
		st.PointerBytes = int64(len(t.ptr)) * 4
		var sumSq, sum float64
		for c := 0; c+1 < len(t.ptr); c++ {
			n := float64(t.ptr[c+1] - t.ptr[c])
			sumSq += n * n
			sum += n
		}
		if sum > 0 {
			st.HitsPerSeed = sumSq / sum
		}
	} else {
		st.PointerBytes = int64(len(t.codes)) * 12 // code + span
		var sumSq, sum float64
		for _, sp := range t.spans {
			n := float64(sp[1] - sp[0])
			sumSq += n * n
			sum += n
		}
		if sum > 0 {
			st.HitsPerSeed = sumSq / sum
		}
	}
	st.PositionByte = int64(len(t.pos)) * 4
	return st
}
