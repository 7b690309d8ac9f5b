package seedtable

import (
	"fmt"
	"math/bits"

	"darwin/internal/dna"
)

// Parts is the flat storage of a built Table: every scalar and slice a
// serializer needs to reconstruct the table exactly. The slices are the
// table's live in-memory layout — a persistent index file (package
// indexfile) writes them verbatim and hands back FromParts views over
// mapped memory, so a loaded table is the built table, not a decode of
// it. This mirrors the property Darwin's hardware depends on: the seed
// position table is flat arrays over sequentially stored hit lists
// (Section 3, Figure 3), with no pointer graph to fix up.
type Parts struct {
	// K is the seed size.
	K int
	// RefLen is the indexed window length.
	RefLen int
	// MaskThreshold is the occurrence cutoff applied at build (0 =
	// masking disabled).
	MaskThreshold int
	// MaskedSeeds and MaskedHits record what masking removed.
	MaskedSeeds int
	MaskedHits  int

	// Dir is the rank directory (one word per 32 codes) when
	// K ≤ directLimit, else nil.
	Dir []uint64
	// Codes are the present codes, ascending, when K > directLimit,
	// else nil.
	Codes []uint32
	// Start has one offset into Pos per present code, plus the end.
	Start []uint32
	// Pos is the position table shared by both layouts.
	Pos []uint32
}

// Parts exposes the table's flat storage for serialization. The slices
// alias the table's internal storage and must not be modified.
func (t *Table) Parts() Parts {
	return Parts{
		K:             t.k,
		RefLen:        t.refLen,
		MaskThreshold: t.maskMax,
		MaskedSeeds:   t.maskedSeeds,
		MaskedHits:    t.maskedHits,
		Dir:           t.dir,
		Codes:         t.codes,
		Start:         t.start,
		Pos:           t.pos,
	}
}

// FromParts reconstructs a Table from its flat storage. The slices are
// retained, not copied, so views over read-only mapped memory work
// directly; the table never writes to them after construction. It
// validates, in O(1), the structural invariants the lookup path does
// not check per call — content integrity (bit flips) is the index
// file's checksum job, and Ranks and Hits bound every rank and start
// pair they read.
func FromParts(p Parts) (*Table, error) {
	if err := checkK(p.K, p.RefLen, "window"); err != nil {
		return nil, err
	}
	if len(p.Start) == 0 || p.Start[0] != 0 {
		return nil, fmt.Errorf("seedtable: start array must open with 0 (%d entries)", len(p.Start))
	}
	if n := p.Start[len(p.Start)-1]; int(n) != len(p.Pos) {
		return nil, fmt.Errorf("seedtable: start array ends at %d but position table has %d entries", n, len(p.Pos))
	}
	present := len(p.Start) - 1
	if p.K <= directLimit {
		if len(p.Codes) != 0 {
			return nil, fmt.Errorf("seedtable: directory table (k=%d) carries sorted codes", p.K)
		}
		if want := (dna.NumSeeds(p.K) + 31) / 32; len(p.Dir) != want {
			return nil, fmt.Errorf("seedtable: directory has %d words, want %d for k=%d", len(p.Dir), want, p.K)
		}
		last := p.Dir[len(p.Dir)-1]
		if total := int(last>>32) + bits.OnesCount32(uint32(last)); total != present {
			return nil, fmt.Errorf("seedtable: directory ranks %d codes but start array has %d", total, present)
		}
	} else {
		if len(p.Dir) != 0 {
			return nil, fmt.Errorf("seedtable: sparse table (k=%d) carries a directory", p.K)
		}
		if len(p.Codes) != present {
			return nil, fmt.Errorf("seedtable: %d sparse codes but start array has %d", len(p.Codes), present)
		}
	}
	return &Table{
		k:           p.K,
		refLen:      p.RefLen,
		maskMax:     p.MaskThreshold,
		maskedSeeds: p.MaskedSeeds,
		maskedHits:  p.MaskedHits,
		dir:         p.Dir,
		codes:       p.Codes,
		start:       p.Start,
		pos:         p.Pos,
	}, nil
}
