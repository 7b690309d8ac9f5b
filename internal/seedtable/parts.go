package seedtable

import (
	"fmt"

	"darwin/internal/dna"
)

// Parts is the flat storage of a built Table: every scalar and slice a
// serializer needs to reconstruct the table exactly. The slices are the
// table's live in-memory layout — a persistent index file (package
// indexfile) writes them verbatim and hands back FromParts views over
// mapped memory, so a loaded table is the built table, not a decode of
// it. This mirrors the property Darwin's hardware depends on: the seed
// position table is a dense pointer array over sequentially stored hit
// lists (Section 3, Figure 3), with no pointer graph to fix up.
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

	// Ptr is the dense pointer table (4^K+1 entries); nil in sparse
	// mode (K > directLimit).
	Ptr []uint32
	// Codes and Spans are the sparse index; nil in dense mode.
	Codes []uint32
	Spans [][2]uint32
	// Pos is the position table shared by both modes.
	Pos []uint32
}

// Dense reports whether the parts describe a dense pointer table.
func (p Parts) Dense() bool { return p.K <= directLimit }

// Parts exposes the table's flat storage for serialization. The slices
// alias the table's internal storage and must not be modified.
func (t *Table) Parts() Parts {
	return Parts{
		K:             t.k,
		RefLen:        t.refLen,
		MaskThreshold: t.maskMax,
		MaskedSeeds:   t.maskedSeeds,
		MaskedHits:    t.maskedHits,
		Ptr:           t.ptr,
		Codes:         t.codes,
		Spans:         t.spans,
		Pos:           t.pos,
	}
}

// FromParts reconstructs a Table from its flat storage. The slices are
// retained, not copied, so views over read-only mapped memory work
// directly; the table never writes to them after construction. It
// validates the structural invariants that keep Lookup in bounds —
// content integrity (bit flips) is the index file's checksum job.
func FromParts(p Parts) (*Table, error) {
	if err := checkK(p.K, p.RefLen, "window"); err != nil {
		return nil, err
	}
	t := &Table{
		k:           p.K,
		refLen:      p.RefLen,
		maskMax:     p.MaskThreshold,
		maskedSeeds: p.MaskedSeeds,
		maskedHits:  p.MaskedHits,
	}
	if p.Dense() {
		if len(p.Codes) != 0 || len(p.Spans) != 0 {
			return nil, fmt.Errorf("seedtable: dense table (k=%d) carries sparse sections", p.K)
		}
		if want := dna.NumSeeds(p.K) + 1; len(p.Ptr) != want {
			return nil, fmt.Errorf("seedtable: pointer table has %d entries, want %d for k=%d", len(p.Ptr), want, p.K)
		}
		if n := p.Ptr[len(p.Ptr)-1]; int(n) != len(p.Pos) {
			return nil, fmt.Errorf("seedtable: pointer table ends at %d but position table has %d entries", n, len(p.Pos))
		}
		t.ptr = p.Ptr
	} else {
		if len(p.Ptr) != 0 {
			return nil, fmt.Errorf("seedtable: sparse table (k=%d) carries a dense pointer section", p.K)
		}
		if len(p.Codes) != len(p.Spans) {
			return nil, fmt.Errorf("seedtable: %d sparse codes but %d spans", len(p.Codes), len(p.Spans))
		}
		for i, sp := range p.Spans {
			if sp[0] > sp[1] || int(sp[1]) > len(p.Pos) {
				return nil, fmt.Errorf("seedtable: span %d [%d,%d) outside position table of %d entries", i, sp[0], sp[1], len(p.Pos))
			}
		}
		t.codes = p.Codes
		t.spans = p.Spans
	}
	t.pos = p.Pos
	return t, nil
}
