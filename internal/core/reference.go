package core

import (
	"fmt"
	"sort"

	"darwin/internal/dna"
)

// Reference is a multi-sequence reference (e.g. the 24 nuclear
// chromosomes of GRCh38, Section 8) concatenated into one indexable
// sequence. Sequences are separated by N padding, which contributes
// no seeds and no alignment score, so seeding and extension never
// produce cross-chromosome artifacts; coordinates map back through
// Locate.
type Reference struct {
	seq     dna.Seq
	names   []string
	offsets []int
	lengths []int
}

// NewReference concatenates records with N padding to multiples of
// pad (use the D-SOFT bin size, as the de novo pipeline does). Every
// pair of adjacent sequences is separated by at least one full-N
// region — when a sequence's length is already a multiple of pad, a
// whole pad block is inserted so seeds and extension can never bridge
// two sequences. Only the final sequence may go unpadded, keeping
// total concatenated length minimal.
func NewReference(recs []dna.Record, pad int) (*Reference, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("core: no reference sequences")
	}
	if pad <= 0 {
		pad = 128
	}
	r := &Reference{}
	for i, rec := range recs {
		if len(rec.Seq) == 0 {
			return nil, fmt.Errorf("core: reference sequence %q is empty", rec.Name)
		}
		r.names = append(r.names, rec.Name)
		r.offsets = append(r.offsets, len(r.seq))
		r.lengths = append(r.lengths, len(rec.Seq))
		r.seq = append(r.seq, rec.Seq...)
		npad := 0
		if rem := len(rec.Seq) % pad; rem != 0 {
			npad = pad - rem
		} else if i != len(recs)-1 {
			npad = pad
		}
		for ; npad > 0; npad-- {
			r.seq = append(r.seq, 'N')
		}
	}
	return r, nil
}

// NewReferenceFromMeta reconstructs a Reference around an already
// concatenated sequence and its recorded layout — the path a
// persistent index load takes, where seq is a view over mapped file
// bytes and the names/offsets/lengths come from the index header
// instead of a fresh NewReference concatenation.
func NewReferenceFromMeta(seq dna.Seq, names []string, offsets, lengths []int) (*Reference, error) {
	if err := checkLayout(names, offsets, lengths, len(seq)); err != nil {
		return nil, err
	}
	return &Reference{seq: seq, names: names, offsets: offsets, lengths: lengths}, nil
}

// NewReferenceLayout builds a Reference carrying only the coordinate
// layout — no resident sequence. This is the cluster router's view: it
// translates global alignment spans back to per-sequence coordinates
// (LocateSpan, Name) from a worker-advertised layout without ever
// holding reference bases. total is the concatenated length the layout
// describes; Seq returns nil, so only coordinate methods may be used.
func NewReferenceLayout(names []string, offsets, lengths []int, total int) (*Reference, error) {
	if err := checkLayout(names, offsets, lengths, total); err != nil {
		return nil, err
	}
	return &Reference{names: names, offsets: offsets, lengths: lengths}, nil
}

// checkLayout validates a recorded layout of total concatenated bases:
// at least one sequence, one offset and one length per name, positive
// lengths, and sequences in order, disjoint and inside total.
func checkLayout(names []string, offsets, lengths []int, total int) error {
	if len(names) == 0 {
		return fmt.Errorf("core: no reference sequences")
	}
	if len(offsets) != len(names) || len(lengths) != len(names) {
		return fmt.Errorf("core: %d names vs %d offsets vs %d lengths", len(names), len(offsets), len(lengths))
	}
	prevEnd := 0
	for i := range names {
		if lengths[i] <= 0 {
			return fmt.Errorf("core: reference sequence %q has non-positive length %d", names[i], lengths[i])
		}
		if offsets[i] < prevEnd {
			return fmt.Errorf("core: reference sequence %q at offset %d overlaps its predecessor ending at %d",
				names[i], offsets[i], prevEnd)
		}
		prevEnd = offsets[i] + lengths[i]
	}
	if prevEnd > total {
		return fmt.Errorf("core: reference layout spans %d bases but the reference has %d", prevEnd, total)
	}
	return nil
}

// Seq returns the concatenated sequence the engine indexes.
func (r *Reference) Seq() dna.Seq { return r.seq }

// NumSeqs returns the number of reference sequences.
func (r *Reference) NumSeqs() int { return len(r.names) }

// Name and Len describe sequence i.
func (r *Reference) Name(i int) string { return r.names[i] }

// Len returns the length of sequence i.
func (r *Reference) Len(i int) int { return r.lengths[i] }

// Offset returns sequence i's global offset in the concatenation.
func (r *Reference) Offset(i int) int { return r.offsets[i] }

// Locate maps a concatenated-coordinate position to (sequence index,
// local position). Positions inside padding map to the preceding
// sequence, clamped to its end.
func (r *Reference) Locate(pos int) (int, int) {
	i := sort.SearchInts(r.offsets, pos+1) - 1
	if i < 0 {
		i = 0
	}
	local := pos - r.offsets[i]
	if local > r.lengths[i] {
		local = r.lengths[i]
	}
	return i, local
}

// LocateSpan maps a concatenated [start, end) span to a sequence and
// local coordinates, clipping any padding overhang. It reports an
// error if the span straddles two sequences (possible only for
// degenerate alignments bridging ≥ pad Ns, which score nothing).
func (r *Reference) LocateSpan(start, end int) (seq int, localStart, localEnd int, err error) {
	si, ls := r.Locate(start)
	ei, le := r.Locate(end - 1)
	if si != ei {
		return 0, 0, 0, fmt.Errorf("core: span [%d,%d) crosses reference sequences %q and %q",
			start, end, r.names[si], r.names[ei])
	}
	le++
	if le > r.lengths[si] {
		le = r.lengths[si]
	}
	return si, ls, le, nil
}

// NewMulti indexes a multi-sequence reference. The returned engine's
// alignments use concatenated coordinates; use the Reference to map
// them back.
func NewMulti(recs []dna.Record, cfg Config) (*Darwin, *Reference, error) {
	ref, err := NewReference(recs, cfg.BinSize)
	if err != nil {
		return nil, nil, err
	}
	d, err := New(ref.Seq(), cfg)
	if err != nil {
		return nil, nil, err
	}
	return d, ref, nil
}
