// Package olc implements the layout and consensus phases of
// overlap-layout-consensus assembly (Section 2 of the paper): Darwin
// accelerates the overlap phase, which dominates OLC runtime; this
// package turns its overlaps into draft contigs so the de novo
// pipeline is end-to-end runnable.
//
// Layout is a greedy merge over overlaps (highest score first): each
// read starts as its own contig fragment; an overlap between reads in
// different fragments rigidly places one fragment — translation plus,
// when orientations disagree, a reflection — into the other's
// coordinate frame. Cycles (overlaps within one fragment) are skipped.
// Consensus splices reads at overlap boundaries, the classical draft
// construction that long-read pipelines later polish.
package olc

import (
	"context"
	"fmt"
	"sort"

	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/obs"
)

// Layout is a disjoint pipeline stage; polishing re-runs the engine's
// filter and align stages internally, so its timer deliberately lives
// outside the stage/ namespace (see package obs) to keep stage sums
// honest.
var (
	tLayout  = obs.Default.Timer("stage/layout")
	cContigs = obs.Default.Counter("olc/contigs")
)

// Placement positions one read inside a contig frame.
type Placement struct {
	// Read is the read index.
	Read int
	// Rev is true if the read participates reverse-complemented.
	Rev bool
	// Offset is the read's start position in contig coordinates.
	Offset int
}

// Contig is an ordered list of placements, sorted by offset and
// normalized to start at 0.
type Contig struct {
	Placements []Placement
	// Len is the contig extent implied by the placements.
	Len int
}

// Layout groups reads into contigs, largest first.
type Layout struct {
	Contigs []Contig
}

// fragment is a mutable contig under construction.
type fragment struct {
	placements []Placement
}

// span returns the fragment's [lo, hi) extent in its own frame.
func (f *fragment) span(readLens []int) (int, int) {
	lo, hi := 1<<60, -(1 << 60)
	for _, p := range f.placements {
		if p.Offset < lo {
			lo = p.Offset
		}
		if end := p.Offset + readLens[p.Read]; end > hi {
			hi = end
		}
	}
	return lo, hi
}

// BuildLayoutContext constructs contigs from overlaps; readLens gives
// each read's length. ctx is checked periodically during the greedy
// merge, and cancellation returns ctx.Err() with a nil layout.
func BuildLayoutContext(ctx context.Context, readLens []int, overlaps []core.Overlap) (*Layout, error) {
	defer tLayout.Time()()
	defer obs.Trace.Start("olc.layout")()
	n := len(readLens)

	// Canonical processing order: score descending, ties broken on the
	// unordered pair, then orientation, then coordinates.
	ovs := append([]core.Overlap(nil), overlaps...)
	sort.Slice(ovs, func(x, y int) bool {
		if ovs[x].Score != ovs[y].Score {
			return ovs[x].Score > ovs[y].Score
		}
		xa, xb := ovs[x].Pair()
		ya, yb := ovs[y].Pair()
		if xa != ya {
			return xa < ya
		}
		if xb != yb {
			return xb < yb
		}
		if ovs[x].QueryRev != ovs[y].QueryRev {
			return !ovs[x].QueryRev
		}
		if ovs[x].TargetStart != ovs[y].TargetStart {
			return ovs[x].TargetStart < ovs[y].TargetStart
		}
		return ovs[x].QueryStart < ovs[y].QueryStart
	})

	frags := make([]*fragment, n)
	fragOf := make([]*fragment, n)
	where := make([]Placement, n) // read's placement in its fragment frame
	for i := 0; i < n; i++ {
		f := &fragment{placements: []Placement{{Read: i}}}
		frags[i] = f
		fragOf[i] = f
		where[i] = Placement{Read: i}
	}

	for i := range ovs {
		if i&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		o := &ovs[i]
		a, b := o.Target, o.Query
		fa, fb := fragOf[a], fragOf[b]
		if fa == fb {
			continue // already placed relative to each other
		}
		lenA, lenB := readLens[a], readLens[b]
		pa, pb := where[a], where[b]

		// Place oriented b relative to a-forward: b starts at
		// e.offset = TargetStart − QueryStart in a's forward frame.
		eOffset := o.TargetStart - o.QueryStart
		// Map into fa's frame through a's placement there.
		var wantRev bool
		var wantOff int
		if !pa.Rev {
			wantRev = o.QueryRev
			wantOff = pa.Offset + eOffset
		} else {
			// a is reversed in fa: reflect b's interval through a.
			wantRev = !o.QueryRev
			wantOff = pa.Offset + lenA - eOffset - lenB
		}

		// Rigidly move fb so that b lands at (wantRev, wantOff).
		if pb.Rev != wantRev {
			// Reflect fb in place around its own span.
			lo, hi := fb.span(readLens)
			for j := range fb.placements {
				p := &fb.placements[j]
				p.Rev = !p.Rev
				p.Offset = lo + hi - (p.Offset + readLens[p.Read])
				where[p.Read] = *p
			}
			pb = where[b]
		}
		d := wantOff - pb.Offset
		// Merge smaller fragment into larger.
		if len(fb.placements) > len(fa.placements) {
			// Instead translate fa so a keeps its relation: shifting
			// the union by a constant is free, so translate fa by −d
			// and merge into fb.
			for j := range fa.placements {
				p := &fa.placements[j]
				p.Offset -= d
				where[p.Read] = *p
				fragOf[p.Read] = fb
			}
			fb.placements = append(fb.placements, fa.placements...)
			fa.placements = nil
		} else {
			for j := range fb.placements {
				p := &fb.placements[j]
				p.Offset += d
				where[p.Read] = *p
				fragOf[p.Read] = fa
			}
			fa.placements = append(fa.placements, fb.placements...)
			fb.placements = nil
		}
	}

	layout := &Layout{}
	for _, f := range frags {
		if len(f.placements) == 0 {
			continue
		}
		ps := append([]Placement(nil), f.placements...)
		sort.Slice(ps, func(x, y int) bool {
			if ps[x].Offset != ps[y].Offset {
				return ps[x].Offset < ps[y].Offset
			}
			return ps[x].Read < ps[y].Read
		})
		base := ps[0].Offset
		length := 0
		for j := range ps {
			ps[j].Offset -= base
			if end := ps[j].Offset + readLens[ps[j].Read]; end > length {
				length = end
			}
		}
		layout.Contigs = append(layout.Contigs, Contig{Placements: ps, Len: length})
	}
	sort.Slice(layout.Contigs, func(a, b int) bool {
		if layout.Contigs[a].Len != layout.Contigs[b].Len {
			return layout.Contigs[a].Len > layout.Contigs[b].Len
		}
		return layout.Contigs[a].Placements[0].Read < layout.Contigs[b].Placements[0].Read
	})
	cContigs.Add(int64(len(layout.Contigs)))
	return layout, nil
}

// Splice builds a draft contig sequence by walking placements in
// order and appending each read's not-yet-covered suffix. Contained
// reads are skipped; layout gaps (no overlap coverage) fall back to
// appending the whole read.
func Splice(reads []dna.Seq, c Contig) dna.Seq {
	var out dna.Seq
	end := 0 // contig coordinate covered so far
	for _, p := range c.Placements {
		r := reads[p.Read]
		if p.Rev {
			r = dna.RevComp(r)
		}
		readEnd := p.Offset + len(r)
		if readEnd <= end {
			continue // contained
		}
		start := end - p.Offset
		if start < 0 {
			start = 0 // coverage gap
		}
		out = append(out, r[start:]...)
		end = readEnd
	}
	return out
}

// Stats summarizes an assembly.
type Stats struct {
	Contigs      int
	TotalLen     int
	LargestLen   int
	N50          int
	ReadsPlaced  int
	SingletonCnt int
}

// Summarize computes assembly statistics for a layout.
func Summarize(l *Layout) Stats {
	var s Stats
	lens := make([]int, 0, len(l.Contigs))
	for _, c := range l.Contigs {
		s.Contigs++
		s.TotalLen += c.Len
		if c.Len > s.LargestLen {
			s.LargestLen = c.Len
		}
		s.ReadsPlaced += len(c.Placements)
		if len(c.Placements) == 1 {
			s.SingletonCnt++
		}
		lens = append(lens, c.Len)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(lens)))
	acc := 0
	for _, ln := range lens {
		acc += ln
		if acc*2 >= s.TotalLen {
			s.N50 = ln
			break
		}
	}
	return s
}

// String renders the stats on one line.
func (s Stats) String() string {
	return fmt.Sprintf("contigs=%d total=%d largest=%d N50=%d reads=%d singletons=%d",
		s.Contigs, s.TotalLen, s.LargestLen, s.N50, s.ReadsPlaced, s.SingletonCnt)
}
