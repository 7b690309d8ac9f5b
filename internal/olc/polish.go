package olc

import (
	"context"
	"fmt"
	"sort"

	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/obs"
)

// tPolish is outside the stage/ namespace: polishing internally
// re-enters the filter/align stage timers, so counting it as its own
// stage would double-book that time.
var tPolish = obs.Default.Timer("olc/polish")

// polishBatch bounds how many reads are mapped before their votes are
// folded, so the alignments (CIGARs) held at once stay bounded however
// large the read set.
const polishBatch = 256

// PolishContext performs the consensus phase of OLC assembly (Section
// 2: "the final DNA sequence is derived by taking a consensus of reads,
// which corrects the vast majority of read errors"): reads are mapped
// back onto the draft contig with the Darwin engine, and each draft
// position is re-called by majority vote over the aligned columns —
// substitutions, deletions, and insertions alike.
//
// With coverage C ≳ 10 the polished contig's error rate drops from the
// raw read rate (~15% for PacBio) to well under 1%, mirroring the
// consensus-accuracy argument of Section 2.
//
// Reads are mapped in batches on workers engine clones (0 =
// core.DefaultWorkers) and their votes folded in read order; votes are
// integer counts, so the output does not depend on workers. ctx is
// checked between reads, and cancellation returns ctx.Err() with a nil
// sequence. A read whose mapping fails (core.MapResult.Err) fails the
// polish rather than silently losing its votes.
func PolishContext(ctx context.Context, draft dna.Seq, reads []dna.Seq, cfg core.Config, workers int) (dna.Seq, error) {
	defer tPolish.Time()()
	defer obs.Trace.Start("olc.polish")()
	engine, err := core.New(draft, cfg)
	if err != nil {
		return nil, err
	}
	workers = core.DefaultWorkers(workers)

	type column struct {
		base [4]int32         // votes for A/C/G/T at this draft position
		del  int32            // votes to delete this position
		ins  map[string]int32 // votes for an insertion after this position
		cov  int32            // reads covering this column
	}
	cols := make([]column, len(draft))

	vote := func(read dna.Seq, best *core.ReadAlignment) {
		q := read
		if best.Reverse {
			q = dna.RevComp(read)
		}
		i, j := best.Result.RefStart, best.Result.QueryStart
		for _, s := range best.Result.Cigar {
			switch s.Op {
			case 'M':
				for x := 0; x < s.Len; x++ {
					c := &cols[i+x]
					c.cov++
					if code := dna.Code(q[j+x]); code < 4 {
						c.base[code]++
					}
				}
				i += s.Len
				j += s.Len
			case 'D':
				for x := 0; x < s.Len; x++ {
					c := &cols[i+x]
					c.cov++
					c.del++
				}
				i += s.Len
			case 'I':
				if i > 0 {
					c := &cols[i-1]
					if c.ins == nil {
						c.ins = make(map[string]int32)
					}
					c.ins[string(q[j:j+s.Len])]++
				}
				j += s.Len
			}
		}
	}
	for lo := 0; lo < len(reads); lo += polishBatch {
		batch := reads[lo:min(lo+polishBatch, len(reads))]
		results, err := engine.Map(ctx, batch, core.WithWorkers(workers))
		if err != nil {
			return nil, err
		}
		for i := range results {
			if err := results[i].Err; err != nil {
				return nil, fmt.Errorf("olc: polish: mapping read %d: %w", lo+i, err)
			}
			if best := core.Best(results[i].Alignments); best != nil {
				vote(batch[i], best)
			}
		}
	}

	out := make(dna.Seq, 0, len(draft))
	for i := range cols {
		c := &cols[i]
		if c.cov == 0 {
			out = append(out, draft[i])
			continue
		}
		// Deletion call: like insertions below, a third of the
		// coverage suffices — deleting one copy of a homopolymer run
		// is placed at different columns by different reads, so a
		// true extra base's votes split across the run while spurious
		// votes stay near the per-read deletion rate (~4.5%).
		if c.del*3 > c.cov {
			// Position dropped; insertions recorded after it still apply.
		} else {
			bestBase, bestVotes := draft[i], int32(0)
			for code, v := range c.base {
				if v > bestVotes {
					bestVotes = v
					bestBase = dna.Base(byte(code))
				}
			}
			if bestVotes == 0 {
				bestBase = draft[i]
			}
			out = append(out, bestBase)
		}
		if len(c.ins) > 0 {
			// The most-voted insertion wins if a strict majority of
			// covering reads saw an insertion here.
			var total int32
			type iv struct {
				s string
				n int32
			}
			var ivs []iv
			for s, n := range c.ins {
				total += n
				ivs = append(ivs, iv{s, n})
			}
			// A third of the coverage suffices: alignment-placement
			// ambiguity splits a true insertion's votes across
			// neighbouring columns, while spurious read insertions at
			// any one site stay near the per-read insertion rate
			// (~9% for PacBio).
			if total*3 > c.cov {
				sort.Slice(ivs, func(a, b int) bool {
					if ivs[a].n != ivs[b].n {
						return ivs[a].n > ivs[b].n
					}
					return ivs[a].s < ivs[b].s
				})
				out = append(out, dna.Seq(ivs[0].s)...)
			}
		}
	}
	return out, nil
}
