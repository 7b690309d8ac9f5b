package olc

import (
	"context"
	"fmt"

	"darwin/internal/core"
	"darwin/internal/dna"
)

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
// The votes are MapPileup's: workers goroutines (0 =
// core.DefaultWorkers), output independent of workers, cancellation
// checked between reads, and a read whose mapping fails fails the
// polish.
func PolishContext(ctx context.Context, draft dna.Seq, reads []dna.Seq, cfg core.Config, workers int) (dna.Seq, error) {
	cols, err := MapPileup(ctx, draft, reads, cfg, workers)
	if err != nil {
		return nil, fmt.Errorf("olc: polish: %w", err)
	}

	out := make(dna.Seq, 0, len(draft))
	for i := range cols {
		c := &cols[i]
		if c.Cov == 0 {
			out = append(out, draft[i])
			continue
		}
		// Deletion call: like insertions below, a third of the
		// coverage suffices — deleting one copy of a homopolymer run
		// is placed at different columns by different reads, so a
		// true extra base's votes split across the run while spurious
		// votes stay near the per-read deletion rate (~4.5%).
		if c.Del*3 > c.Cov {
			// Position dropped; insertions recorded after it still apply.
		} else {
			bestBase, bestVotes := draft[i], int32(0)
			for code, v := range c.Base {
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
		// The most-voted insertion wins if a strict majority of
		// covering reads saw an insertion here. A third of the coverage
		// suffices: alignment-placement ambiguity splits a true
		// insertion's votes across neighbouring columns, while spurious
		// read insertions at any one site stay near the per-read
		// insertion rate (~9% for PacBio).
		if top, total := c.TopIns(); total*3 > c.Cov {
			out = append(out, dna.Seq(top.Seq)...)
		}
	}
	return out, nil
}
