package olc

import (
	"context"
	"fmt"

	"darwin/internal/align"
	"darwin/internal/core"
	"darwin/internal/dna"
)

// pileupBatch bounds how many reads are mapped before their votes are
// folded, so the alignments (CIGARs) held at once stay bounded however
// large the read set.
const pileupBatch = 256

// Column is how the reads aligned over one reference position vote.
type Column struct {
	Base [4]int32         // votes for A/C/G/T at this position
	Del  int32            // votes to delete this position
	Ins  map[string]int32 // votes for an insertion after this position
	Cov  int32            // reads covering this position
}

// Pileup stacks aligned reads column by column against one sequence: a
// draft contig for consensus polishing, the reference for variant
// calling (internal/varcall). The two differ only in the rule that
// reads the columns.
type Pileup []Column

// Add folds one alignment of read into the columns it covers; a
// reverse-strand alignment votes the read's reverse complement.
func (p Pileup) Add(read dna.Seq, aln *core.ReadAlignment) {
	q := read
	if aln.Reverse {
		q = dna.RevComp(read)
	}
	i, j := aln.Result.RefStart, aln.Result.QueryStart
	for _, s := range aln.Result.Cigar {
		switch s.Op {
		case align.OpMatch:
			for x := 0; x < s.Len; x++ {
				c := &p[i+x]
				c.Cov++
				if code := dna.Code(q[j+x]); code < 4 {
					c.Base[code]++
				}
			}
			i += s.Len
			j += s.Len
		case align.OpDel:
			for x := 0; x < s.Len; x++ {
				c := &p[i+x]
				c.Cov++
				c.Del++
			}
			i += s.Len
		case align.OpIns:
			if i > 0 {
				c := &p[i-1]
				if c.Ins == nil {
					c.Ins = make(map[string]int32)
				}
				c.Ins[string(q[j:j+s.Len])]++
			}
			j += s.Len
		}
	}
}

// MapPileup maps reads onto ref with the Darwin engine and piles up
// each read's best alignment. Reads are mapped in batches on workers
// engine clones (0 = core.DefaultWorkers) and folded in read order;
// votes are integer counts, so the pileup does not depend on workers.
// A read whose mapping fails (core.MapResult.Err) fails the pileup
// rather than silently losing its votes, and cancellation returns
// ctx.Err().
func MapPileup(ctx context.Context, ref dna.Seq, reads []dna.Seq, cfg core.Config, workers int) (Pileup, error) {
	engine, err := core.New(ref, cfg)
	if err != nil {
		return nil, err
	}
	workers = core.DefaultWorkers(workers)
	p := make(Pileup, len(ref))
	for lo := 0; lo < len(reads); lo += pileupBatch {
		batch := reads[lo:min(lo+pileupBatch, len(reads))]
		results, err := engine.Map(ctx, batch, core.WithWorkers(workers))
		if err != nil {
			return nil, err
		}
		for i := range results {
			if err := results[i].Err; err != nil {
				return nil, fmt.Errorf("mapping read %d: %w", lo+i, err)
			}
			if best := core.Best(results[i].Alignments); best != nil {
				p.Add(batch[i], best)
			}
		}
	}
	return p, nil
}
