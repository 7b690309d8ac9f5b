// Package varcall implements pileup-based variant calling on top of
// Darwin's reference-guided alignments — the application the paper's
// introduction motivates (detecting "when genomic mutations
// predispose humans to certain diseases"; reference-guided assembly
// "is good at finding small changes, or variants, in the sequenced
// genome", Section 2).
//
// Reads are mapped with the Darwin engine, aligned columns are piled
// up against the reference, and positions where a majority of
// covering reads disagree with the reference are emitted as SNP,
// insertion, or deletion calls.
package varcall

import (
	"context"
	"fmt"
	"sort"

	"darwin/internal/align"
	"darwin/internal/core"
	"darwin/internal/dna"
)

// Kind classifies a variant call.
type Kind string

// Variant kinds.
const (
	SNP Kind = "snp"
	Ins Kind = "ins"
	Del Kind = "del"
)

// Variant is one call against the reference.
type Variant struct {
	// Pos is the 0-based reference position (for Ins, the base the
	// insertion follows).
	Pos int
	// Kind is the variant class.
	Kind Kind
	// Ref is the reference base(s) affected ("" for insertions).
	Ref string
	// Alt is the alternative allele ("" for deletions).
	Alt string
	// Depth is the number of reads covering the position.
	Depth int
	// Support is the number of reads supporting the call.
	Support int
}

// Config parameterizes calling.
type Config struct {
	// Core configures the mapper.
	Core core.Config
	// MinDepth is the minimum coverage to consider a position.
	MinDepth int
	// MinFrac is the minimum supporting-read fraction.
	MinFrac float64
}

// DefaultConfig returns thresholds suitable for ~15× long-read
// coverage: with 15% read error a true homozygous variant is
// supported by ~85% of covering reads where the alignment is clean,
// but support dips near indel clusters, so the threshold sits at half
// coverage — far above the per-base error noise (≤ ~9% per allele).
func DefaultConfig(coreCfg core.Config) Config {
	return Config{Core: coreCfg, MinDepth: 5, MinFrac: 0.5}
}

// CallContext maps the reads and returns variant calls sorted by
// position. Cancellation is honoured between reads.
func CallContext(ctx context.Context, ref dna.Seq, reads []dna.Seq, cfg Config) ([]Variant, error) {
	if len(ref) == 0 {
		return nil, fmt.Errorf("varcall: empty reference")
	}
	if cfg.MinDepth < 1 {
		cfg.MinDepth = 1
	}
	if cfg.MinFrac <= 0 || cfg.MinFrac > 1 {
		return nil, fmt.Errorf("varcall: MinFrac %v out of (0,1]", cfg.MinFrac)
	}
	engine, err := core.New(ref, cfg.Core)
	if err != nil {
		return nil, err
	}

	type column struct {
		base [4]int32
		del  int32
		ins  map[string]int32
		cov  int32
	}
	cols := make([]column, len(ref))
	for _, read := range reads {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		alns, _ := engine.MapRead(read)
		best := core.Best(alns)
		if best == nil {
			continue
		}
		q := read
		if best.Reverse {
			q = dna.RevComp(read)
		}
		i, j := best.Result.RefStart, best.Result.QueryStart
		for _, s := range best.Result.Cigar {
			switch s.Op {
			case align.OpMatch:
				for x := 0; x < s.Len; x++ {
					c := &cols[i+x]
					c.cov++
					if code := dna.Code(q[j+x]); code < 4 {
						c.base[code]++
					}
				}
				i += s.Len
				j += s.Len
			case align.OpDel:
				for x := 0; x < s.Len; x++ {
					c := &cols[i+x]
					c.cov++
					c.del++
				}
				i += s.Len
			case align.OpIns:
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

	var out []Variant
	for pos := range cols {
		c := &cols[pos]
		if int(c.cov) < cfg.MinDepth {
			continue
		}
		refCode := dna.Code(ref[pos])
		// SNP: the top non-reference base with majority support.
		bestBase, bestVotes := byte(0), int32(0)
		for code, v := range c.base {
			if byte(code) != refCode && v > bestVotes {
				bestVotes = v
				bestBase = byte(code)
			}
		}
		if float64(bestVotes) >= cfg.MinFrac*float64(c.cov) {
			out = append(out, Variant{
				Pos: pos, Kind: SNP,
				Ref: string(ref[pos : pos+1]), Alt: string(dna.Base(bestBase)),
				Depth: int(c.cov), Support: int(bestVotes),
			})
		}
		// Deletion of this base.
		if float64(c.del) >= cfg.MinFrac*float64(c.cov) {
			out = append(out, Variant{
				Pos: pos, Kind: Del,
				Ref:   string(ref[pos : pos+1]),
				Depth: int(c.cov), Support: int(c.del),
			})
		}
		// Insertion after this base: most common inserted sequence.
		if len(c.ins) > 0 {
			var total int32
			bestSeq, bestN := "", int32(0)
			for s, n := range c.ins {
				total += n
				if n > bestN || (n == bestN && s < bestSeq) {
					bestSeq, bestN = s, n
				}
			}
			if float64(total) >= cfg.MinFrac*float64(c.cov) {
				out = append(out, Variant{
					Pos: pos, Kind: Ins, Alt: bestSeq,
					Depth: int(c.cov), Support: int(total),
				})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Pos != out[b].Pos {
			return out[a].Pos < out[b].Pos
		}
		return out[a].Kind < out[b].Kind
	})
	return out, nil
}
