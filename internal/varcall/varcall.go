// Package varcall implements pileup-based variant calling on top of
// Darwin's reference-guided alignments — the application the paper's
// introduction motivates (detecting "when genomic mutations
// predispose humans to certain diseases"; reference-guided assembly
// "is good at finding small changes, or variants, in the sequenced
// genome", Section 2).
//
// Reads are mapped with the Darwin engine, aligned columns are piled
// up against the reference (olc.MapPileup, the pileup consensus
// polishing reads), and positions where a majority of covering reads
// disagree with the reference are emitted as SNP, insertion, or
// deletion calls.
package varcall

import (
	"context"
	"fmt"
	"sort"

	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/olc"
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

// CallContext maps the reads on one engine worker per CPU and returns
// variant calls sorted by position. Cancellation is honoured between
// reads, and a read that fails to map fails the call.
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
	cols, err := olc.MapPileup(ctx, ref, reads, cfg.Core, 0)
	if err != nil {
		return nil, fmt.Errorf("varcall: %w", err)
	}

	var out []Variant
	for pos := range cols {
		c := &cols[pos]
		if int(c.Cov) < cfg.MinDepth {
			continue
		}
		refCode := dna.Code(ref[pos])
		// SNP: the top non-reference base with majority support.
		bestBase, bestVotes := byte(0), int32(0)
		for code, v := range c.Base {
			if byte(code) != refCode && v > bestVotes {
				bestVotes = v
				bestBase = byte(code)
			}
		}
		if float64(bestVotes) >= cfg.MinFrac*float64(c.Cov) {
			out = append(out, Variant{
				Pos: pos, Kind: SNP,
				Ref: string(ref[pos : pos+1]), Alt: string(dna.Base(bestBase)),
				Depth: int(c.Cov), Support: int(bestVotes),
			})
		}
		// Deletion of this base.
		if float64(c.Del) >= cfg.MinFrac*float64(c.Cov) {
			out = append(out, Variant{
				Pos: pos, Kind: Del,
				Ref:   string(ref[pos : pos+1]),
				Depth: int(c.Cov), Support: int(c.Del),
			})
		}
		// Insertion after this base: most common inserted sequence.
		if top, total := c.TopIns(); total > 0 && float64(total) >= cfg.MinFrac*float64(c.Cov) {
			out = append(out, Variant{
				Pos: pos, Kind: Ins, Alt: top.Seq,
				Depth: int(c.Cov), Support: int(total),
			})
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
