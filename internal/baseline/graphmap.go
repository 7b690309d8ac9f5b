package baseline

import (
	"sort"
	"time"

	"darwin/internal/dna"
	"darwin/internal/seedtable"
)

// GraphMapLike is a reference-guided mapper in the GraphMap mold: it
// spends most of its time in filtration — every query seed is looked
// up and *seed hits* (not covered bases) are counted per diagonal
// band — and verifies only the few best bands. This reproduces the
// runtime profile of Figure 13 line 1 (99% filtration) and the
// hit-count precision behaviour Figure 2 contrasts with D-SOFT.
type GraphMapLike struct {
	table *seedtable.Table
	ref   dna.Seq
	cfg   GraphMapConfig

	counts map[int]int // diagonal-band hit counts, reused per query
}

// GraphMapConfig parameterizes the GraphMap-class mapper.
type GraphMapConfig struct {
	// K is the seed size.
	K int
	// Stride is the query-seed stride (GraphMap uses dense seeding).
	Stride int
	// BinSize is the diagonal band width.
	BinSize int
	// MinHits is the per-band hit threshold for candidacy.
	MinHits int
	// MaxCandidates bounds how many bands are verified.
	MaxCandidates int
	// Pad is the verification window padding.
	Pad int
}

// DefaultGraphMapConfig returns a configuration tuned for noisy ONT
// reads on megabase-scale references.
func DefaultGraphMapConfig() GraphMapConfig {
	return GraphMapConfig{K: 11, Stride: 1, BinSize: 256, MinHits: 2, MaxCandidates: 8, Pad: 256}
}

// NewGraphMapLike builds the mapper over a reference.
func NewGraphMapLike(ref dna.Seq, cfg GraphMapConfig) (*GraphMapLike, error) {
	tab, err := seedtable.Build(ref, cfg.K, seedtable.Options{})
	if err != nil {
		return nil, err
	}
	return &GraphMapLike{table: tab, ref: ref, cfg: cfg, counts: make(map[int]int)}, nil
}

// Name identifies the mapper in reports.
func (g *GraphMapLike) Name() string { return "graphmap-like" }

// MapRead maps one query (forward orientation) and reports the ranked
// mappings plus stage timings.
func (g *GraphMapLike) MapRead(q dna.Seq) ([]Mapping, StageTimes) {
	var times StageTimes
	start := time.Now()

	// Filtration: dense seeding, hit counting per diagonal band.
	clear(g.counts)
	B := g.cfg.BinSize
	for j := 0; j+g.cfg.K <= len(q); j += g.cfg.Stride {
		hits := g.table.LookupSeq(q, j)
		for _, hit := range hits {
			g.counts[(int(hit)-j+len(q)*2)/B]++
		}
	}
	type band struct{ bin, count int }
	var bands []band
	for bin, c := range g.counts {
		if c >= g.cfg.MinHits {
			bands = append(bands, band{bin, c})
		}
	}
	sort.Slice(bands, func(a, b int) bool { return bands[a].count > bands[b].count })
	if len(bands) > g.cfg.MaxCandidates {
		bands = bands[:g.cfg.MaxCandidates]
	}
	times.Filtration = time.Since(start)

	// Alignment/verification of the surviving bands.
	start = time.Now()
	var out []Mapping
	for _, b := range bands {
		diag := b.bin*B - len(q)*2
		if m, ok := verifyWindow(g.ref, q, diag, g.cfg.Pad+B); ok {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Score > out[b].Score })
	times.Alignment = time.Since(start)
	return out, times
}
