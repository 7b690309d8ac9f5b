// Package shard is the sharded reference index and scatter-gather
// mapper: the software realization of how Darwin's ASIC actually holds
// a 3 Gbp reference. The accelerator does not keep one monolithic
// seed-position table — it tiles the table and the D-SOFT bin-count
// SRAM across four LPDDR4 channels and updates bins per partition
// (Section 5), under one reference-wide mask, and looks each seed up
// once. Here a Partitioner splits the concatenated reference into
// fixed-size shards with an overlap margin; a shard's core owns the
// candidates that trigger inside it. With no byte budget every shard
// maps on one whole-reference seed table, and a ScatterMapper runs one
// D-SOFT pass per run of adjacent requested shards, windowed to the
// run's extent; under a budget each shard owns its own table built
// lazily (Set), one pass per shard. Either way candidates merge in
// global coordinates and GACT extends against the resident reference,
// producing output bit-identical to the monolithic core.Darwin, and a
// budget bounds peak index memory by itself instead of the genome.
package shard

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"darwin/internal/core"
)

// ParseBytes parses a human byte-size flag value: a plain integer, or
// one with a K/M/G suffix (binary multiples), case-insensitive, with
// an optional trailing B. Negative sizes and sizes past math.MaxInt64
// bytes are errors. Used by the -shard-mem flags of cmd/darwin and
// cmd/darwind.
func ParseBytes(s string) (int64, error) {
	t := strings.TrimSuffix(strings.ToUpper(strings.TrimSpace(s)), "B")
	mult := int64(1)
	switch {
	case strings.HasSuffix(t, "K"):
		mult, t = 1<<10, t[:len(t)-1]
	case strings.HasSuffix(t, "M"):
		mult, t = 1<<20, t[:len(t)-1]
	case strings.HasSuffix(t, "G"):
		mult, t = 1<<30, t[:len(t)-1]
	}
	n, err := strconv.ParseInt(t, 10, 64)
	if err != nil || n < 0 || n > math.MaxInt64/mult {
		return 0, fmt.Errorf("shard: bad byte size %q", s)
	}
	return n * mult, nil
}

// Span is a half-open [Start, End) interval in concatenated reference
// coordinates.
type Span struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

// Len returns the span length.
func (s Span) Len() int { return s.End - s.Start }

// Contains reports whether pos lies in the span.
func (s Span) Contains(pos int) bool { return pos >= s.Start && pos < s.End }

// Part is one shard's geometry. Cores tile [0, refLen) disjointly and
// own every candidate whose triggering hit falls inside them; the
// Extent widens the core by the overlap margin on each side so a
// shard-local D-SOFT filter sees every hit of any diagonal bin whose
// trigger it owns. Extent starts are multiples of the D-SOFT bin size
// B, which makes shard-local diagonal bins correspond exactly to
// global bins shifted by Extent.Start/B — the property that lets
// per-shard candidates merge into global coordinates bit-exactly.
type Part struct {
	Index  int  `json:"index"`
	Core   Span `json:"core"`
	Extent Span `json:"extent"`
}

// Geometry is a full reference partition.
type Geometry struct {
	RefLen    int
	ShardSize int // core size in bases (multiple of BinSize)
	Overlap   int // margin in bases (multiple of BinSize)
	BinSize   int
	Parts     []Part
}

// MinOverlap returns the smallest overlap margin (in bases) that
// guarantees candidate-exactness for the given engine configuration:
// two hits in the same diagonal bin differ by at most B + (N−1)·stride
// in reference position, and the rightmost hit's seed needs k bases
// inside the extent. Any margin at least this large makes the union of
// core-owned per-shard candidates exactly the monolithic candidate
// set.
func MinOverlap(cfg core.Config) int {
	stride := cfg.SeedStride
	if stride < 1 {
		stride = 1
	}
	return cfg.BinSize + (cfg.SeedN-1)*stride + cfg.SeedK
}

// roundUp rounds n up to a positive multiple of unit.
func roundUp(n, unit int) int {
	if n <= 0 {
		return unit
	}
	return (n + unit - 1) / unit * unit
}

// Partition splits a reference of refLen bases into count shards.
// Cores are ⌈refLen/count⌉ bases and the overlap margin is minOverlap
// bases, both rounded up to multiples of binSize. The final shard
// absorbs the remainder, so every core has at least one seed's worth
// of sequence.
func Partition(refLen, count, minOverlap, binSize int) (*Geometry, error) {
	if refLen <= 0 {
		return nil, fmt.Errorf("shard: reference length %d must be positive", refLen)
	}
	if binSize <= 0 || binSize&(binSize-1) != 0 {
		return nil, fmt.Errorf("shard: bin size %d must be a positive power of two", binSize)
	}
	if count <= 0 {
		return nil, fmt.Errorf("shard: shard count %d must be positive", count)
	}
	shardSize := roundUp((refLen+count-1)/count, binSize)
	overlap := roundUp(minOverlap, binSize)

	g := &Geometry{RefLen: refLen, ShardSize: shardSize, Overlap: overlap, BinSize: binSize}
	n := (refLen + shardSize - 1) / shardSize
	if n < 1 {
		n = 1
	}
	// A trailing core shorter than the overlap margin would add a shard
	// whose extent is almost entirely margin; fold it into its
	// neighbour instead.
	if n > 1 && refLen-(n-1)*shardSize < binSize {
		n--
	}
	for i := 0; i < n; i++ {
		core := Span{Start: i * shardSize, End: (i + 1) * shardSize}
		if i == n-1 {
			core.End = refLen
		}
		ext := Span{Start: core.Start - overlap, End: core.End + overlap}
		if ext.Start < 0 {
			ext.Start = 0
		}
		if ext.End > refLen {
			ext.End = refLen
		}
		g.Parts = append(g.Parts, Part{Index: i, Core: core, Extent: ext})
	}
	return g, nil
}

// OwnerOf returns the index of the shard whose core contains pos.
func (g *Geometry) OwnerOf(pos int) int {
	i := pos / g.ShardSize
	if i >= len(g.Parts) {
		i = len(g.Parts) - 1
	}
	return i
}
