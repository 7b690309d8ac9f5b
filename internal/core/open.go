package core

import "darwin/internal/dna"

// ShardSpec is the shard geometry of a sharded deployment — the moral
// equivalent of Darwin's DRAM-channel partitioning decisions. It is
// declared here, below internal/shard (which imports core and names it
// shard.Config), so every layer describes geometry with one type.
type ShardSpec struct {
	// Shards is the number of shards to split the reference into.
	// Mutually exclusive with ShardSize.
	Shards int
	// ShardSize is the shard core size in bases (rounded up to the
	// D-SOFT bin size). Used when Shards is zero.
	ShardSize int
	// Overlap is the margin each shard's extent extends beyond its core
	// on both sides. Values below the candidate-exactness minimum
	// (shard.MinOverlap) are raised to it, so correctness never depends
	// on this knob.
	Overlap int
	// MaxResidentBytes bounds the total bytes of shard seed tables kept
	// resident (LRU eviction). Zero means unbounded. The budget covers
	// the seed tables only — the packed reference sequence (1 byte per
	// base) always stays resident, since GACT extension reads it
	// directly at global coordinates.
	MaxResidentBytes int64
}

// Enabled reports whether the spec asks for sharding at all (a shard
// count or size was given). A zero ShardSpec means "use the monolithic
// engine".
func (s ShardSpec) Enabled() bool { return s.Shards > 0 || s.ShardSize > 0 }

// OpenConfig is Open's argument: the records to concatenate and the
// engine parameters.
type OpenConfig struct {
	// Records is the multi-sequence reference, concatenated with the
	// engine's N-padding separator invariant.
	Records []dna.Record
	// Core holds the full Darwin parameter set.
	Core Config
}

// Open builds the monolithic engine over cfg.Records. It is NewMulti by
// another name, returning the Mapper interface; the benchmark harness
// compiles against it. Choosing between the monolithic and sharded
// engines, or loading a persistent index file, is indexio.OpenSource's
// job.
func Open(cfg OpenConfig) (Mapper, *Reference, error) {
	eng, ref, err := NewMulti(cfg.Records, cfg.Core)
	if err != nil {
		return nil, nil, err
	}
	return eng, ref, nil
}
