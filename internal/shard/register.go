package shard

import (
	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/faults"
)

// Fault injection points for the shard set (armed only via
// faults.Setup):
//
//   - index/build (shared with core.New) fires in NewSet's global
//     mask pass — the sharded equivalent of a monolithic index build.
//   - shard/build fires per actual shard-table build inside Acquire,
//     after the LRU-hit and singleflight checks, so only real builds
//     are faulted: an error fails the batch touching that shard, a
//     delay models a slow rebuild after eviction.
var (
	fpIndexBuild = faults.Default.Point("index/build")
	fpShardBuild = faults.Default.Point("shard/build")
)

// The sharded mapper links itself into core.Open: any binary that
// imports this package can open either engine from one OpenConfig.
func init() {
	core.RegisterSharded(func(recs []dna.Record, cfg core.Config, spec core.ShardSpec) (core.Mapper, *core.Reference, error) {
		m, ref, err := NewMulti(recs, cfg, Config{
			Shards:           spec.Shards,
			ShardSize:        spec.ShardSize,
			Overlap:          spec.Overlap,
			MaxResidentBytes: spec.MaxResidentBytes,
		})
		if err != nil {
			return nil, nil, err
		}
		return m, ref, nil
	})
}
