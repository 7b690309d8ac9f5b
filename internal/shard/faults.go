package shard

import "darwin/internal/faults"

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
