// Package server is the darwind serving layer: one resident index,
// an admission gate that runs each request's context-bounded Map call
// on its own core, and the HTTP/JSON front end with graceful drain.
//
// The paper's co-processor only reaches its headline throughput
// because the host amortizes index construction: the reference seed
// table is built once and reused across every read (Section 5; Table
// 3 separates the one-time index cost from per-read filter+align
// work). A batch CLI pays that cost per invocation; a long-running
// service pays it once. This package is the software realization of
// that host-side regime — one warm index, every core mapping, and
// explicit backpressure when offered load exceeds capacity.
package server

import (
	"time"

	"darwin/internal/core"
	"darwin/internal/indexio"
	"darwin/internal/obs"
	"darwin/internal/sam"
	"darwin/internal/shard"
)

// The one-time cost of the resident index: a FASTA build or a mapped
// index file.
var (
	tIndexBuild = obs.Default.Timer("server/index_build")
	tIndexLoad  = obs.Default.Timer("server/index_load")
)

// IndexEntry is the resident index: a warm engine plus the reference
// metadata needed to emit SAM records.
type IndexEntry struct {
	// Engine is the warm engine — monolithic (*core.Darwin) or sharded
	// (*shard.ScatterMapper). Both are safe for concurrent use, so every
	// request maps on it directly.
	Engine core.Mapper
	// Shards is the sharded engine's residency-managed set; nil for a
	// monolithic index. Exposed for /v1/indexes reporting.
	Shards *shard.Set
	// Ref maps concatenated coordinates back to sequence names.
	Ref *core.Reference
	// SQ is the SAM @SQ header set for this reference.
	SQ []sam.RefSeq
	// BuildTime is the one-time index construction cost the server
	// amortizes (the paper's Table 3 accounting). For sharded indexes
	// it covers the global mask pass; shard tables build lazily.
	BuildTime time.Duration
	// IndexFile is the persistent index file this entry was mapped
	// from; empty for entries built from FASTA.
	IndexFile string
	// Fingerprint is the mapped index file's content fingerprint
	// (zero for built entries).
	Fingerprint uint64
	// MappedBytes is the size of the mapping backing this entry's
	// tables and reference (zero for built entries).
	MappedBytes int64
}

// newIndexEntry wraps an opened reference as the resident entry. For a
// mapped index file the mapping lives as long as the process (the
// entry's engine aliases it), so the file is never closed here.
func newIndexEntry(l *indexio.Loaded) *IndexEntry {
	sqs := make([]sam.RefSeq, l.Ref.NumSeqs())
	for i := range sqs {
		sqs[i] = sam.RefSeq{Name: l.Ref.Name(i), Len: l.Ref.Len(i)}
	}
	e := &IndexEntry{
		Engine:    l.Mapper,
		Shards:    l.Set,
		Ref:       l.Ref,
		SQ:        sqs,
		BuildTime: l.Mapper.IndexBuildTime(),
	}
	if l.File != nil {
		e.IndexFile = l.File.Path()
		e.Fingerprint = l.File.Info().Fingerprint
		e.MappedBytes = l.File.MappedBytes()
	}
	return e
}
