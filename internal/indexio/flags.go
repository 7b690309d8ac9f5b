package indexio

import (
	"flag"
	"fmt"

	"darwin/internal/align"
	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/shard"
)

// Flags holds the engine flags the two faces of the mapper — cmd/darwin
// and cmd/darwind — share: D-SOFT and GACT parameters, shard geometry,
// and where the index comes from. They are declared once so the CLI and
// the server cannot drift apart in a default (their SAM is compared
// byte for byte by the smoke scripts).
type Flags struct {
	K, N, H      int
	HTile        int
	TileT, TileO int
	TileKernel   string
	Shards       int
	ShardOverlap int
	ShardMem     string
	Index        string
	IndexWrite   string
	NoSidecar    bool
}

// AddFlags registers the engine flags on fs (usually flag.CommandLine)
// and returns the destination struct.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.IntVar(&f.K, "k", 12, "D-SOFT seed size k")
	fs.IntVar(&f.N, "n", 750, "D-SOFT seeds per query strand N")
	fs.IntVar(&f.H, "h", 24, "D-SOFT base-count threshold h")
	fs.IntVar(&f.HTile, "htile", 90, "first GACT tile score threshold (0 disables)")
	fs.IntVar(&f.TileT, "T", 320, "GACT tile size T")
	fs.IntVar(&f.TileO, "O", 128, "GACT tile overlap O")
	fs.StringVar(&f.TileKernel, "tile-kernel", "auto", "tile DP kernel tier: auto (vector fill where it applies, else bitvector fast path with LUT fallback), bitvector, or lut")
	fs.IntVar(&f.Shards, "shards", 0, "split the reference index into this many shards (0 = monolithic)")
	fs.IntVar(&f.ShardOverlap, "shard-overlap", 0, "shard overlap margin in bases (0 = exactness minimum)")
	fs.StringVar(&f.ShardMem, "shard-mem", "", "resident shard seed-table budget, e.g. 512M (empty = unbounded)")
	fs.StringVar(&f.Index, "index", "", "load the reference index from this prebuilt .dwi file (darwin-index build) instead of building it; load failure is fatal")
	fs.StringVar(&f.IndexWrite, "index-write", "", "build the reference index, write it to this .dwi path, then map from it")
	fs.BoolVar(&f.NoSidecar, "no-sidecar", false, "do not auto-load a <ref>.dwi sidecar index next to the reference")
	return f
}

// Resolve turns the parsed flags into OpenSource's arguments for the
// reference at refPath. With -index-write it first builds the index
// from refPath and writes it, and the returned source loads that file.
// refPath may be empty only when -index names the file to load.
func (f *Flags) Resolve(refPath string) (cfg core.Config, spec core.ShardSpec, src Source, err error) {
	cfg = core.DefaultConfig(f.K, f.N, f.H)
	cfg.HTile = f.HTile
	cfg.GACT.T = f.TileT
	cfg.GACT.O = f.TileO
	if cfg.GACT.Kernel, err = align.ParseKernelMode(f.TileKernel); err != nil {
		return cfg, spec, src, err
	}
	spec = core.ShardSpec{Shards: f.Shards, Overlap: f.ShardOverlap}
	if f.ShardMem != "" {
		if spec.MaxResidentBytes, err = shard.ParseBytes(f.ShardMem); err != nil {
			return cfg, spec, src, err
		}
	}

	src = Source{Path: refPath, Index: f.Index, Sidecar: !f.NoSidecar}
	switch {
	case f.Index != "" && f.IndexWrite != "":
		err = fmt.Errorf("-index and -index-write are mutually exclusive")
	case f.Index == "" && refPath == "":
		err = fmt.Errorf("-ref is required unless -index names a prebuilt index")
	case f.IndexWrite != "":
		var recs []dna.Record
		if recs, err = dna.ReadFile(refPath); err != nil {
			break
		}
		if _, err = WriteFile(f.IndexWrite, recs, cfg, spec); err != nil {
			err = fmt.Errorf("writing index %s: %w", f.IndexWrite, err)
		}
		src.Index = f.IndexWrite
	}
	return cfg, spec, src, err
}
