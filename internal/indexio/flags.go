package indexio

import (
	"flag"
	"fmt"

	"darwin/internal/core"
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
	Shards       int
	ShardMem     string
	Index        string
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
	fs.IntVar(&f.Shards, "shards", 0, "split the reference index into this many shards (0 = monolithic)")
	fs.StringVar(&f.ShardMem, "shard-mem", "", "resident shard seed-table budget, e.g. 512M (empty = unbounded); needs -shards or a sharded -index")
	fs.StringVar(&f.Index, "index", "", "load the reference index from this prebuilt .dwi file (darwin-index build) instead of building it; load failure is fatal")
	fs.BoolVar(&f.NoSidecar, "no-sidecar", false, "do not auto-load a <ref>.dwi sidecar index next to the reference")
	return f
}

// Resolve turns the parsed flags into OpenSource's arguments for the
// reference at refPath, which may be empty only when -index names the
// file to load.
func (f *Flags) Resolve(refPath string) (cfg core.Config, spec core.ShardSpec, src Source, err error) {
	cfg = core.DefaultConfig(f.K, f.N, f.H)
	cfg.HTile = f.HTile
	cfg.GACT.T = f.TileT
	cfg.GACT.O = f.TileO
	spec = core.ShardSpec{Shards: f.Shards}
	if f.ShardMem != "" {
		if spec.MaxResidentBytes, err = shard.ParseBytes(f.ShardMem); err != nil {
			return cfg, spec, src, err
		}
	}

	src = Source{Path: refPath, Index: f.Index, Sidecar: !f.NoSidecar}
	if f.Index == "" && refPath == "" {
		err = fmt.Errorf("-ref is required unless -index names a prebuilt index")
	}
	return cfg, spec, src, err
}
