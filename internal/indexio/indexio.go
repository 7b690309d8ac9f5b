// Package indexio is the one way to turn a reference into a warm
// mapper. OpenSource resolves a Source — parsed records or a FASTA/FASTQ
// path, an explicitly named persistent index file, or a discovered
// `<ref>.dwi` sidecar — under an engine configuration and a shard
// geometry into a Loaded: the monolithic or sharded core.Mapper, its
// Reference and, for a file, the mapping the tables are views over.
// The rule for when a bad index file may be ignored lives here and
// nowhere else.
//
// The package also glues the persistent index format (internal/
// indexfile) to the engine stack: Build/WriteFile produce index content
// from reference records exactly as the engines build it. It sits above
// core, shard, and indexfile (all of which it imports); indexfile
// itself stays a pure format package.
package indexio

import (
	"errors"
	"fmt"
	"os"

	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/indexfile"
	"darwin/internal/obs"
	"darwin/internal/seedtable"
	"darwin/internal/shard"
)

// Parsing the reference is input loading in the run report's stage
// accounting, the same stage cmd/darwin books its reads file under.
var tLoadInput = obs.Default.Timer("stage/load_input")

// Source names where a reference comes from.
type Source struct {
	// Records is an already parsed reference. When nil, Path is parsed
	// instead — but only if a build is needed: a source that resolves to
	// an index file never opens the FASTA.
	Records []dna.Record
	// Path is the reference FASTA/FASTQ.
	Path string
	// Index is an index file an operator named: failing to load it is
	// an error, never a silent rebuild.
	Index string
	// Sidecar lets a `<Path>.dwi` file next to the reference stand in
	// for a build. A discovered file is opportunistic: one that fails to
	// load (corruption, other parameters or geometry) falls back to
	// building from Records/Path, and Loaded.Fallback says why.
	Sidecar bool
}

// IndexFile resolves the index file src loads from, "" when it builds:
// the explicit Index, else an existing sidecar when discovery is on.
func (src Source) IndexFile() (path string, explicit bool) {
	if src.Index != "" {
		return src.Index, true
	}
	if src.Sidecar && src.Path != "" {
		sc := indexfile.SidecarPath(src.Path)
		if st, err := os.Stat(sc); err == nil && !st.IsDir() {
			return sc, false
		}
	}
	return "", false
}

// Loaded is an opened reference. When File is non-nil the mapper and
// reference are views over its mapped bytes, so it must stay open as
// long as either is in use.
type Loaded struct {
	Mapper core.Mapper
	Ref    *core.Reference
	// Set is the sharded engine's residency-managed shard set; nil for
	// the monolithic engine.
	Set *shard.Set
	// File is the mapped index file; nil when the index was built.
	File *indexfile.File
	// Fallback is why a discovered sidecar was passed over for a build;
	// nil otherwise. The caller owns the log line.
	Fallback error
}

// errMonolithicBudget refuses a shard-table budget on an engine that
// has no shard tables: the monolithic engine's one table is always
// resident, so the budget would be silently ignored.
var errMonolithicBudget = errors.New("a resident shard budget (-shard-mem) needs a sharded engine: set -shards, or load a sharded index")

// OpenSource turns src into a warm mapper under cfg, sharded when spec
// is enabled or a sharded index file is loaded under a zero spec. An
// index file is mapped and its tables served as views — no build pass,
// no FASTA parse; otherwise the reference is built, the two engines
// being alignment-bit-identical. A residency budget on a monolithic
// engine is an error.
func OpenSource(src Source, cfg core.Config, spec core.ShardSpec) (*Loaded, error) {
	var fallback error
	if path, explicit := src.IndexFile(); path != "" {
		l, err := Open(path, cfg, spec)
		if err == nil {
			return l, nil
		}
		if explicit {
			return nil, err
		}
		fallback = err
	}
	if !spec.Enabled() && spec.MaxResidentBytes > 0 {
		return nil, errMonolithicBudget
	}
	recs := src.Records
	if recs == nil {
		stage := tLoadInput.Start(nil)
		var err error
		recs, err = dna.ReadFile(src.Path)
		stage.End()
		if err != nil {
			return nil, err
		}
		if len(recs) == 0 {
			return nil, fmt.Errorf("no sequences in %s", src.Path)
		}
	}
	if spec.Enabled() {
		m, ref, err := shard.NewMulti(recs, cfg, spec)
		if err != nil {
			return nil, err
		}
		return &Loaded{Mapper: m, Ref: ref, Set: m.Set(), Fallback: fallback}, nil
	}
	eng, ref, err := core.NewMulti(recs, cfg)
	if err != nil {
		return nil, err
	}
	return &Loaded{Mapper: eng, Ref: ref, Fallback: fallback}, nil
}

// params is the parameter block an index built under cfg stores.
func params(cfg core.Config) indexfile.Params {
	return indexfile.Params{SeedK: cfg.SeedK, NoMask: cfg.TableOptions.NoMask, BinSize: cfg.BinSize}
}

// Build constructs the index content for recs under cfg: the N-padded
// concatenated reference, the global high-frequency mask, and one
// whole-reference seed table built under that mask, exactly as the
// engines build it, so mapping through the saved content is
// bit-identical to mapping through a fresh engine. spec's shard count
// is recorded as the default for an engine that opens the file with a
// zero spec; the content is the same for every count.
func Build(recs []dna.Record, cfg core.Config, spec core.ShardSpec) (*indexfile.Index, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("indexio: no reference records")
	}
	if spec.Shards < 0 {
		return nil, fmt.Errorf("indexio: shard count %d must not be negative", spec.Shards)
	}
	ref, err := core.NewReference(recs, cfg.BinSize)
	if err != nil {
		return nil, err
	}
	seq := ref.Seq()
	mask, err := seedtable.ComputeMask(seq, cfg.SeedK, cfg.TableOptions)
	if err != nil {
		return nil, err
	}
	opts := cfg.TableOptions
	opts.Mask = mask
	t, err := seedtable.Build(seq, cfg.SeedK, opts)
	if err != nil {
		return nil, err
	}

	p := params(cfg)
	p.MaskThreshold = mask.Threshold()
	idx := &indexfile.Index{
		Params:     p,
		Ref:        []byte(seq),
		ShardCount: spec.Shards,
		MaskCodes:  mask.Codes(),
		Table:      t.Parts(),
	}
	for i := 0; i < ref.NumSeqs(); i++ {
		idx.Seqs = append(idx.Seqs, indexfile.SeqMeta{
			Name:   ref.Name(i),
			Offset: ref.Offset(i),
			Length: ref.Len(i),
		})
	}
	return idx, nil
}

// WriteFile builds the index for recs and serializes it to path
// atomically. Returns the written content's description.
func WriteFile(path string, recs []dna.Record, cfg core.Config, spec core.ShardSpec) (*indexfile.Index, error) {
	idx, err := Build(recs, cfg, spec)
	if err != nil {
		return nil, err
	}
	if err := indexfile.Write(path, idx); err != nil {
		return nil, err
	}
	return idx, nil
}

// Open maps the index file at path and assembles a mapper from it
// under cfg/spec. The file's parameters must match cfg exactly; its
// shard count is the default when spec names none, and the partition
// is computed from cfg, so any count maps exactly. Rejections are
// indexfile.FormatErrors with stable codes. This is OpenSource's
// index-file arm — OpenSource(Source{Index: path}, …) — under the
// signature the benchmark harness compiles against.
func Open(path string, cfg core.Config, spec core.ShardSpec) (*Loaded, error) {
	f, err := indexfile.Open(path, indexfile.Options{})
	if err != nil {
		return nil, err
	}
	l, err := assemble(f, cfg, spec)
	if err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// assemble builds the mapper and reference views over an open file.
// Without a budget the engine maps on the file's table; under one the
// shard tables are built from the file's reference and mask, and the
// table sections go unread.
func assemble(f *indexfile.File, cfg core.Config, spec core.ShardSpec) (*Loaded, error) {
	info := f.Info()
	if err := checkParams(f.Path(), info.Params, params(cfg)); err != nil {
		return nil, err
	}
	seq, err := f.Ref()
	if err != nil {
		return nil, err
	}
	names := make([]string, len(info.Seqs))
	offsets := make([]int, len(info.Seqs))
	lengths := make([]int, len(info.Seqs))
	for i, s := range info.Seqs {
		names[i], offsets[i], lengths[i] = s.Name, s.Offset, s.Length
	}
	ref, err := core.NewReferenceFromMeta(seq, names, offsets, lengths)
	if err != nil {
		return nil, &indexfile.FormatError{Code: indexfile.CodeBadHeader, Path: f.Path(), Detail: err.Error()}
	}
	if !spec.Enabled() {
		spec.Shards = info.ShardCount
	}
	if !spec.Enabled() && spec.MaxResidentBytes > 0 {
		return nil, errMonolithicBudget
	}
	var table *seedtable.Table
	var mask *seedtable.MaskSet
	if spec.MaxResidentBytes == 0 {
		if table, err = f.Table(); err != nil {
			return nil, err
		}
	} else {
		mask = seedtable.NewMaskSet(info.Params.MaskThreshold, f.MaskCodes())
	}
	if !spec.Enabled() {
		eng, err := core.NewWithTable(seq, table, cfg)
		if err != nil {
			return nil, &indexfile.FormatError{Code: indexfile.CodeGeometryMismatch, Path: f.Path(), Detail: err.Error()}
		}
		return &Loaded{Mapper: eng, Ref: ref, File: f}, nil
	}
	set, err := shard.NewSetFrom(seq, cfg, spec, table, mask)
	if err != nil {
		return nil, &indexfile.FormatError{Code: indexfile.CodeGeometryMismatch, Path: f.Path(), Detail: err.Error()}
	}
	m, err := shard.FromSet(set, cfg)
	if err != nil {
		return nil, err
	}
	return &Loaded{Mapper: m, Ref: ref, Set: set, File: f}, nil
}

// checkParams rejects an index built under different seeding
// parameters than the runtime engine expects. Everything that shapes
// the seed table must match; MaskThreshold is derived from the rest
// and the reference, so it is not compared.
func checkParams(path string, got, want indexfile.Params) error {
	mismatch := func(field string, g, w any) error {
		return &indexfile.FormatError{
			Code: indexfile.CodeGeometryMismatch, Path: path,
			Detail: fmt.Sprintf("index %s is %v but the engine is configured for %v", field, g, w),
		}
	}
	switch {
	case got.SeedK != want.SeedK:
		return mismatch("seed size k", got.SeedK, want.SeedK)
	case got.NoMask != want.NoMask:
		return mismatch("masking", maskMode(got.NoMask), maskMode(want.NoMask))
	case got.BinSize != want.BinSize:
		return mismatch("bin size B", got.BinSize, want.BinSize)
	}
	return nil
}

func maskMode(noMask bool) string {
	if noMask {
		return "disabled"
	}
	return "enabled"
}
