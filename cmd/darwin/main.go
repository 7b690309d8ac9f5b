// Command darwin is the reference-guided long-read mapper: D-SOFT
// filtering plus GACT tiled alignment (the software realization of the
// paper's co-processor pipeline, Figure 6 left). Reads FASTA/FASTQ,
// writes SAM.
//
// Usage:
//
//	darwin -ref ref.fa -reads reads.fq -k 12 -n 750 -h 24 > out.sam
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/faults"
	"darwin/internal/indexfile"
	"darwin/internal/indexio"
	"darwin/internal/obs"
	"darwin/internal/sam"
	"darwin/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "darwin:", err)
		os.Exit(1)
	}
}

func run() error {
	refPath := flag.String("ref", "", "reference FASTA (required unless -index names a prebuilt index)")
	readsPath := flag.String("reads", "", "reads FASTA/FASTQ (required)")
	engineFlags := indexio.AddFlags(flag.CommandLine)
	out := flag.String("out", "", "output SAM path (default stdout)")
	allAlignments := flag.Bool("all", false, "report all alignments, not just the best")
	workers := flag.Int("workers", 1, "mapping worker goroutines")
	progressEvery := flag.Int("progress", 0, "print mapping throughput and ETA to stderr every N reads (0 disables)")
	faultSpec := flag.String("faults", "", "fault-injection spec (requires DARWIN_ALLOW_FAULTS=1); see internal/faults")
	obsFlags := obs.AddFlags(flag.CommandLine)
	flag.Parse()

	if *readsPath == "" {
		return fmt.Errorf("-reads is required")
	}
	if spec, err := faults.Setup(*faultSpec); err != nil {
		return err
	} else if spec != "" {
		fmt.Fprintf(os.Stderr, "darwin: fault injection active: %s\n", spec)
	}
	session, err := obsFlags.Start("darwin")
	if err != nil {
		return err
	}
	defer session.Close()

	cfg, spec, src, err := engineFlags.Resolve(*refPath)
	if err != nil {
		return err
	}
	if engineFlags.IndexWrite != "" {
		fmt.Fprintf(os.Stderr, "darwin: wrote index %s\n", src.Index)
	}

	tLoad := obs.Default.Timer("stage/load_input").Time()
	reads, err := dna.ReadFile(*readsPath)
	tLoad()
	if err != nil {
		return err
	}

	// With an index file the reference FASTA is never parsed — the file
	// carries the reference bytes, which is the point of the cold-start
	// path.
	l, err := indexio.OpenSource(src, cfg, spec)
	if err != nil {
		return err
	}
	if l.Fallback != nil {
		// A discovered sidecar is opportunistic: corruption or a
		// parameter mismatch degrades to the ordinary FASTA build.
		fmt.Fprintf(os.Stderr, "darwin: sidecar index %s unusable (%v); rebuilding from FASTA\n", indexfile.SidecarPath(*refPath), l.Fallback)
	}
	if l.File != nil {
		fmt.Fprintf(os.Stderr, "darwin: mapped prebuilt index %s (no build pass)\n", l.File.Path())
	}
	engine, ref := l.Mapper, l.Ref
	if l.Set != nil {
		geo := l.Set.Geometry()
		fmt.Fprintf(os.Stderr, "darwin: partitioned %d sequences, %d bp into %d shards of %d bp (+%d bp overlap, k=%d); tables build lazily\n",
			ref.NumSeqs(), len(ref.Seq()), len(geo.Parts), geo.ShardSize, geo.Overlap, cfg.SeedK)
	} else {
		fmt.Fprintf(os.Stderr, "darwin: indexed %d sequences, %d bp (k=%d) in %s\n",
			ref.NumSeqs(), len(ref.Seq()), cfg.SeedK, engine.IndexBuildTime())
	}

	sqs := make([]sam.RefSeq, ref.NumSeqs())
	for i := range sqs {
		sqs[i] = sam.RefSeq{Name: ref.Name(i), Len: ref.Len(i)}
	}
	var w *sam.Writer
	if *out == "" {
		w = sam.NewWriter(os.Stdout, sqs, "darwin")
	} else {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = sam.NewWriter(f, sqs, "darwin")
	}

	// Map (optionally in parallel), then emit in input order. The
	// -progress watcher reads the registry's core/reads counter — no
	// extra bookkeeping in the mapping loop.
	if *progressEvery > 0 {
		p := obs.StartProgress(os.Stderr, "darwin", "reads",
			obs.Default.Counter("core/reads"), int64(len(reads)), int64(*progressEvery))
		defer p.Stop()
	}
	seqs := make([]dna.Seq, len(reads))
	for i := range reads {
		seqs[i] = reads[i].Seq
	}
	results, err := engine.Map(context.Background(), seqs, core.WithWorkers(*workers))
	if err != nil {
		return err
	}

	// One emission path for every face of the mapper: server.RecordsFor
	// turns a read with no locatable alignment into an unmapped record,
	// and the mapped count is derived from what was emitted.
	tEmit := obs.Default.Timer("stage/emit")
	mapped, failed := 0, 0
	for ri, rec := range reads {
		alns := results[ri].Alignments
		if results[ri].Err != nil {
			// Per-read isolation: a poisoned read degrades to an
			// unmapped record instead of killing the whole run.
			failed++
			fmt.Fprintf(os.Stderr, "darwin: read %q failed: %v\n", rec.Name, results[ri].Err)
			alns = nil
		}
		stopEmit := tEmit.Time()
		recs := server.RecordsFor(ref, rec.Name, rec.Seq, alns, *allAlignments)
		if recs[0].Flag&sam.FlagUnmapped == 0 {
			mapped++
		}
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				stopEmit()
				return err
			}
		}
		stopEmit()
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "darwin: mapped %d/%d reads (%d failed)\n", mapped, len(reads), failed)
	} else {
		fmt.Fprintf(os.Stderr, "darwin: mapped %d/%d reads\n", mapped, len(reads))
	}
	return nil
}
