// Command darwin-assemble runs the full de novo
// overlap-layout-consensus pipeline: Darwin's overlap step (D-SOFT +
// GACT over the concatenated read set), greedy layout, read splicing,
// and iterative majority-vote polishing. Contigs are written as FASTA.
//
// Usage:
//
//	darwin-assemble -reads reads.fq -out contigs.fa
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/obs"
	"darwin/internal/olc"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "darwin-assemble:", err)
		os.Exit(1)
	}
}

func run() error {
	readsPath := flag.String("reads", "", "reads FASTA/FASTQ (required)")
	k := flag.Int("k", 12, "D-SOFT seed size k")
	n := flag.Int("n", 1300, "D-SOFT seeds per query strand N")
	h := flag.Int("h", 24, "D-SOFT base-count threshold h")
	stride := flag.Int("stride", 4, "D-SOFT seed stride (spread N seeds across the whole read)")
	minOverlap := flag.Int("min-overlap", 1000, "minimum overlap length")
	polishRounds := flag.Int("polish", 2, "consensus polishing rounds (0 disables)")
	minContig := flag.Int("min-contig", 0, "discard contigs shorter than this")
	workers := flag.Int("workers", 0, "overlap and polish worker goroutines (0 = one per CPU); the output does not depend on it")
	out := flag.String("out", "", "output FASTA path (default stdout)")
	obsFlags := obs.AddFlags(flag.CommandLine)
	flag.Parse()

	if *readsPath == "" {
		return fmt.Errorf("-reads is required")
	}
	session, err := obsFlags.Start("darwin-assemble")
	if err != nil {
		return err
	}
	defer session.Close()

	recs, err := dna.ReadFile(*readsPath)
	if err != nil {
		return err
	}
	seqs := make([]dna.Seq, len(recs))
	for i := range recs {
		seqs[i] = recs[i].Seq
	}

	cfg := core.DefaultConfig(*k, *n, *h)
	cfg.SeedStride = *stride
	// SIGTERM/SIGINT cancels between pipeline steps.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	start := time.Now()
	asm, err := olc.Assemble(ctx, seqs,
		olc.WithConfig(cfg),
		olc.WithMinOverlap(*minOverlap),
		olc.WithPolishRounds(*polishRounds),
		olc.WithMinContig(*minContig),
		olc.WithWorkers(*workers))
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "darwin-assemble: overlap step %s (%d overlaps, table build %s)\n",
		time.Since(start).Round(time.Millisecond), len(asm.Overlaps), asm.OverlapStats.TableBuildTime.Round(time.Millisecond))
	fmt.Fprintf(os.Stderr, "darwin-assemble: layout %s\n", asm.Stats)
	outRecs := asm.Contigs

	w := os.Stdout
	if *out != "" {
		of, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer of.Close()
		w = of
	}
	if err := dna.WriteFASTA(w, outRecs); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "darwin-assemble: wrote %d contigs\n", len(outRecs))
	return nil
}
