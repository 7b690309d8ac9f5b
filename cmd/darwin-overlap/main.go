// Command darwin-overlap runs the overlap step of de novo assembly
// (Figure 6 right): reads are concatenated into a padded reference and
// every read is queried against it with D-SOFT + GACT. Overlaps are
// written in a PAF-like TSV.
//
// Usage:
//
//	darwin-overlap -reads reads.fq -k 12 -n 1300 -h 24 > overlaps.tsv
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/faults"
	"darwin/internal/obs"
	"darwin/internal/olc"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "darwin-overlap:", err)
		os.Exit(1)
	}
}

func run() error {
	readsPath := flag.String("reads", "", "reads FASTA/FASTQ (required)")
	k := flag.Int("k", 12, "D-SOFT seed size k")
	n := flag.Int("n", 1300, "D-SOFT seeds per query strand N")
	h := flag.Int("h", 24, "D-SOFT base-count threshold h")
	stride := flag.Int("stride", 4, "D-SOFT seed stride (spread N seeds across the whole read)")
	minOverlap := flag.Int("min-overlap", 1000, "minimum reported overlap length")
	workers := flag.Int("workers", 0, "overlap worker goroutines (0 = one per CPU); the output does not depend on it")
	out := flag.String("out", "", "output TSV path (default stdout)")
	progressEvery := flag.Int("progress", 0, "print overlap throughput and ETA to stderr every N reads (0 disables)")
	faultSpec := flag.String("faults", "", "fault-injection spec (requires DARWIN_ALLOW_FAULTS=1); see internal/faults")
	obsFlags := obs.AddFlags(flag.CommandLine)
	flag.Parse()

	if *readsPath == "" {
		return fmt.Errorf("-reads is required")
	}
	if spec, err := faults.Setup(*faultSpec); err != nil {
		return err
	} else if spec != "" {
		fmt.Fprintf(os.Stderr, "darwin-overlap: fault injection active: %s\n", spec)
	}
	session, err := obsFlags.Start("darwin-overlap")
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
	if *progressEvery > 0 {
		p := obs.StartProgress(os.Stderr, "darwin-overlap", "reads",
			obs.Default.Counter("overlap/reads_done"), int64(len(seqs)), int64(*progressEvery))
		defer p.Stop()
	}
	// SIGTERM/SIGINT cancels between reads: the overlaps found so far
	// are still written, so a long run interrupted late is not wasted.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	overlaps, stats, cerr := olc.Overlap(ctx, seqs,
		olc.WithConfig(cfg), olc.WithMinOverlap(*minOverlap), olc.WithWorkers(*workers))
	if cerr != nil && !errors.Is(cerr, context.Canceled) {
		return cerr
	}
	if cerr != nil {
		fmt.Fprintln(os.Stderr, "darwin-overlap: interrupted, writing partial overlaps")
	}
	fmt.Fprintf(os.Stderr, "darwin-overlap: table build %s, %d overlaps among %d reads\n",
		stats.TableBuildTime, len(overlaps), len(recs))

	var w *bufio.Writer
	if *out == "" {
		w = bufio.NewWriter(os.Stdout)
	} else {
		of, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer of.Close()
		w = bufio.NewWriter(of)
	}
	fmt.Fprintln(w, "target\tquery\tstrand\ttarget_start\ttarget_end\tquery_start\tquery_end\tscore")
	for i := range overlaps {
		o := &overlaps[i]
		strand := "+"
		if o.QueryRev {
			strand = "-"
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%d\t%d\t%d\t%d\t%d\n",
			recs[o.Target].Name, recs[o.Query].Name, strand,
			o.TargetStart, o.TargetEnd, o.QueryStart, o.QueryEnd, o.Score)
	}
	return w.Flush()
}
