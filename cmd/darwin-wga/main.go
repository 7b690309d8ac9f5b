// Command darwin-wga aligns two whole genomes (Section 11's extension:
// LASTZ-style seeding with D-SOFT, single-tile GACT filtering, GACT
// extension) and writes the alignment blocks as TSV. Reverse-strand
// blocks indicate inversions.
//
// Usage:
//
//	darwin-wga -ref a.fa -query b.fa > blocks.tsv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"darwin/internal/dna"
	"darwin/internal/obs"
	"darwin/internal/wga"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "darwin-wga:", err)
		os.Exit(1)
	}
}

func run() error {
	refPath := flag.String("ref", "", "reference genome FASTA (required)")
	queryPath := flag.String("query", "", "query genome FASTA (required)")
	k := flag.Int("k", 12, "seed size")
	strideF := flag.Int("stride", 8, "query seed stride")
	h := flag.Int("h", 24, "D-SOFT threshold")
	minBlock := flag.Int("min-block", 300, "minimum block length")
	out := flag.String("out", "", "output TSV path (default stdout)")
	obsFlags := obs.AddFlags(flag.CommandLine)
	flag.Parse()

	if *refPath == "" || *queryPath == "" {
		return fmt.Errorf("-ref and -query are required")
	}
	session, err := obsFlags.Start("darwin-wga")
	if err != nil {
		return err
	}
	defer session.Close()

	ref, err := firstSeq(*refPath)
	if err != nil {
		return err
	}
	query, err := firstSeq(*queryPath)
	if err != nil {
		return err
	}

	cfg := wga.DefaultConfig()
	cfg.SeedK = *k
	cfg.Stride = *strideF
	cfg.Threshold = *h
	cfg.MinBlockLen = *minBlock
	blocks, stats, err := wga.Align(ref, query, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "darwin-wga: %d blocks (%d candidates, %d passed h_tile, %d GACT tiles); ref coverage %.1f%%\n",
		len(blocks), stats.Candidates, stats.PassedHTile, stats.Tiles, wga.Coverage(len(ref), blocks)*100)

	w := bufio.NewWriter(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = bufio.NewWriter(f)
	}
	fmt.Fprintln(w, "ref_start\tref_end\tstrand\tquery_start\tquery_end\tscore\tidentity")
	for i := range blocks {
		b := &blocks[i]
		strand := "+"
		q := query
		if b.QueryRev {
			strand = "-"
			q = dna.RevComp(query)
		}
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\t%.4f\n",
			b.Result.RefStart, b.Result.RefEnd, strand,
			b.Result.QueryStart, b.Result.QueryEnd,
			b.Result.Score, b.Result.Identity(ref, q))
	}
	return w.Flush()
}

func firstSeq(path string) (dna.Seq, error) {
	recs, err := dna.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("no sequences in %s", path)
	}
	return recs[0].Seq, nil
}
