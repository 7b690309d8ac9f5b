// Command readsim simulates long reads from a reference genome with
// the error profiles of the paper's Table 1 — the PBSIM stand-in of
// this reproduction. Ground-truth intervals are written alongside the
// reads so downstream evaluation can apply the paper's 50 bp
// criterion.
//
// Usage:
//
//	readsim -ref ref.fa -profile pacbio -coverage 30 -out reads.fq -truth truth.tsv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"darwin/internal/dna"
	"darwin/internal/readsim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "readsim:", err)
		os.Exit(1)
	}
}

func run() error {
	refPath := flag.String("ref", "", "reference FASTA (required)")
	profileName := flag.String("profile", "pacbio", "error profile: pacbio, ont2d, ont1d")
	coverage := flag.Float64("coverage", 0, "target coverage (mutually exclusive with -n)")
	n := flag.Int("n", 0, "exact read count")
	meanLen := flag.Int("len", 10_000, "mean read length")
	spread := flag.Float64("len-spread", 0.1, "uniform length jitter fraction")
	seed := flag.Int64("seed", 1, "random seed")
	out := flag.String("out", "", "output FASTQ path (default stdout)")
	truthPath := flag.String("truth", "", "ground-truth TSV path")
	flag.Parse()

	if *refPath == "" {
		return fmt.Errorf("-ref is required")
	}
	profile, err := profileByName(*profileName)
	if err != nil {
		return err
	}
	recs, err := dna.ReadFile(*refPath)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("no sequences in %s", *refPath)
	}
	ref := recs[0].Seq

	cfg := readsim.Config{Profile: profile, MeanLen: *meanLen, LenSpread: *spread, Coverage: *coverage, Seed: *seed}
	var reads []readsim.Read
	if *n > 0 {
		reads, err = readsim.SimulateN(ref, *n, cfg)
	} else if *coverage > 0 {
		reads, err = readsim.Simulate(ref, cfg)
	} else {
		return fmt.Errorf("one of -coverage or -n is required")
	}
	if err != nil {
		return err
	}

	outRecs := make([]dna.Record, len(reads))
	for i := range reads {
		outRecs[i] = dna.Record{Name: reads[i].Name, Seq: reads[i].Seq, Qual: reads[i].Qual}
	}
	if err := writeFASTQ(*out, outRecs); err != nil {
		return err
	}
	if *truthPath != "" {
		if err := writeTruth(*truthPath, reads); err != nil {
			return err
		}
	}
	m := readsim.MeasuredProfile(reads)
	fmt.Fprintf(os.Stderr, "readsim: %d reads, measured errors sub=%.2f%% ins=%.2f%% del=%.2f%%\n",
		len(reads), m.Sub*100, m.Ins*100, m.Del*100)
	return nil
}

func profileByName(name string) (readsim.Profile, error) {
	switch strings.ToLower(name) {
	case "pacbio":
		return readsim.PacBio, nil
	case "ont2d", "ont_2d":
		return readsim.ONT2D, nil
	case "ont1d", "ont_1d":
		return readsim.ONT1D, nil
	}
	return readsim.Profile{}, fmt.Errorf("unknown profile %q (want pacbio, ont2d or ont1d)", name)
}

func writeFASTQ(path string, recs []dna.Record) error {
	if path == "" {
		return dna.WriteFASTQ(os.Stdout, recs)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := dna.WriteFASTQ(f, recs); err != nil {
		return err
	}
	return f.Close()
}

func writeTruth(path string, reads []readsim.Read) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tref_start\tref_end\tstrand\tsub\tins\tdel")
	for i := range reads {
		r := &reads[i]
		strand := "+"
		if r.Reverse {
			strand = "-"
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%s\t%d\t%d\t%d\n",
			r.Name, r.RefStart, r.RefEnd, strand, r.Errors.Sub, r.Errors.Ins, r.Errors.Del)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
