// Command darwin-call calls variants from long reads against a
// reference: reads are mapped with the Darwin engine and pileup
// majority voting emits SNPs, insertions, and deletions in minimal
// VCF — the reference-guided "small changes" application of Section 2.
//
// Usage:
//
//	darwin-call -ref ref.fa -reads reads.fq > calls.vcf
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/obs"
	"darwin/internal/varcall"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "darwin-call:", err)
		os.Exit(1)
	}
}

func run() error {
	refPath := flag.String("ref", "", "reference FASTA (required; first sequence used)")
	readsPath := flag.String("reads", "", "reads FASTA/FASTQ (required)")
	k := flag.Int("k", 11, "D-SOFT seed size k")
	n := flag.Int("n", 700, "D-SOFT seeds per query strand N")
	h := flag.Int("h", 20, "D-SOFT base-count threshold h")
	minDepth := flag.Int("min-depth", 5, "minimum coverage to call")
	minFrac := flag.Float64("min-frac", 0.5, "minimum supporting-read fraction")
	out := flag.String("out", "", "output VCF path (default stdout)")
	obsFlags := obs.AddFlags(flag.CommandLine)
	flag.Parse()

	if *refPath == "" || *readsPath == "" {
		return fmt.Errorf("-ref and -reads are required")
	}
	session, err := obsFlags.Start("darwin-call")
	if err != nil {
		return err
	}
	defer session.Close()

	refRecs, err := dna.ReadFile(*refPath)
	if err != nil {
		return err
	}
	if len(refRecs) == 0 {
		return fmt.Errorf("no sequences in %s", *refPath)
	}
	refName, ref := refRecs[0].Name, refRecs[0].Seq

	readRecs, err := dna.ReadFile(*readsPath)
	if err != nil {
		return err
	}
	reads := make([]dna.Seq, len(readRecs))
	for i := range readRecs {
		reads[i] = readRecs[i].Seq
	}

	cfg := varcall.DefaultConfig(core.DefaultConfig(*k, *n, *h))
	cfg.MinDepth = *minDepth
	cfg.MinFrac = *minFrac
	// SIGTERM/SIGINT cancels between reads.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	calls, err := varcall.CallContext(ctx, ref, reads, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "darwin-call: %d variants from %d reads\n", len(calls), len(reads))

	w := bufio.NewWriter(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = bufio.NewWriter(f)
	}
	fmt.Fprintln(w, "##fileformat=VCFv4.2")
	fmt.Fprintf(w, "##contig=<ID=%s,length=%d>\n", refName, len(ref))
	fmt.Fprintln(w, "##INFO=<ID=DP,Number=1,Type=Integer,Description=\"Read depth\">")
	fmt.Fprintln(w, "##INFO=<ID=SU,Number=1,Type=Integer,Description=\"Supporting reads\">")
	fmt.Fprintln(w, "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO")
	for _, c := range calls {
		// VCF indel convention: anchor on the preceding reference base.
		var pos int
		var refAllele, altAllele string
		switch c.Kind {
		case varcall.SNP:
			pos = c.Pos + 1
			refAllele, altAllele = c.Ref, c.Alt
		case varcall.Del:
			if c.Pos == 0 {
				continue // no anchor base
			}
			pos = c.Pos // anchor at pos-1, 1-based = c.Pos
			refAllele = string(ref[c.Pos-1:c.Pos]) + c.Ref
			altAllele = string(ref[c.Pos-1 : c.Pos])
		case varcall.Ins:
			pos = c.Pos + 1
			refAllele = string(ref[c.Pos : c.Pos+1])
			altAllele = refAllele + c.Alt
		}
		fmt.Fprintf(w, "%s\t%d\t.\t%s\t%s\t.\tPASS\tDP=%d;SU=%d\n",
			refName, pos, refAllele, altAllele, c.Depth, c.Support)
	}
	return w.Flush()
}
