// De novo assembly example: the overlap step Darwin accelerates
// (Table 4, bottom; C. elegans stand-in) carried through layout and a
// draft consensus via the olc package, so the full
// overlap-layout-consensus story of Section 2 is runnable.
//
// Run with: go run ./examples/denovo
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"darwin/internal/align"
	"darwin/internal/assembly"
	"darwin/internal/baseline"
	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/genome"
	"darwin/internal/hw"
	"darwin/internal/olc"
	"darwin/internal/readsim"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const genomeLen = 100_000
	const readLen = 3000
	const coverage = 10

	g, err := genome.Generate(genome.Config{Length: genomeLen, GC: 0.36, RepeatFraction: 0.1,
		RepeatFamilies: 4, RepeatUnitLen: 300, RepeatDivergence: 0.1, TandemFraction: 0.1, Seed: 21})
	if err != nil {
		return err
	}
	reads, err := readsim.Simulate(g.Seq, readsim.Config{
		Profile: readsim.PacBio, MeanLen: readLen, LenSpread: 0.1, Coverage: coverage, Seed: 22,
	})
	if err != nil {
		return err
	}
	seqs := make([]dna.Seq, len(reads))
	readLens := make([]int, len(reads))
	for i := range reads {
		seqs[i] = reads[i].Seq
		readLens[i] = len(reads[i].Seq)
	}
	fmt.Printf("De novo workload: %d bp genome, %d reads at %d× coverage (PacBio profile)\n\n",
		genomeLen, len(reads), coverage)

	// --- Overlap step: Darwin vs the DALIGNER-class baseline ---------
	dal := baseline.NewDalignerLike(baseline.DefaultDalignerConfig())
	start := time.Now()
	dalOv, _ := dal.FindOverlaps(seqs)
	dalTime := time.Since(start)
	dalConf := assembly.EvaluateOverlaps(reads, assembly.FromDalignerOverlaps(dalOv), 1000, 0.8)

	ovCfg := core.DefaultConfig(12, readLen/3, 24)
	ovCfg.SeedStride = 3 // spread seeds across the whole read (see core.Config)
	ovp, err := core.NewOverlapper(seqs, ovCfg)
	if err != nil {
		return err
	}
	ctx := context.Background()
	start = time.Now()
	overlaps, stats, err := ovp.Run(ctx, core.OverlapRun{MinOverlap: 500})
	if err != nil {
		return err
	}
	darwinTime := time.Since(start)
	dConf := assembly.EvaluateOverlaps(reads, assembly.FromCoreOverlaps(overlaps), 1000, 0.8)

	fmt.Println("Overlap step:")
	fmt.Printf("  %-16s %4d overlaps  sensitivity %5.1f%%  precision %5.1f%%  %7.2fs\n",
		"daligner-like", len(dalOv), dalConf.Sensitivity()*100, dalConf.Precision()*100, dalTime.Seconds())
	fmt.Printf("  %-16s %4d overlaps  sensitivity %5.1f%%  precision %5.1f%%  %7.2fs (%.2fs table build)\n",
		"darwin", len(overlaps), dConf.Sensitivity()*100, dConf.Precision()*100,
		darwinTime.Seconds(), stats.TableBuildTime.Seconds())

	// ASIC estimate per the paper's method: software table build plus
	// the slower of modeled D-SOFT/GACT across all strand queries.
	queries := float64(2 * len(reads))
	w := hw.Workload{TileT: 320, TileO: 128}
	if stats.Map.DSOFT.SeedsIssued > 0 {
		w.SeedsPerRead = float64(stats.Map.DSOFT.SeedsIssued) / queries
		w.HitsPerSeed = float64(stats.Map.DSOFT.Hits) / float64(stats.Map.DSOFT.SeedsIssued)
		w.TilesPerRead = float64(stats.Map.Tiles) / queries
	}
	est := hw.NewDarwin().Estimate(w)
	hwSec := stats.TableBuildTime.Seconds() + queries/est.ReadsPerSec
	fmt.Printf("  %-16s modeled %7.3fs => %.0f× vs daligner-like\n\n",
		"darwin (ASIC)", hwSec, dalTime.Seconds()/hwSec)

	// --- Layout + consensus ------------------------------------------
	layout, err := olc.BuildLayoutContext(ctx, readLens, overlaps)
	if err != nil {
		return err
	}
	st := olc.Summarize(layout)
	fmt.Printf("Layout: %s\n", st)
	contig := olc.Splice(seqs, layout.Contigs[0])
	errRate := func(s dna.Seq) (float64, error) {
		probe := s
		if len(probe) > 20_000 {
			probe = probe[:20_000]
		}
		d1, err := align.EditDistance(g.Seq, probe, align.EditInfix)
		if err != nil {
			return 0, err
		}
		d2, err := align.EditDistance(g.Seq, dna.RevComp(probe), align.EditInfix)
		if err != nil {
			return 0, err
		}
		return float64(min(d1, d2)) / float64(len(probe)), nil
	}
	draftErr, err := errRate(contig)
	if err != nil {
		return err
	}
	fmt.Printf("Largest draft contig: %d bp, error vs genome %.1f%% (raw-read accuracy)\n",
		len(contig), draftErr*100)

	// Consensus polishing (Section 2: "a consensus of reads corrects
	// the vast majority of read errors").
	polished := contig
	for round := 0; round < 2; round++ {
		polished, err = olc.PolishContext(ctx, polished, seqs, core.DefaultConfig(12, readLen/3, 24), 0)
		if err != nil {
			return err
		}
	}
	polishedErr, err := errRate(polished)
	if err != nil {
		return err
	}
	fmt.Printf("After 2 consensus rounds: %d bp, error vs genome %.2f%%\n",
		len(polished), polishedErr*100)
	return nil
}
