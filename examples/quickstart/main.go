// Quickstart: the smallest end-to-end Darwin run. Generates a toy
// genome, simulates a handful of noisy PacBio-like reads, maps them
// with D-SOFT + GACT, and prints the alignments — plus the paper's
// Figure 1/4 worked example showing a GACT tiled alignment matching
// optimal Smith-Waterman.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"darwin/internal/align"
	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/gact"
	"darwin/internal/genome"
	"darwin/internal/readsim"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// --- The paper's worked example (Figures 1 and 4) ---------------
	R := dna.NewSeq("GCGACTTT")
	Q := dna.NewSeq("GTCGTTT")
	sc := align.Figure1()
	opt, err := align.SmithWaterman(R, Q, &sc)
	if err != nil {
		return err
	}
	// The engine's first tile spans forward from the anchor: at (4,3)
	// it is Figure 4's last tile, R[4:8] × Q[3:7], and the extension
	// then runs left to the sequence starts.
	eng, err := gact.NewEngine(&gact.Config{T: 4, O: 1, Scoring: sc})
	if err != nil {
		return err
	}
	res, stats, err := eng.Extend(R, Q, 4, 3)
	if err != nil {
		return err
	}
	fmt.Println("Paper Figure 1/4 example (ref GCGACTTT vs query GTCGTTT):")
	fmt.Printf("  optimal Smith-Waterman: score=%d cigar=%s\n", opt.Score, opt.Cigar)
	fmt.Printf("  GACT (T=4, O=1):        score=%d cigar=%s (%d tiles)\n\n", res.Score, res.Cigar, stats.Tiles)

	// --- A tiny mapping run ------------------------------------------
	g, err := genome.Generate(genome.Config{Length: 100_000, GC: 0.41, RepeatFraction: 0.2,
		RepeatFamilies: 4, RepeatUnitLen: 300, RepeatDivergence: 0.1, TandemFraction: 0.1, Seed: 1})
	if err != nil {
		return err
	}
	fmt.Printf("Synthetic genome: %d bp, GC %.2f\n", len(g.Seq), dna.GCContent(g.Seq))

	reads, err := readsim.SimulateN(g.Seq, 5, readsim.Config{
		Profile: readsim.PacBio, MeanLen: 3000, Seed: 2,
	})
	if err != nil {
		return err
	}

	engine, err := core.New(g.Seq, core.DefaultConfig(11, 600, 20))
	if err != nil {
		return err
	}
	fmt.Printf("Indexed with k=11 in %s\n\n", engine.TableBuildTime)

	for i := range reads {
		r := &reads[i]
		alns, st := engine.MapRead(r.Seq)
		best := core.Best(alns)
		fmt.Printf("%s (truth: [%d,%d) strand %s, %d%% errors)\n",
			r.Name, r.RefStart, r.RefEnd, strand(r.Reverse),
			(r.Errors.Sub+r.Errors.Ins+r.Errors.Del)*100/r.TemplateLen())
		if best == nil {
			fmt.Println("  unmapped")
			continue
		}
		q := r.Seq
		if best.Reverse {
			q = dna.RevComp(q)
		}
		fmt.Printf("  mapped to [%d,%d) strand %s, score %d, identity %.1f%%\n",
			best.Result.RefStart, best.Result.RefEnd, strand(best.Reverse),
			best.Result.Score, best.Result.Identity(g.Seq, q)*100)
		fmt.Printf("  D-SOFT: %d seeds -> %d candidates; GACT: %d tiles, first-tile score %d\n",
			st.DSOFT.SeedsIssued, st.Candidates, st.Tiles, best.FirstTileScore)
	}
	return nil
}

func strand(rev bool) string {
	if rev {
		return "-"
	}
	return "+"
}
