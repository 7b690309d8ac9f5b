// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per experiment, backed by
// internal/experiments in Quick mode), plus kernel micro-benchmarks
// for the compute primitives the paper's hardware accelerates and the
// design-choice ablations DESIGN.md calls out.
//
// Run with: go test -bench=. -benchmem
package darwin_test

import (
	"fmt"
	"math/rand"
	"testing"

	"darwin/internal/align"
	"darwin/internal/dna"
	"darwin/internal/dsoft"
	"darwin/internal/dsoftsim"
	"darwin/internal/experiments"
	"darwin/internal/fmindex"
	"darwin/internal/gact"
	"darwin/internal/gactsim"
	"darwin/internal/genome"
	"darwin/internal/hw"
	"darwin/internal/readsim"
	"darwin/internal/seedtable"
)

// benchExperiment runs one experiment per iteration and reports a few
// headline metrics.
func benchExperiment(b *testing.B, id string, metricKeys map[string]string) {
	b.Helper()
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, experiments.Options{Quick: true, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for key, unit := range metricKeys {
		if v, ok := last.Values[key]; ok {
			b.ReportMetric(v, unit)
		}
	}
	if testing.Verbose() {
		b.Logf("\n%s", last.Report)
	}
}

func BenchmarkTable1ErrorProfiles(b *testing.B) {
	benchExperiment(b, "table1", map[string]string{
		"PacBio/total": "pacbio_err", "ONT_1D/total": "ont1d_err",
	})
}

func BenchmarkTable2AreaPower(b *testing.B) {
	benchExperiment(b, "table2", map[string]string{
		"Total/area": "mm2", "Total/power": "W",
	})
}

func BenchmarkTable3DSOFTThroughput(b *testing.B) {
	benchExperiment(b, "table3", map[string]string{
		"model/k11": "k11_Kseeds/s", "model/k15": "k15_Kseeds/s",
	})
}

func BenchmarkTable4Overall(b *testing.B) {
	benchExperiment(b, "table4", map[string]string{
		"PacBio/speedup": "pacbio_speedup", "denovo/speedup": "denovo_speedup",
	})
}

func BenchmarkFig9aGACTOptimality(b *testing.B) {
	benchExperiment(b, "fig9a", map[string]string{
		"PacBio/T320_O128": "pacbio_opt_frac", "ONT_1D/T320_O128": "ont1d_opt_frac",
	})
}

func BenchmarkFig9bGACTArrayThroughput(b *testing.B) {
	benchExperiment(b, "fig9b", map[string]string{
		"T320_O128": "aligns/s",
	})
}

func BenchmarkFig10ThroughputVsLength(b *testing.B) {
	benchExperiment(b, "fig10", map[string]string{
		"speedup_vs_edlib/1000": "speedup_1k", "speedup_vs_edlib/2000": "speedup_2k",
	})
}

func BenchmarkFig11DSOFTTuning(b *testing.B) {
	benchExperiment(b, "fig11", nil)
}

func BenchmarkFig12FirstTileScores(b *testing.B) {
	benchExperiment(b, "fig12", map[string]string{
		"false_filtered_at_90": "false_filtered", "true_lost_at_90": "true_lost",
	})
}

func BenchmarkFig13Waterfall(b *testing.B) {
	benchExperiment(b, "fig13", map[string]string{
		"line1/total_ms": "graphmap_ms", "line6/total_ms": "darwin_ms",
	})
}

// --- Kernel micro-benchmarks ---------------------------------------

func benchPair(b *testing.B, n int, profile readsim.Profile) (dna.Seq, dna.Seq) {
	b.Helper()
	g, err := genome.Generate(genome.Config{Length: n + 200, GC: 0.45, Seed: 71})
	if err != nil {
		b.Fatal(err)
	}
	reads, err := readsim.SimulateN(g.Seq, 1, readsim.Config{Profile: profile, MeanLen: n, Seed: 72})
	if err != nil {
		b.Fatal(err)
	}
	r := reads[0]
	region := g.Seq
	if r.Reverse {
		region = dna.RevComp(g.Seq)
	}
	return region, r.Seq
}

// BenchmarkGACTTile measures the compute-intensive Align step the
// GACT array accelerates: one 320×320 tile with traceback.
func BenchmarkGACTTile(b *testing.B) {
	ref, q := benchPair(b, 400, readsim.PacBio)
	sc := align.GACTEval()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		align.AlignTile(ref[:320], q[:320], false, 192, &sc)
	}
	b.ReportMetric(float64(320*320), "cells/op")
}

// anchoredTile returns a side×side tile pair whose alignment starts at
// its corner, the way an extension tile continues an existing
// alignment (benchPair's whole region would add a spurious leading
// shift that widens the band).
func anchoredTile(b *testing.B, profile readsim.Profile, side int) (dna.Seq, dna.Seq) {
	b.Helper()
	g, err := genome.Generate(genome.Config{Length: side + 280, GC: 0.45, Seed: 71})
	if err != nil {
		b.Fatal(err)
	}
	reads, err := readsim.SimulateN(g.Seq, 1, readsim.Config{Profile: profile, MeanLen: side + 80, Seed: 72})
	if err != nil {
		b.Fatal(err)
	}
	r := reads[0]
	region, start := g.Seq, r.RefStart
	if r.Reverse {
		region = dna.RevComp(g.Seq)
		start = len(region) - r.RefEnd
	}
	start = min(start, len(region)-side)
	return region[start:][:side], r.Seq[:side]
}

// benchTile times extension tiles of ref × q on a TileAligner in the
// given mode, reporting the effective rate over the geometric tile
// area and the cost per cell the pointer fill actually wrote.
func benchTile(b *testing.B, sc *align.Scoring, mode align.KernelMode, ref, q dna.Seq) align.KernelStats {
	ta, err := align.NewTileAligner(sc)
	if err != nil {
		b.Fatal(err)
	}
	ta.Preallocate(max(len(ref), len(q)))
	ta.SetKernel(mode)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ta.AlignTile(ref, q, false, 192)
	}
	b.StopTimer()
	ks := ta.KernelStats()
	area := float64(len(ref) * len(q))
	filled := float64(ks.LUTCells + ks.BitvectorCells)
	b.ReportMetric(area, "cells/op")
	b.ReportMetric(area*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcells/s")
	b.ReportMetric(filled/float64(b.N), "filled_cells/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/filled, "ns/filled_cell")
	return ks
}

// BenchmarkAlignTile measures a 320×320 extension tile at PacBio's 15 %
// error on the reusable allocation-free kernel (align.TileAligner) —
// BenchmarkGACTTile above is the allocating reference oracle — under
// the paper's linear scoring (open == ext, the linear-gap pointer fill)
// and under an affine one (open > ext, the affine fill). auto is the
// production path: the vector fill for the linear scoring on amd64
// with AVX2 (on byte lanes first on AVX-512BW), in the band its
// predecessor's score guesses, the Myers pass, rescore and banded fill
// otherwise, then traceback; lut is the full fill and traceback alone,
// so its ns/filled_cell is the fill loop's cost per cell.
// internal/align's BenchmarkAlignTile times each vector width the CPU
// has.
func BenchmarkAlignTile(b *testing.B) {
	ref, q := anchoredTile(b, readsim.PacBio, 320)
	affine := align.GACTEval()
	affine.GapOpen = 2
	for _, sc := range []struct {
		name string
		sc   align.Scoring
	}{{"linear", align.GACTEval()}, {"affine", affine}} {
		b.Run(sc.name+"/auto", func(b *testing.B) { benchTile(b, &sc.sc, align.KernelAuto, ref, q) })
		b.Run(sc.name+"/lut", func(b *testing.B) { benchTile(b, &sc.sc, align.KernelLUT, ref, q) })
	}
}

// BenchmarkAlignTileBitvector contrasts the two kernel tiers on the
// workload the bitvector tier exists for: a high-identity (~3% error,
// HiFi/corrected-read class) 320×320 extension tile, where the
// provable band is narrow. The lut sub-benchmark is the full fill,
// the bitvector one is the Myers pass + affine rescore + banded fill.
// Both report Mcells/s as the *effective* rate over the geometric
// tile area, so the sub-benchmark ratio is the tier's end-to-end win;
// with KernelAuto the production path gets the bitvector rate whenever
// the profit gate admits the tile.
func BenchmarkAlignTileBitvector(b *testing.B) {
	hifi := readsim.Profile{Name: "HiFi", Sub: 0.005, Ins: 0.015, Del: 0.010}
	ref, q := anchoredTile(b, hifi, 320)
	sc := align.GACTEval()
	b.Run("lut", func(b *testing.B) { benchTile(b, &sc, align.KernelLUT, ref, q) })
	b.Run("bitvector", func(b *testing.B) {
		if ks := benchTile(b, &sc, align.KernelBitvector, ref, q); ks.BitvectorTiles != int64(b.N) {
			b.Fatalf("bitvector tier ran %d of %d tiles: %+v", ks.BitvectorTiles, b.N, ks)
		}
	})
}

// BenchmarkProfitGate is the break-even table of the auto tier's profit
// gate: 320×320 extension tiles at total error rates from 1 to 30 %
// (PacBio's substitution/insertion/deletion mix), each as a full fill
// (lut) and as the Myers pass + rescore + banded fill (bitvector, no
// gate). band is the half-width the Myers bound proved; auto takes the
// banded fill while 2·band + 1 < 320, so the table says where that
// rule and the faster of the two paths part.
func BenchmarkProfitGate(b *testing.B) {
	const side = 320
	sc := align.GACTEval()
	total := readsim.PacBio.Sub + readsim.PacBio.Ins + readsim.PacBio.Del
	for _, pct := range []int{1, 3, 6, 9, 12, 15, 20, 25, 30} {
		f := float64(pct) / 100 / total
		profile := readsim.Profile{Name: "mix", Sub: readsim.PacBio.Sub * f, Ins: readsim.PacBio.Ins * f, Del: readsim.PacBio.Del * f}
		ref, q := anchoredTile(b, profile, side)
		b.Run(fmt.Sprintf("err=%d%%/lut", pct), func(b *testing.B) { benchTile(b, &sc, align.KernelLUT, ref, q) })
		b.Run(fmt.Sprintf("err=%d%%/bitvector", pct), func(b *testing.B) {
			ks := benchTile(b, &sc, align.KernelBitvector, ref, q)
			b.ReportMetric((float64(ks.BitvectorCells)/float64(ks.BitvectorTiles)/side-1)/2, "band")
		})
	}
}

// BenchmarkScorePass times first tiles of 384×384 — what a candidate
// the h_tile filter sees costs — from an ONT_1D read against its own
// region and against an unrelated one, under the paper's scoring. At
// the production h_tile of 90 (htile90) the unrelated tile is rejected
// on the byte screen and the related one accepted and traced back;
// with the threshold above any score a 384² tile can reach (int16,
// side+1) both are rejected on the score pass alone: the int16 one on
// AVX2, the byte screen on AVX-512BW, where it holds every score below
// 255. ns/cell is the production pass (the widest vector lanes the CPU
// has on amd64, the scalar row pairs under -tags purego);
// internal/align's BenchmarkScorePass times each width.
func BenchmarkScorePass(b *testing.B) {
	const side = 384
	ref, q := anchoredTile(b, readsim.ONT1D, side)
	unrelated := dna.Random(rand.New(rand.NewSource(73)), side, 0.45)
	sc := align.GACTEval()
	for _, shape := range []struct {
		name     string
		minScore int
	}{{"htile90", 90}, {"int16", side + 1}} {
		for _, pair := range []struct {
			name string
			ref  dna.Seq
		}{{"ont1d", ref}, {"unrelated", unrelated}} {
			b.Run(shape.name+"/"+pair.name, func(b *testing.B) {
				ta, err := align.NewTileAligner(&sc)
				if err != nil {
					b.Fatal(err)
				}
				ta.Preallocate(side)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ta.AlignFirstTile(pair.ref, q, side-128, shape.minScore)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(side*side), "ns/cell")
			})
		}
	}
}

// BenchmarkEngineExtend10k measures a full 10 kbp GACT alignment
// (Fig. 10's software series at its longest point) on the production
// path: one reused gact.Engine (allocation-free TileAligner, score-pass
// first tile, banded extension tiles). banded_share is the share of tiles
// filled in a band, fallback_share the share whose band failed its
// check and was refilled in full; a worse guess of the band
// (align.TileAligner's certifiedFill) shows in both.
func BenchmarkEngineExtend10k(b *testing.B) { benchEngineExtend(b, 10000) }

// BenchmarkEngineExtend1k is BenchmarkEngineExtend10k at the 1 kbp
// PacBio read of the serving workloads, where a read is a first tile
// and a few extension tiles, so per-tile set-up weighs more.
func BenchmarkEngineExtend1k(b *testing.B) { benchEngineExtend(b, 1000) }

func benchEngineExtend(b *testing.B, n int) {
	ref, q := benchPair(b, n, readsim.PacBio)
	cfg := gact.DefaultConfig()
	engine, err := gact.NewEngine(&cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := engine.Extend(ref, q, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	ks := engine.KernelStats()
	tiles := float64(ks.BitvectorTiles + ks.LUTTiles)
	b.ReportMetric(float64(ks.BitvectorTiles)/tiles, "banded_share")
	b.ReportMetric(float64(ks.FallbackTiles)/tiles, "fallback_share")
}

// BenchmarkMyers10k measures the Edlib-class baseline on the same
// pairing (quadratic bit-vector).
func BenchmarkMyers10k(b *testing.B) {
	ref, q := benchPair(b, 10000, readsim.PacBio)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := align.EditDistance(ref, q, align.EditGlobal); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSmithWaterman2k measures the O(mn) oracle.
func BenchmarkSmithWaterman2k(b *testing.B) {
	ref, q := benchPair(b, 2000, readsim.PacBio)
	sc := align.GACTEval()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := align.SmithWaterman(ref, q, &sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDSOFTQuery measures the software filter (the memory-bound
// stage Darwin's accelerator targets).
func BenchmarkDSOFTQuery(b *testing.B) {
	g, err := genome.Generate(genome.Config{Length: 500_000, GC: 0.45, Seed: 73})
	if err != nil {
		b.Fatal(err)
	}
	tab, err := seedtable.Build(g.Seq, 11, seedtable.Options{})
	if err != nil {
		b.Fatal(err)
	}
	filter, err := dsoft.New(tab, dsoft.Config{N: 1000, H: 24, BinSize: 128})
	if err != nil {
		b.Fatal(err)
	}
	reads, err := readsim.SimulateN(g.Seq, 1, readsim.Config{Profile: readsim.PacBio, MeanLen: 10000, Seed: 74})
	if err != nil {
		b.Fatal(err)
	}
	q := reads[0].Seq
	b.ResetTimer()
	seeds := 0
	for i := 0; i < b.N; i++ {
		_, st := filter.Query(q)
		seeds += st.SeedsIssued
	}
	b.ReportMetric(float64(seeds)/b.Elapsed().Seconds()/1e3, "Kseeds/s")
}

// BenchmarkSeedTableVsFMIndex contrasts the two index structures of
// Section 3 (design ablation #4 in DESIGN.md): the sequential-hit seed
// position table vs FM-index backward search + locate.
func BenchmarkSeedTableVsFMIndex(b *testing.B) {
	g, err := genome.Generate(genome.Config{Length: 300_000, GC: 0.45, Seed: 75})
	if err != nil {
		b.Fatal(err)
	}
	const k = 12
	tab, err := seedtable.Build(g.Seq, k, seedtable.Options{NoMask: true})
	if err != nil {
		b.Fatal(err)
	}
	idx, err := fmindex.Build(g.Seq)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(76))
	queries := make([]dna.Seq, 256)
	for i := range queries {
		p := rng.Intn(len(g.Seq) - k)
		queries[i] = g.Seq[p : p+k].Clone()
	}
	b.Run("seedtable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tab.LookupSeq(queries[i%len(queries)], 0)
		}
	})
	b.Run("fmindex", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			idx.Locate(queries[i%len(queries)], 64)
		}
	})
}

// BenchmarkSeedTableBuild measures index construction (the software
// cost dominating Darwin's de novo accounting).
func BenchmarkSeedTableBuild(b *testing.B) {
	g, err := genome.Generate(genome.Config{Length: 1_000_000, GC: 0.45, Seed: 77})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := seedtable.Build(g.Seq, 12, seedtable.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(g.Seq)))
}

// BenchmarkGACTSimTile measures the cycle-level array simulator on
// one 320×320 tile (functional fidelity costs ~Npe× the software
// kernel; the ratio is the price of bit-faithful PE emulation).
func BenchmarkGACTSimTile(b *testing.B) {
	ref, q := benchPair(b, 400, readsim.PacBio)
	arr, err := gactsim.New(64, 2048, align.GACTEval())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cycles float64
	for i := 0; i < b.N; i++ {
		_, cyc, err := arr.AlignTile(ref[:320], q[:320], false, 192)
		if err != nil {
			b.Fatal(err)
		}
		cycles = float64(cyc.Total())
	}
	b.ReportMetric(cycles, "sim_cycles/tile")
}

// BenchmarkDSOFTSim measures the NoC/bank simulation throughput.
func BenchmarkDSOFTSim(b *testing.B) {
	g, err := genome.Generate(genome.Config{Length: 200_000, GC: 0.45, Seed: 78})
	if err != nil {
		b.Fatal(err)
	}
	tab, err := seedtable.Build(g.Seq, 6, seedtable.Options{})
	if err != nil {
		b.Fatal(err)
	}
	filter, err := dsoft.New(tab, dsoft.Config{N: 1000, H: 24, BinSize: 128})
	if err != nil {
		b.Fatal(err)
	}
	reads, err := readsim.SimulateN(g.Seq, 1, readsim.Config{Profile: readsim.ONT2D, MeanLen: 3000, Seed: 79})
	if err != nil {
		b.Fatal(err)
	}
	trace := filter.Trace(reads[0].Seq)
	b.ResetTimer()
	var upc float64
	for i := 0; i < b.N; i++ {
		res, err := dsoftsim.Simulate(trace, dsoftsim.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		upc = res.UpdatesPerCycle()
	}
	b.ReportMetric(upc, "updates/cycle")
}

// BenchmarkDarwinEstimator measures the hardware model itself (it
// must be negligible).
func BenchmarkDarwinEstimator(b *testing.B) {
	d := hw.NewDarwin()
	w := hw.Workload{SeedsPerRead: 1500, HitsPerSeed: 30, TilesPerRead: 120, TileT: 320, TileO: 128}
	for i := 0; i < b.N; i++ {
		d.Estimate(w)
	}
}
