package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"darwin/internal/assembly"
	"darwin/internal/baseline"
	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/dsoft"
	"darwin/internal/hw"
	"darwin/internal/metrics"
	"darwin/internal/readsim"
	"darwin/internal/seedtable"
)

// Table1 regenerates the error-profile table: reads are simulated for
// each class and the injected rates are measured back, which must
// match the paper's Table 1 (the profiles are the paper's numbers).
func Table1(o Options) (*Result, error) {
	o = o.withDefaults()
	ref, err := makeGenome(o)
	if err != nil {
		return nil, err
	}
	var tb metrics.Table
	tb.Header = []string{"Read type", "Substitution", "Insertion", "Deletion", "Total"}
	values := map[string]float64{}
	for _, p := range readsim.Profiles {
		reads, err := simulate(ref, o, p)
		if err != nil {
			return nil, err
		}
		m := readsim.MeasuredProfile(reads)
		tb.AddRow(p.Name,
			fmt.Sprintf("%.2f%%", m.Sub*100),
			fmt.Sprintf("%.2f%%", m.Ins*100),
			fmt.Sprintf("%.2f%%", m.Del*100),
			fmt.Sprintf("%.2f%%", m.Total()*100))
		values[p.Name+"/total"] = m.Total()
		values[p.Name+"/sub"] = m.Sub
		values[p.Name+"/ins"] = m.Ins
		values[p.Name+"/del"] = m.Del
	}
	return &Result{ID: "table1", Report: tb.Render(), Values: values}, nil
}

// Table2 regenerates the ASIC area/power breakdown from the component
// model, plus the 14nm projection and FPGA operating point.
func Table2(o Options) (*Result, error) {
	chip := hw.DefaultChip()
	rows := chip.AreaPower()
	var tb metrics.Table
	tb.Header = []string{"Component", "Configuration", "Area (mm²)", "Power (W)"}
	values := map[string]float64{}
	for _, r := range rows {
		tb.AddRow(r.Component, r.Config, fmt.Sprintf("%.1f", r.AreaMM2), fmt.Sprintf("%.2f", r.PowerW))
		values[r.Component+"/area"] = r.AreaMM2
		values[r.Component+"/power"] = r.PowerW
	}
	area14, power14 := chip.Scaled14nm()
	values["14nm/area"] = area14
	values["14nm/power"] = power14
	fpga := hw.DefaultFPGA()
	fpgaTiles := fpga.TilesPerSecond(320, 128)
	values["fpga/tiles_per_sec"] = fpgaTiles
	report := tb.Render() +
		fmt.Sprintf("\n14nm projection: %.1f mm², %.1f W\n", area14, power14) +
		fmt.Sprintf("FPGA prototype (%s): %.2g GACT tiles/s at T=320\n", fpga, fpgaTiles)
	return &Result{ID: "table2", Report: report, Values: values}, nil
}

// Table3 regenerates the seed-size study. Two parts:
//
//  1. model reproduction at paper scale: the Darwin throughput column
//     recomputed from the paper's GRCh38 hits/seed values;
//  2. scaled measurement: a seed-size sweep over the synthetic genome
//     with k chosen so hits/seed spans the same regime, measuring the
//     software implementation and modeling Darwin.
func Table3(o Options) (*Result, error) {
	o = o.withDefaults()
	model := hw.NewDSOFTModel(hw.DefaultChip())
	values := map[string]float64{}

	var paperTb metrics.Table
	paperTb.Header = []string{"k", "hits/seed (GRCh38)", "Darwin model (Kseeds/s)", "paper (Kseeds/s)"}
	paperRows := []struct {
		k     int
		hits  float64
		paper float64
	}{
		{11, 1866.1, 1426.9}, {12, 491.6, 5422.6}, {13, 127.3, 19081.7},
		{14, 33.4, 55189.2}, {15, 8.7, 91138.7},
	}
	for _, r := range paperRows {
		got := model.SeedsPerSecond(r.hits) / 1e3
		paperTb.AddRow(fmt.Sprint(r.k), fmt.Sprintf("%.1f", r.hits),
			fmt.Sprintf("%.1f", got), fmt.Sprintf("%.1f", r.paper))
		values[fmt.Sprintf("model/k%d", r.k)] = got
	}

	ref, err := makeGenome(o)
	if err != nil {
		return nil, err
	}
	reads, err := simulate(ref, o, readsim.PacBio)
	if err != nil {
		return nil, err
	}
	var scaledTb metrics.Table
	scaledTb.Header = []string{"k", "hits/seed (measured)", "software (Kseeds/s)", "Darwin model (Kseeds/s)", "speedup"}
	ks := []int{6, 7, 8, 9, 10}
	if o.Quick {
		ks = []int{6, 8, 10}
	}
	for _, k := range ks {
		tab, err := seedtable.Build(ref, k, seedtable.Options{})
		if err != nil {
			return nil, err
		}
		filter, err := dsoft.New(tab, dsoft.Config{N: o.ReadLen / 4, H: 2 * k, BinSize: 128})
		if err != nil {
			return nil, err
		}
		// One pass over the reads gives the seed and hit counts; its
		// time is the median of table3Passes passes, since a single cold
		// pass moves 2–4× with the host.
		var seeds, hits int
		passes := make([]float64, table3Passes)
		for p := range passes {
			seeds, hits = 0, 0
			start := time.Now()
			for i := range reads {
				_, st := filter.Query(reads[i].Seq)
				seeds += st.SeedsIssued
				hits += st.Hits
			}
			passes[p] = time.Since(start).Seconds()
		}
		slices.Sort(passes)
		elapsed := passes[len(passes)/2]
		if seeds == 0 || elapsed == 0 {
			continue
		}
		hitsPerSeed := float64(hits) / float64(seeds)
		swKseeds := float64(seeds) / elapsed / 1e3
		hwKseeds := model.SeedsPerSecond(hitsPerSeed) / 1e3
		scaledTb.AddRow(fmt.Sprint(k),
			fmt.Sprintf("%.1f", hitsPerSeed),
			fmt.Sprintf("%.1f", swKseeds),
			fmt.Sprintf("%.1f", hwKseeds),
			fmt.Sprintf("%.0f×", hwKseeds/swKseeds))
		values[fmt.Sprintf("scaled/k%d/hits_per_seed", k)] = hitsPerSeed
		values[fmt.Sprintf("scaled/k%d/speedup", k)] = hwKseeds / swKseeds
	}
	report := "Model reproduction at paper scale (GRCh38 hits/seed):\n" + paperTb.Render() +
		fmt.Sprintf("\nScaled measurement (synthetic %d bp genome):\n", o.GenomeLen) + scaledTb.Render()
	return &Result{ID: "table3", Report: report, Values: values}, nil
}

// table3Passes is how many timed passes over the reads Table 3 takes
// per seed size; the software column reports their median.
const table3Passes = 5

// Table4 regenerates the overall comparison: reference-guided mapping
// of the three read classes against the class-appropriate baseline,
// and the de novo overlap step against the DALIGNER-class baseline,
// with Darwin's speed from the hardware estimator.
func Table4(o Options) (*Result, error) {
	o = o.withDefaults()
	ref, err := makeGenome(o)
	if err != nil {
		return nil, err
	}
	estimator := hw.NewDarwin()
	values := map[string]float64{}

	var tb metrics.Table
	tb.Header = []string{"Read type", "D-SOFT (k,N,h)", "Baseline", "Sens base", "Sens darwin",
		"Prec base", "Prec darwin", "Base reads/s", "Darwin reads/s (model)", "Speedup", "Energy ratio"}

	for _, p := range readsim.Profiles {
		reads, err := simulate(ref, o, p)
		if err != nil {
			return nil, err
		}
		k, n, h := classConfig(p, o.ReadLen)
		eng, err := core.New(ref, core.DefaultConfig(k, n, h))
		if err != nil {
			return nil, err
		}
		dm := assembly.NewDarwinMapper(eng)
		dRes := assembly.EvaluateRefGuided(dm, reads)

		var bRes assembly.RefGuidedResult
		if p.Name == "PacBio" {
			bw, err := baseline.NewBWAMemLike(ref, baseline.DefaultBWAMemConfig())
			if err != nil {
				return nil, err
			}
			bRes = assembly.EvaluateRefGuided(assembly.BWAMemMapper{B: bw}, reads)
		} else {
			gm, err := baseline.NewGraphMapLike(ref, baseline.DefaultGraphMapConfig())
			if err != nil {
				return nil, err
			}
			bRes = assembly.EvaluateRefGuided(assembly.GraphMapMapper{G: gm}, reads)
		}

		est := estimator.Estimate(dm.Workload())
		speedup := 0.0
		if bRes.ReadsPerSec > 0 {
			speedup = est.ReadsPerSec / bRes.ReadsPerSec
		}
		tb.AddRow(p.Name,
			fmt.Sprintf("(%d,%d,%d)", k, n, h),
			bRes.Mapper,
			fmt.Sprintf("%.1f%%", bRes.Confusion.Sensitivity()*100),
			fmt.Sprintf("%.1f%%", dRes.Confusion.Sensitivity()*100),
			fmt.Sprintf("%.1f%%", bRes.Confusion.Precision()*100),
			fmt.Sprintf("%.1f%%", dRes.Confusion.Precision()*100),
			fmt.Sprintf("%.2f", bRes.ReadsPerSec),
			fmt.Sprintf("%.0f", est.ReadsPerSec),
			fmt.Sprintf("%.0f×", speedup),
			fmt.Sprintf("%.0f×", est.EnergyRatio(bRes.ReadsPerSec)))
		values[p.Name+"/darwin_sens"] = dRes.Confusion.Sensitivity()
		values[p.Name+"/baseline_sens"] = bRes.Confusion.Sensitivity()
		values[p.Name+"/darwin_prec"] = dRes.Confusion.Precision()
		values[p.Name+"/baseline_prec"] = bRes.Confusion.Precision()
		values[p.Name+"/speedup"] = speedup
	}

	// De novo overlap step (C. elegans stand-in: same synthetic class,
	// smaller region at ~8× coverage so reads overlap like the paper's
	// 30× workload; read length must exceed the 1 kbp overlap
	// criterion by a comfortable margin).
	ovGenomeLen := o.GenomeLen / 8
	ovReadLen := max(o.ReadLen, 2500)
	ovReads := 8 * ovGenomeLen / ovReadLen
	reads, err := readsim.SimulateN(ref[:ovGenomeLen], ovReads, readsim.Config{
		Profile: readsim.PacBio, MeanLen: ovReadLen, LenSpread: 0.1, Seed: o.Seed + 99,
	})
	if err != nil {
		return nil, err
	}
	seqs := make([]dna.Seq, len(reads))
	for i := range reads {
		seqs[i] = reads[i].Seq
	}

	dal := baseline.NewDalignerLike(baseline.DefaultDalignerConfig())
	dalStart := time.Now()
	dalOv, _ := dal.FindOverlaps(seqs)
	dalTime := time.Since(dalStart)
	dalConf := assembly.EvaluateOverlaps(reads, assembly.FromDalignerOverlaps(dalOv), 1000, 0.8)

	// The paper tunes D-SOFT to match or exceed the baseline's
	// sensitivity; the overlap workload needs denser seeding than
	// reference-guided mapping (Table 4 uses N=1300 for de novo vs
	// 750 for reference-guided at the same k, h).
	// Seeds are spread across the whole read (stride 4): an overlap
	// can sit at either end of a read, so head-only seeding misses
	// tail-side overlaps of mixed-orientation pairs.
	k, _, h := classConfig(readsim.PacBio, ovReadLen)
	ovCfg := core.DefaultConfig(k, ovReadLen/4, h)
	ovCfg.SeedStride = 4
	ovCfg.MaxCandidates = 512
	ovp, err := core.NewOverlapper(seqs, ovCfg)
	if err != nil {
		return nil, err
	}
	// One worker: the software row is compared with the baseline's
	// single-threaded wall clock.
	darwinStart := time.Now()
	dOv, ovStats, err := ovp.Run(context.Background(), core.OverlapRun{MinOverlap: 500, Workers: 1})
	if err != nil {
		return nil, err
	}
	darwinTime := time.Since(darwinStart)
	dConf := assembly.EvaluateOverlaps(reads, assembly.FromCoreOverlaps(dOv), 1000, 0.8)

	// Darwin hardware estimate for the overlap workload: software seed
	// table construction plus accelerator time per the slower-of-two
	// rule across all 2·reads strand queries.
	queries := float64(2 * len(reads))
	w := hw.Workload{TileT: 320, TileO: 128}
	if ovStats.Map.DSOFT.SeedsIssued > 0 {
		w.SeedsPerRead = float64(ovStats.Map.DSOFT.SeedsIssued) / queries
		w.HitsPerSeed = float64(ovStats.Map.DSOFT.Hits) / float64(ovStats.Map.DSOFT.SeedsIssued)
		w.TilesPerRead = float64(ovStats.Map.Tiles) / queries
	}
	est := estimator.Estimate(w)
	hwOverlapSec := ovStats.TableBuildTime.Seconds()
	if est.ReadsPerSec > 0 {
		hwOverlapSec += queries / est.ReadsPerSec
	}
	ovSpeedup := dalTime.Seconds() / hwOverlapSec

	var ovTb metrics.Table
	ovTb.Header = []string{"Tool", "Sensitivity", "Precision", "Runtime (s)", "Speedup"}
	ovTb.AddRow("daligner-like (software)",
		fmt.Sprintf("%.1f%%", dalConf.Sensitivity()*100),
		fmt.Sprintf("%.1f%%", dalConf.Precision()*100),
		fmt.Sprintf("%.2f", dalTime.Seconds()), "1×")
	ovTb.AddRow("darwin (software)",
		fmt.Sprintf("%.1f%%", dConf.Sensitivity()*100),
		fmt.Sprintf("%.1f%%", dConf.Precision()*100),
		fmt.Sprintf("%.2f", darwinTime.Seconds()),
		fmt.Sprintf("%.1f×", dalTime.Seconds()/darwinTime.Seconds()))
	ovTb.AddRow("darwin (ASIC model)", "same as software", "same as software",
		fmt.Sprintf("%.3f (%.3f table build)", hwOverlapSec, ovStats.TableBuildTime.Seconds()),
		fmt.Sprintf("%.0f×", ovSpeedup))
	values["denovo/daligner_sens"] = dalConf.Sensitivity()
	values["denovo/darwin_sens"] = dConf.Sensitivity()
	values["denovo/daligner_prec"] = dalConf.Precision()
	values["denovo/darwin_prec"] = dConf.Precision()
	values["denovo/speedup"] = ovSpeedup

	report := "Reference-guided assembly (synthetic genome):\n" + tb.Render() +
		"\nDe novo assembly overlap step:\n" + ovTb.Render() +
		"\nNote: Darwin reads/s uses the calibrated ASIC model per the paper's\n" +
		"methodology (workload statistics from the software run; slower of\n" +
		"D-SOFT and GACT); baselines are measured Go implementations.\n"
	return &Result{ID: "table4", Report: strings.TrimLeft(report, "\n"), Values: values}, nil
}
