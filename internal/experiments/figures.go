package experiments

import (
	"fmt"
	"time"

	"darwin/internal/align"
	"darwin/internal/assembly"
	"darwin/internal/baseline"
	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/dsoft"
	"darwin/internal/gact"
	"darwin/internal/hw"
	"darwin/internal/metrics"
	"darwin/internal/readsim"
	"darwin/internal/seedtable"
)

// alignPair is one (reference region, read) workload item with the
// GACT anchor at the region start.
type alignPair struct {
	region dna.Seq
	read   dna.Seq
}

// makePairs simulates reads and pairs each with its true template
// region plus margin, in the read's orientation, so GACT and the
// Smith-Waterman oracle see identical inputs.
func makePairs(ref dna.Seq, o Options, p readsim.Profile, count, readLen int) ([]alignPair, error) {
	reads, err := readsim.SimulateN(ref, count, readsim.Config{
		Profile: p, MeanLen: readLen, Seed: o.Seed + int64(readLen),
	})
	if err != nil {
		return nil, err
	}
	pairs := make([]alignPair, 0, len(reads))
	for i := range reads {
		r := &reads[i]
		// The region is exactly the read's template, so the GACT anchor
		// (0,0) is the true alignment start — the paper's methodology
		// of aligning each read to its corresponding reference
		// position.
		lo, hi := r.RefStart, r.RefEnd
		region := ref[lo:hi]
		if r.Reverse {
			region = dna.RevComp(region)
		}
		pairs = append(pairs, alignPair{region: region, read: r.Seq})
	}
	return pairs, nil
}

// Fig9a regenerates the GACT optimality study: for each read class
// and (T, O) grid point, the fraction of alignments whose GACT score
// equals the optimal Smith-Waterman score. The paper's finding — all
// alignments optimal for every class at sufficient overlap, with
// (T=320, O=128) safe everywhere — is the value to reproduce.
func Fig9a(o Options) (*Result, error) {
	o = o.withDefaults()
	ref, err := makeGenome(o)
	if err != nil {
		return nil, err
	}
	type to struct{ T, O int }
	grid := []to{{128, 16}, {128, 64}, {192, 64}, {256, 64}, {256, 128}, {320, 128}, {384, 128}}
	if o.Quick {
		grid = []to{{128, 16}, {320, 128}}
	}
	count := max(4, o.Reads/4)
	readLen := min(o.ReadLen, 2000) // O(mn) oracle bounds the length

	var tb metrics.Table
	tb.Header = []string{"(T,O)"}
	for _, p := range readsim.Profiles {
		tb.Header = append(tb.Header, p.Name+" opt", p.Name+" gap")
	}
	values := map[string]float64{}
	sc := align.GACTEval()
	for _, g := range grid {
		row := []string{fmt.Sprintf("(%d,%d)", g.T, g.O)}
		eng, err := gact.NewEngine(&gact.Config{T: g.T, O: g.O, FirstTileT: 384, Scoring: sc})
		if err != nil {
			return nil, err
		}
		for _, p := range readsim.Profiles {
			pairs, err := makePairs(ref, o, p, count, readLen)
			if err != nil {
				return nil, err
			}
			optimal, total := 0, 0
			var gactSum, optSum float64
			for _, pr := range pairs {
				// Anchor mid-read, as a D-SOFT candidate would.
				iSeed := len(pr.region) / 2
				jSeed := iSeed * len(pr.read) / len(pr.region)
				res, _, err := eng.Extend(pr.region, pr.read, iSeed, jSeed)
				if err != nil || res == nil {
					continue
				}
				total++
				opt := align.ScoreOnly(pr.region, pr.read, &sc)
				optSum += float64(opt)
				gactSum += float64(res.Score)
				if res.Score == opt {
					optimal++
				}
			}
			frac, gap := 0.0, 0.0
			if total > 0 {
				frac = float64(optimal) / float64(total)
			}
			if optSum > 0 {
				gap = (optSum - gactSum) / optSum
			}
			row = append(row, fmt.Sprintf("%.0f%%", frac*100), fmt.Sprintf("%.2f%%", gap*100))
			values[fmt.Sprintf("%s/T%d_O%d", p.Name, g.T, g.O)] = frac
			values[fmt.Sprintf("%s/T%d_O%d/gap", p.Name, g.T, g.O)] = gap
		}
		tb.AddRow(row...)
	}
	report := "GACT vs optimal Smith-Waterman: fraction of alignments with the\noptimal score, and mean relative score gap (paper Fig. 9a reports\nall-optimal at sufficient overlap; residual gaps here are <1% and\nconcentrate at alignment ends on the noisiest reads — see\nEXPERIMENTS.md):\n" + tb.Render()
	return &Result{ID: "fig9a", Report: report, Values: values}, nil
}

// Fig9b regenerates the single-array throughput surface from the
// cycle model: alignments/s of 10 kbp pairs across (T, O), varying as
// (T−O)/T².
func Fig9b(o Options) (*Result, error) {
	m := hw.NewGACTModel(hw.DefaultChip())
	var tb metrics.Table
	tb.Header = []string{"T", "O=T/8", "O=T/4", "O=T/2"}
	values := map[string]float64{}
	for _, T := range []int{128, 192, 256, 320, 384, 448, 512} {
		row := []string{fmt.Sprint(T)}
		for _, div := range []int{8, 4, 2} {
			O := T / div
			aps := m.AlignmentsPerSecond(10000, T, O)
			row = append(row, fmt.Sprintf("%.0f", aps))
			values[fmt.Sprintf("T%d_O%d", T, O)] = aps
		}
		tb.AddRow(row...)
	}
	report := "Single GACT array throughput (alignments/s, 10 kbp pairs)\nacross (T, O) — proportional to (T−O)/T² (paper Fig. 9b):\n" + tb.Render()
	return &Result{ID: "fig9b", Report: report, Values: values}, nil
}

// Fig10 regenerates the throughput-vs-length comparison: measured
// GACT software, measured Myers bit-vector (the Edlib class), and the
// Darwin model, for pairwise alignments of 1-10 kbp PacBio reads.
func Fig10(o Options) (*Result, error) {
	o = o.withDefaults()
	ref, err := makeGenome(o)
	if err != nil {
		return nil, err
	}
	lengths := []int{1000, 2000, 5000, 10000}
	if o.Quick {
		lengths = []int{1000, 2000}
	}
	perLen := max(4, o.Reads/10)
	cfg := gact.DefaultConfig()
	cfg.MinFirstTile = 0
	eng, err := gact.NewEngine(&cfg)
	if err != nil {
		return nil, err
	}
	darwin := hw.NewDarwin()

	// Throughput is each length's best of several 50 ms windows, the
	// lengths interleaved window by window, so a slow spell of the host
	// lowers one window of every length rather than every window of one
	// length (which skews the speedup's growth with length).
	const windows, window = 5, 50 * time.Millisecond
	pairs := make([][]alignPair, len(lengths))
	for li, L := range lengths {
		if pairs[li], err = makePairs(ref, o, readsim.PacBio, perLen, L); err != nil {
			return nil, err
		}
	}
	measure := func(pairs []alignPair, alignPairFn func(alignPair) error) (float64, error) {
		start := time.Now()
		n := 0
		for time.Since(start) < window {
			for _, pr := range pairs {
				if err := alignPairFn(pr); err != nil {
					return 0, err
				}
				n++
			}
		}
		return float64(n) / time.Since(start).Seconds(), nil
	}
	gactAPS := make([]float64, len(lengths))
	edlibAPS := make([]float64, len(lengths))
	for w := 0; w < windows; w++ {
		for li := range lengths {
			g, err := measure(pairs[li], func(pr alignPair) error {
				_, _, err := eng.Extend(pr.region, pr.read, 0, 0)
				return err
			})
			if err != nil {
				return nil, err
			}
			e, err := measure(pairs[li], func(pr alignPair) error {
				_, err := align.Myers(pr.region, pr.read, align.EditGlobal)
				return err
			})
			if err != nil {
				return nil, err
			}
			gactAPS[li] = max(gactAPS[li], g)
			edlibAPS[li] = max(edlibAPS[li], e)
		}
	}

	gactS := &metrics.Series{Name: "GACT (software)"}
	edlibS := &metrics.Series{Name: "Edlib-class (Myers)"}
	hwS := &metrics.Series{Name: "GACT (Darwin model)"}
	values := map[string]float64{}
	for li, L := range lengths {
		hwAPS := darwin.AlignmentsPerSecond(L, cfg.T, cfg.O)
		x := float64(L) / 1000
		gactS.Append(x, gactAPS[li])
		edlibS.Append(x, edlibAPS[li])
		hwS.Append(x, hwAPS)
		values[fmt.Sprintf("gact_sw/%d", L)] = gactAPS[li]
		values[fmt.Sprintf("edlib/%d", L)] = edlibAPS[li]
		values[fmt.Sprintf("darwin/%d", L)] = hwAPS
		values[fmt.Sprintf("speedup_vs_edlib/%d", L)] = hwAPS / edlibAPS[li]
	}
	report := "Alignments/second vs sequence length (paper Fig. 10; Darwin's\nspeedup over the Edlib class must grow with length — linear-time\ntiles vs quadratic bit-vector):\n" +
		metrics.RenderSeries("Kbp", gactS, edlibS, hwS)
	return &Result{ID: "fig10", Report: report, Values: values}, nil
}

// Fig11 regenerates the D-SOFT tuning study on ONT_2D reads:
// sensitivity and false hit rate versus threshold h for several
// (k, N) settings.
func Fig11(o Options) (*Result, error) {
	o = o.withDefaults()
	ref, err := makeGenome(o)
	if err != nil {
		return nil, err
	}
	reads, err := simulate(ref, o, readsim.ONT2D)
	if err != nil {
		return nil, err
	}
	type kn struct{ k, n int }
	// Scaled analogues of the paper's (k, N) grid.
	settings := []kn{{10, o.ReadLen / 4}, {11, o.ReadLen / 3}, {12, o.ReadLen / 2}}
	hs := []int{15, 20, 25, 30, 40, 60}
	if o.Quick {
		settings = settings[:2]
		hs = []int{15, 30, 60}
	}
	indel := readsim.ONT2D.Ins + readsim.ONT2D.Del

	var tb metrics.Table
	tb.Header = []string{"(k,N)", "h", "sensitivity", "false hit rate"}
	values := map[string]float64{}
	for _, s := range settings {
		tab, err := seedtable.Build(ref, s.k, seedtable.Options{})
		if err != nil {
			return nil, err
		}
		for _, h := range hs {
			filter, err := dsoft.New(tab, dsoft.Config{N: s.n, H: h, BinSize: 128})
			if err != nil {
				return nil, err
			}
			ev := assembly.EvaluateDSOFT(filter, reads, indel)
			tb.AddRow(fmt.Sprintf("(%d,%d)", s.k, s.n), fmt.Sprint(h),
				fmt.Sprintf("%.3f", ev.Sensitivity), fmt.Sprintf("%.2f", ev.FHR))
			values[fmt.Sprintf("k%d_N%d_h%d/sens", s.k, s.n, h)] = ev.Sensitivity
			values[fmt.Sprintf("k%d_N%d_h%d/fhr", s.k, s.n, h)] = ev.FHR
		}
	}
	report := "D-SOFT sensitivity and FHR vs h for (k, N) settings, ONT_2D\n(paper Fig. 11: h trades FHR against sensitivity; k, N set the\ncoarse operating point):\n" + tb.Render()
	return &Result{ID: "fig11", Report: report, Values: values}, nil
}

// Fig12 regenerates the first-tile score study: the distribution of
// first GACT tile scores (T=384) for D-SOFT true hits vs false hits,
// and the filtering power of h_tile=90.
func Fig12(o Options) (*Result, error) {
	o = o.withDefaults()
	ref, err := makeGenome(o)
	if err != nil {
		return nil, err
	}
	values := map[string]float64{}
	trueHist := metrics.NewHistogram(0, 400, 20)
	falseHist := metrics.NewHistogram(0, 400, 20)

	gcfg := gact.DefaultConfig() // FirstTileT = 384
	gcfg.MinFirstTile = 0
	eng, err := gact.NewEngine(&gcfg)
	if err != nil {
		return nil, err
	}
	for _, p := range readsim.Profiles {
		reads, err := simulate(ref, o, p)
		if err != nil {
			return nil, err
		}
		k, n, h := classConfig(p, o.ReadLen)
		tab, err := seedtable.Build(ref, k, seedtable.Options{})
		if err != nil {
			return nil, err
		}
		filter, err := dsoft.New(tab, dsoft.Config{N: n, H: h, BinSize: 128})
		if err != nil {
			return nil, err
		}
		indel := p.Ins + p.Del
		for i := range reads {
			r := &reads[i]
			slackBins := int(indel*float64(len(r.Seq)))/128 + 1
			trueBin := filter.BinOf(r.RefStart, 0)
			for _, rev := range []bool{false, true} {
				q := r.Seq
				if rev {
					q = dna.RevComp(q)
				}
				cands, _ := filter.Query(q)
				if len(cands) > 64 {
					cands = cands[:64]
				}
				for _, c := range cands {
					_, st, err := eng.Extend(ref, q, c.RefPos, c.QueryPos)
					if err != nil {
						continue
					}
					isTrue := rev == r.Reverse && c.Bin >= trueBin-slackBins && c.Bin <= trueBin+slackBins
					if isTrue {
						trueHist.Add(float64(st.FirstTileScore))
					} else {
						falseHist.Add(float64(st.FirstTileScore))
					}
				}
			}
		}
	}
	const hTile = 90
	falseFiltered := falseHist.FractionBelow(hTile)
	trueLost := trueHist.FractionBelow(hTile)
	values["false_filtered_at_90"] = falseFiltered
	values["true_lost_at_90"] = trueLost
	values["true_hits"] = float64(trueHist.Total())
	values["false_hits"] = float64(falseHist.Total())
	report := fmt.Sprintf(
		"First GACT tile score (T=384) for D-SOFT true vs false hits\n(paper Fig. 12: h_tile=90 removes 97.3%% of false hits at <0.05%%\nsensitivity loss).\n\nTrue hits (%d):\n%s\nFalse hits (%d):\n%s\nAt h_tile=%d: %.1f%% of false hits filtered, %.2f%% of true hits lost\n",
		trueHist.Total(), trueHist.Render(40),
		falseHist.Total(), falseHist.Render(40),
		hTile, falseFiltered*100, trueLost*100)
	return &Result{ID: "fig12", Report: report, Values: values}, nil
}

// Fig13 regenerates the timing waterfall from the GraphMap-class
// software mapper to full Darwin: measured software stage times per
// read, then hardware model substitutions step by step.
func Fig13(o Options) (*Result, error) {
	o = o.withDefaults()
	ref, err := makeGenome(o)
	if err != nil {
		return nil, err
	}
	reads, err := simulate(ref, o, readsim.ONT2D)
	if err != nil {
		return nil, err
	}
	n := float64(len(reads))

	// Line 1: GraphMap-class software.
	gm, err := baseline.NewGraphMapLike(ref, baseline.DefaultGraphMapConfig())
	if err != nil {
		return nil, err
	}
	var gmTimes baseline.StageTimes
	for i := range reads {
		out := assembly.GraphMapMapper{G: gm}.MapBest(reads[i].Seq)
		gmTimes.Add(out.Times)
	}

	// Line 2: Darwin in software (D-SOFT + GACT).
	k, nn, h := classConfig(readsim.ONT2D, o.ReadLen)
	eng, err := core.New(ref, core.DefaultConfig(k, nn, h))
	if err != nil {
		return nil, err
	}
	dm := assembly.NewDarwinMapper(eng)
	for i := range reads {
		dm.MapBest(reads[i].Seq)
	}
	w := dm.Workload()
	dsoftSW := dm.Stats.FiltrationTime.Seconds() / n
	gactSW := dm.Stats.AlignmentTime.Seconds() / n

	// Hardware substitutions.
	chip := hw.DefaultChip()
	gm64 := hw.NewGACTModel(chip)
	gactHW := w.TilesPerRead / (float64(chip.GACTArrays) * gm64.TilesPerSecond(320, 128))

	fourChan := hw.NewDSOFTModel(chip)
	// Line 4: hardware SeedLookup over 4 channels, but bin updates
	// still in DRAM (each hit costs a random DRAM access on top of the
	// streamed position reads).
	perSeedStream := w.SeedsPerRead / fourChan.SeedsPerSecond(w.HitsPerSeed)
	hitsPerRead := w.SeedsPerRead * w.HitsPerSeed
	binsInDRAM := perSeedStream + hitsPerRead*fourChan.DRAM.RandomAccessNs*1e-9/float64(chip.DRAMChannels)
	// Line 5: bin updates in SRAM (the full D-SOFT accelerator).
	dsoftHW := perSeedStream

	type line struct {
		name        string
		filt, align float64
		pipelined   bool
	}
	lines := []line{
		{"1. GraphMap-class (software)", gmTimes.Filtration.Seconds() / n, gmTimes.Alignment.Seconds() / n, false},
		{"2. Replace by D-SOFT + GACT (software)", dsoftSW, gactSW, false},
		{"3. GACT hardware-acceleration", dsoftSW, gactHW, false},
		{"4. 1→4 DRAM channels for D-SOFT (bins in DRAM)", binsInDRAM, gactHW, false},
		{"5. Move bin updates to SRAM", dsoftHW, gactHW, false},
		{"6. Pipeline D-SOFT and GACT", dsoftHW, gactHW, true},
	}

	var tb metrics.Table
	tb.Header = []string{"Configuration", "Filtration (ms/read)", "Alignment (ms/read)", "Total (ms/read)"}
	values := map[string]float64{}
	for i, l := range lines {
		total := l.filt + l.align
		if l.pipelined {
			total = max(l.filt, l.align)
		}
		tb.AddRow(l.name,
			fmt.Sprintf("%.4g", l.filt*1e3),
			fmt.Sprintf("%.4g", l.align*1e3),
			fmt.Sprintf("%.4g", total*1e3))
		values[fmt.Sprintf("line%d/total_ms", i+1)] = total * 1e3
	}
	report := "Timing waterfall, GraphMap-class → Darwin, ONT_2D reads\n(paper Fig. 13; hardware stages use the calibrated model):\n" + tb.Render()
	return &Result{ID: "fig13", Report: report, Values: values}, nil
}
