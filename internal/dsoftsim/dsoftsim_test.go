package dsoftsim

import (
	"testing"

	"darwin/internal/dsoft"
	"darwin/internal/genome"
	"darwin/internal/hw"
	"darwin/internal/readsim"
	"darwin/internal/seedtable"
)

func traceWorkload(t *testing.T) [][]int {
	t.Helper()
	g, err := genome.Generate(genome.Config{
		Length: 500_000, GC: 0.41, RepeatFraction: 0.25, RepeatFamilies: 8,
		RepeatUnitLen: 300, RepeatDivergence: 0.1, TandemFraction: 0.1, Seed: 91,
	})
	if err != nil {
		t.Fatal(err)
	}
	// k=6 on the 500 kbp genome gives ~120 hits/seed — the same
	// barrier-amortization regime as the paper's k=12 on GRCh38
	// (~490 hits/seed).
	tab, err := seedtable.Build(g.Seq, 6, seedtable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	filter, err := dsoft.New(tab, dsoft.Config{N: 1500, H: 24, BinSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := readsim.SimulateN(g.Seq, 10, readsim.Config{Profile: readsim.ONT2D, MeanLen: 5000, Seed: 92})
	if err != nil {
		t.Fatal(err)
	}
	var all [][]int
	for i := range reads {
		all = append(all, filter.Trace(reads[i].Seq)...)
	}
	return all
}

// TestThroughputNearPaperObservation: on a realistic hit stream the
// achieved rate must be in the regime the FPGA measured — around 5
// updates/cycle, i.e. 40-90% of the 8/cycle injection maximum.
func TestThroughputNearPaperObservation(t *testing.T) {
	trace := traceWorkload(t)
	res, err := Simulate(trace, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Updates == 0 || res.Seeds == 0 {
		t.Fatalf("empty workload: %+v", res)
	}
	upc := res.UpdatesPerCycle()
	if upc < 3.2 || upc > 7.5 {
		t.Errorf("updates/cycle = %.2f, want within [3.2, 7.5] (paper: 5.1 = 64%% of max)", upc)
	}
	if upc > float64(DefaultConfig().Injectors) {
		t.Errorf("updates/cycle %.2f exceeds injection width", upc)
	}
}

// TestFasterThanDRAM reproduces the paper's conclusion: the on-chip
// NoC + banks consume hits faster than the DRAM channels produce them,
// so D-SOFT throughput is memory-limited.
func TestFasterThanDRAM(t *testing.T) {
	trace := traceWorkload(t)
	res, err := Simulate(trace, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	chip := hw.DefaultChip()
	onChipRate := res.UpdatesPerCycle() * chip.ClockHz // updates/s

	hits := 0
	for _, bins := range trace {
		hits += len(bins)
	}
	hitsPerSeed := float64(hits) / float64(len(trace))
	dram := hw.NewDSOFTModel(chip)
	dramRate := dram.SeedsPerSecond(hitsPerSeed) * hitsPerSeed // hits/s delivered
	if onChipRate <= dramRate {
		t.Errorf("on-chip %.3g updates/s not faster than DRAM %.3g hits/s", onChipRate, dramRate)
	}
}

// TestBarrierOrdering: seeds with many updates amortize the barrier;
// single-hit seeds are latency-bound at ~1/(HopLatency+1) per cycle.
func TestBarrierOrdering(t *testing.T) {
	cfg := DefaultConfig()
	// 100 seeds of one hit each: every seed pays the full pipe.
	single := make([][]int, 100)
	for i := range single {
		single[i] = []int{i}
	}
	res, err := Simulate(single, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := 100 * (cfg.HopLatency + 1); res.Cycles != want {
		t.Errorf("single-hit cycles = %d, want %d", res.Cycles, want)
	}
	// One seed with 1600 conflict-free updates: throughput approaches
	// the injection width.
	big := [][]int{make([]int, 1600)}
	for i := range big[0] {
		big[0][i] = i // round-robin over banks
	}
	res, err = Simulate(big, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if upc := res.UpdatesPerCycle(); upc < 0.9*float64(cfg.Injectors) {
		t.Errorf("bulk updates/cycle = %.2f, want ≥ %.1f", upc, 0.9*float64(cfg.Injectors))
	}
}

// TestBankConflictSerialization: all updates to one bank serialize at
// 1/cycle regardless of injection width.
func TestBankConflictSerialization(t *testing.T) {
	cfg := DefaultConfig()
	oneBank := [][]int{make([]int, 256)}
	for i := range oneBank[0] {
		oneBank[0][i] = 16 * i // same bank (bin % 16 == 0)
	}
	res, err := Simulate(oneBank, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles < 256 {
		t.Errorf("cycles = %d, want ≥ 256 (single-port bank)", res.Cycles)
	}
	if res.BankConflictStalls == 0 {
		t.Error("expected bank-conflict stalls")
	}
}

func TestSimulateErrors(t *testing.T) {
	if _, err := Simulate(nil, Config{Banks: 0, Injectors: 1}); err == nil {
		t.Error("zero banks should error")
	}
	if _, err := Simulate(nil, Config{Banks: 1, Injectors: 0}); err == nil {
		t.Error("zero injectors should error")
	}
	if _, err := Simulate(nil, Config{Banks: 1, Injectors: 1, HopLatency: -1}); err == nil {
		t.Error("negative latency should error")
	}
	res, err := Simulate([][]int{{}, {}}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 0 || res.Updates != 0 {
		t.Errorf("empty seeds: %+v", res)
	}
}

// TestNegativeBins: canonical bins can be negative; routing must not
// panic and must stay within bank range.
func TestNegativeBins(t *testing.T) {
	res, err := Simulate([][]int{{-1, -17, -33, 5}}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Updates != 4 {
		t.Errorf("updates = %d, want 4", res.Updates)
	}
}
