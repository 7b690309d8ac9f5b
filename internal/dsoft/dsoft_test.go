package dsoft

import (
	"math/rand"
	"reflect"
	"testing"

	"darwin/internal/dna"
	"darwin/internal/genome"
	"darwin/internal/readsim"
	"darwin/internal/seedtable"
)

// naiveDSOFT is a direct transliteration of Algorithm 1 using
// brute-force seed lookup, used as an oracle.
func naiveDSOFT(ref, q dna.Seq, k int, cfg Config, qPad int) []Candidate {
	B := cfg.BinSize
	nb := (len(ref)+qPad)/B + 2
	lastHit := make([]int, nb)
	bpCount := make([]int, nb)
	for i := range lastHit {
		lastHit[i] = -k
	}
	var out []Candidate
	end := cfg.N * cfg.Stride
	for j := 0; j < end && j+k <= len(q); j += cfg.Stride {
		seed, ok := dna.PackSeed(q, j, k)
		if !ok {
			continue
		}
		for i := 0; i+k <= len(ref); i++ {
			code, ok := dna.PackSeed(ref, i, k)
			if !ok || code != seed {
				continue
			}
			bin := (i - j + qPad) / B
			if cfg.ResetGap > 0 && lastHit[bin] != -k && j-lastHit[bin] > cfg.ResetGap {
				bpCount[bin] = 0
			}
			overlap := 0
			if o := lastHit[bin] + k - j; o > 0 {
				overlap = o
			}
			lastHit[bin] = j
			old := bpCount[bin]
			bpCount[bin] += k - overlap
			if old < cfg.H && bpCount[bin] >= cfg.H {
				out = append(out, Candidate{Bin: bin - qPad/B, RefPos: i, QueryPos: j})
			}
		}
	}
	return out
}

// naiveSeeds is the seed-stream oracle: with a fresh dna.PackSeed per
// seed and a brute-force reference scan, it counts the seeds Query
// issues and skips and the hits it processes, and returns the padded
// bin of every hit of every issued seed — what Trace must return.
func naiveSeeds(ref, q dna.Seq, k int, cfg Config, qPad int) (Stats, [][]int) {
	var st Stats
	var trace [][]int
	end := cfg.N * cfg.Stride
	for j := 0; j < end && j+k <= len(q); j += cfg.Stride {
		seed, ok := dna.PackSeed(q, j, k)
		if !ok {
			st.SeedsSkipped++
			continue
		}
		st.SeedsIssued++
		bins := []int{}
		for i := 0; i+k <= len(ref); i++ {
			if code, ok := dna.PackSeed(ref, i, k); ok && code == seed {
				bins = append(bins, (i-j+qPad)/cfg.BinSize)
			}
		}
		st.Hits += len(bins)
		trace = append(trace, bins)
	}
	return st, trace
}

func buildTable(t *testing.T, ref dna.Seq, k int) *seedtable.Table {
	t.Helper()
	tab, err := seedtable.Build(ref, k, seedtable.Options{NoMask: true})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestMatchesNaiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 20; trial++ {
		ref := dna.Random(rng, 400, 0.5)
		// Query embeds a chunk of the reference so real candidates exist.
		start := rng.Intn(300)
		q := append(dna.Random(rng, 20, 0.5), ref[start:start+60]...)
		q = append(q, dna.Random(rng, 20, 0.5)...)

		k := 4 + trial%3
		cfg := Config{N: 60, H: 5 + trial%8, BinSize: 16, Stride: 1}
		f, err := New(buildTable(t, ref, k), cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := f.Query(q)
		want := naiveDSOFT(ref, q, k, cfg, f.qPad)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (k=%d cfg=%+v):\ngot  %v\nwant %v", trial, k, cfg, got, want)
		}
	}

	// The places a rolling seed code can go wrong: a window that an N
	// (or a lower-case base, or an IUPAC byte that has no 2-bit code)
	// enters or leaves, strides that skip rolled positions, and an
	// N·Stride reaching past the query's end.
	edits := []struct {
		name string
		edit func(q dna.Seq, k int)
	}{
		{"clean", func(q dna.Seq, k int) {}},
		{"N at 0", func(q dna.Seq, k int) { q[0] = 'N' }},
		{"N at k-1", func(q dna.Seq, k int) { q[k-1] = 'N' }},
		{"N at len-1", func(q dna.Seq, k int) { q[len(q)-1] = 'N' }},
		{"N run at 0", func(q dna.Seq, k int) { copy(q, "NNN") }},
		{"N run at k-1", func(q dna.Seq, k int) { copy(q[k-1:], "NNNN") }},
		{"N run at len-1", func(q dna.Seq, k int) { copy(q[len(q)-3:], "NNN") }},
		{"two Ns under k apart", func(q dna.Seq, k int) { q[40], q[40+k-2] = 'N', 'N' }},
		{"lower case", func(q dna.Seq, k int) {
			for i := 10; i < 70; i++ {
				q[i] |= 0x20
			}
		}},
		{"IUPAC", func(q dna.Seq, k int) { q[k-1], q[50], q[len(q)-1] = 'R', 'y', 'n' }},
	}
	for trial, e := range edits {
		ref := dna.Random(rng, 400, 0.5)
		start := rng.Intn(300)
		base := append(dna.Random(rng, 20, 0.5), ref[start:start+60]...)
		base = append(base, dna.Random(rng, 20, 0.5)...)
		k := 4 + trial%3
		tab := buildTable(t, ref, k)
		for _, stride := range []int{1, 2, k, k + 3} {
			for _, n := range []int{60, 1000} { // 1000·Stride is past the query's end
				q := base.Clone()
				e.edit(q, k)
				cfg := Config{N: n, H: 5 + trial%8, BinSize: 16, Stride: stride}
				f, err := New(tab, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, st := f.Query(q)
				want := naiveDSOFT(ref, q, k, cfg, f.qPad)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s (k=%d cfg=%+v):\ngot  %v\nwant %v", e.name, k, cfg, got, want)
				}
				wantSt, _ := naiveSeeds(ref, q, k, cfg, f.qPad)
				if st.SeedsIssued != wantSt.SeedsIssued || st.SeedsSkipped != wantSt.SeedsSkipped {
					t.Fatalf("%s (k=%d cfg=%+v): issued/skipped %d/%d, PackSeed counts %d/%d",
						e.name, k, cfg, st.SeedsIssued, st.SeedsSkipped, wantSt.SeedsIssued, wantSt.SeedsSkipped)
				}
			}
		}
	}
}

// TestUniqueBaseVsHitCount reproduces the Figure 2 contrast: a band
// with heavily overlapping seed hits (few unique bases) must be
// rejected by base counting, although it collects as many seed hits
// as a hit-counting filter's threshold asks for.
func TestUniqueBaseVsHitCount(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	// Region A: an 11bp shared word ⇒ 4 seed positions (k=8) covering
	// only 11 unique bases. Region B: a 20bp exact copy ⇒ 13 seed
	// positions covering 20 unique bases. With k=8 spurious random
	// hits are vanishingly rare.
	word := dna.NewSeq("ACGTGCATTCA")           // 11bp
	block := dna.NewSeq("GGATCCGGTTAACCGGATAC") // 20bp
	ref := dna.Random(rng, 400, 0.5)
	copy(ref[40:], word)
	copy(ref[200:], block)
	q := dna.Random(rng, 150, 0.5)
	copy(q[10:], word)
	copy(q[80:], block)

	const k = 8
	tab := buildTable(t, ref, k)
	binA := (40 - 10) / 32
	binB := (200 - 80) / 32

	// Base counting with h=16: only the 20-base region qualifies
	// (the word region has just 11 unique bases).
	f, err := New(tab, Config{N: 143, H: 16, BinSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	cands, _ := f.Query(q)
	seen := map[int]bool{}
	for _, c := range cands {
		seen[c.Bin] = true
	}
	if !seen[binB] {
		t.Errorf("base counting missed the 20bp region (bin %d); candidates: %v", binB, cands)
	}
	if seen[binA] {
		t.Errorf("base counting accepted the 11-unique-base region (bin %d) at h=16", binA)
	}

	// Hit counting with h=4 hits would accept both regions: each
	// band collects ≥4 seed hits, so the overlapping region is a false
	// positive of the hit strategy. Trace yields every hit's padded bin.
	hitsPerBin := map[int]int{}
	for _, bins := range f.Trace(q) {
		for _, bin := range bins {
			hitsPerBin[bin-f.qPad/32]++
		}
	}
	if hitsPerBin[binA] < 4 || hitsPerBin[binB] < 4 {
		t.Errorf("both regions should collect ≥4 seed hits; got %d (bin %d) and %d (bin %d)", hitsPerBin[binA], binA, hitsPerBin[binB], binB)
	}
}

func TestSensitivityOnSimulatedRead(t *testing.T) {
	g, err := genome.Generate(genome.Config{Length: 200000, GC: 0.5, Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	tab := buildTable(t, g.Seq, 11)
	reads, err := readsim.SimulateN(g.Seq, 20, readsim.Config{Profile: readsim.PacBio, MeanLen: 3000, Seed: 54})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(tab, Config{N: 500, H: 20, BinSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for i := range reads {
		r := &reads[i]
		q := r.Seq
		if r.Reverse {
			q = dna.RevComp(q)
		}
		cands, _ := f.Query(q)
		trueBin := f.BinOf(r.RefStart, 0)
		hit := false
		for _, c := range cands {
			if c.Bin >= trueBin-2 && c.Bin <= trueBin+2 {
				hit = true
				break
			}
		}
		if hit {
			found++
		}
	}
	if found < 18 {
		t.Errorf("found true bin for %d/20 reads, want ≥ 18", found)
	}
}

func TestThresholdMonotone(t *testing.T) {
	// Raising h can only shrink the candidate bin set (Fig. 11's
	// fine-grained knob).
	rng := rand.New(rand.NewSource(56))
	ref := dna.Random(rng, 5000, 0.5)
	q := append(ref[1000:1500].Clone(), dna.Random(rng, 200, 0.5)...)
	tab := buildTable(t, ref, 6)
	prevBins := -1
	for _, h := range []int{6, 12, 24, 48, 96} {
		f, err := New(tab, Config{N: 500, H: h, BinSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		cands, _ := f.Query(q)
		bins := map[int]bool{}
		for _, c := range cands {
			bins[c.Bin] = true
		}
		if prevBins >= 0 && len(bins) > prevBins {
			t.Errorf("h=%d produced %d bins, more than %d at lower h", h, len(bins), prevBins)
		}
		prevBins = len(bins)
	}
}

func TestRepeatedQueriesIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	ref := dna.Random(rng, 3000, 0.5)
	q1 := append(ref[100:400].Clone(), dna.Random(rng, 50, 0.5)...)
	q2 := ref[2000:2400].Clone()
	tab := buildTable(t, ref, 6)
	f, err := New(tab, Config{N: 400, H: 12, BinSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	a1, s1 := f.Query(q1)
	_, _ = f.Query(q2)
	a2, s2 := f.Query(q1)
	if !reflect.DeepEqual(a1, a2) {
		t.Errorf("bin state leaked between queries: %v vs %v", a1, a2)
	}
	if s1 != s2 {
		t.Errorf("stats differ between identical queries: %+v vs %+v", s1, s2)
	}
}

func TestStatsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	ref := dna.Random(rng, 2000, 0.5)
	q := append(dna.NewSeq("ACGNNGT"), ref[200:500]...)
	tab := buildTable(t, ref, 5)
	f, err := New(tab, Config{N: 100, H: 15, BinSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	cands, st := f.Query(q)
	if st.SeedsSkipped == 0 {
		t.Error("seeds over N should be counted as skipped")
	}
	if st.SeedsIssued+st.SeedsSkipped > 100 {
		t.Errorf("issued %d + skipped %d exceeds N=100", st.SeedsIssued, st.SeedsSkipped)
	}
	if st.Candidates != len(cands) {
		t.Errorf("stats candidates %d != len(candidates) %d", st.Candidates, len(cands))
	}
	if st.Hits == 0 || st.BinsTouched == 0 {
		t.Errorf("expected hits and touched bins, got %+v", st)
	}
	if st.BinsTouched > st.Hits {
		t.Errorf("bins touched %d > hits %d", st.BinsTouched, st.Hits)
	}
}

func TestConfigErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	ref := dna.Random(rng, 100, 0.5)
	tab := buildTable(t, ref, 4)
	cases := []Config{
		{N: 0, H: 5, BinSize: 64},
		{N: 10, H: 0, BinSize: 64},
		{N: 10, H: 5, BinSize: 0},
		{N: 10, H: 5, BinSize: 100}, // not a power of two
	}
	for i, cfg := range cases {
		if _, err := New(tab, cfg); err == nil {
			t.Errorf("case %d (%+v): expected error", i, cfg)
		}
	}
}

// TestResetGapRefires: two exact copies of a block on the same
// diagonal, separated by a long hitless stretch, must produce two
// candidates with ResetGap set and only one without.
func TestResetGapRefires(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const k, B = 8, 32
	blockA := dna.Random(rng, 64, 0.5)
	blockB := dna.Random(rng, 64, 0.5)
	gap := 3000
	// Reference: blockA ... blockB at the same diagonal offsets as in
	// the query.
	ref := append(blockA.Clone(), dna.Random(rng, gap, 0.5)...)
	ref = append(ref, blockB...)
	q := append(blockA.Clone(), dna.Random(rng, gap, 0.5)...)
	q = append(q, blockB...)

	tab := buildTable(t, ref, k)
	base := Config{N: len(q), H: 32, BinSize: B, Stride: 1}
	noReset, err := New(tab, base)
	if err != nil {
		t.Fatal(err)
	}
	withReset := base
	withReset.ResetGap = 1024
	reset, err := New(tab, withReset)
	if err != nil {
		t.Fatal(err)
	}
	countOnDiag := func(cands []Candidate) int {
		n := 0
		for _, c := range cands {
			if c.Bin == 0 || c.Bin == -1 {
				n++
			}
		}
		return n
	}
	a, _ := noReset.Query(q)
	b, _ := reset.Query(q)
	if got := countOnDiag(a); got != 1 {
		t.Errorf("without reset: %d main-diagonal candidates, want 1 (%v)", got, a)
	}
	if got := countOnDiag(b); got < 2 {
		t.Errorf("with reset: %d main-diagonal candidates, want ≥ 2 (%v)", got, b)
	}
	// The oracle must agree with the reset implementation too.
	want := naiveDSOFT(ref, q, k, withReset, reset.qPad)
	got, _ := reset.Query(q)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reset oracle mismatch:\ngot  %v\nwant %v", got, want)
	}
}

// TestTraceMatchesQuery: the accelerator trace must mirror Query's
// seed/hit accounting exactly (same seeds, same per-seed hit counts,
// same bins).
func TestTraceMatchesQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	ref := dna.Random(rng, 3000, 0.5)
	q := append(ref[500:900].Clone(), dna.Random(rng, 100, 0.5)...)
	tab := buildTable(t, ref, 6)
	f, err := New(tab, Config{N: 300, H: 10, BinSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	trace := f.Trace(q)
	_, st := f.Query(q)
	if len(trace) != st.SeedsIssued {
		t.Errorf("trace has %d seeds, Query issued %d", len(trace), st.SeedsIssued)
	}
	hits := 0
	for _, bins := range trace {
		hits += len(bins)
	}
	if hits != st.Hits {
		t.Errorf("trace has %d hits, Query processed %d", hits, st.Hits)
	}

	// Seed for seed against the PackSeed oracle, with Ns inside seed
	// windows: Trace and Query skip the same seeds.
	q[3], q[200], q[203], q[len(q)-1] = 'N', 'N', 'n', 'N'
	wantSt, want := naiveSeeds(ref, q, 6, f.Config(), f.qPad)
	if got := f.Trace(q); !reflect.DeepEqual(got, want) {
		t.Errorf("trace of a query with Ns differs from the PackSeed oracle:\ngot  %v\nwant %v", got, want)
	}
	if _, st := f.Query(q); st.SeedsIssued != wantSt.SeedsIssued || st.SeedsSkipped != wantSt.SeedsSkipped || st.Hits != wantSt.Hits {
		t.Errorf("Query stats %+v, PackSeed oracle %+v", st, wantSt)
	}
	if DefaultConfig(300, 10).BinSize != 128 {
		t.Error("DefaultConfig bin size should be the paper's 128")
	}
}

func TestShortQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	ref := dna.Random(rng, 500, 0.5)
	tab := buildTable(t, ref, 8)
	f, err := New(tab, Config{N: 100, H: 10, BinSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	cands, st := f.Query(dna.NewSeq("ACG")) // shorter than k
	if len(cands) != 0 || st.SeedsIssued != 0 {
		t.Errorf("short query produced work: %v %+v", cands, st)
	}
}

// QueryInto must append to the caller's buffer and return exactly what
// Query returns, and reusing the buffer across queries must not change
// candidates — the contract core.Darwin's steady-state map loop
// depends on. That a warm buffer allocates nothing is pinned by
// TestQuerySteadyStateAllocs.
func TestQueryIntoReusesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	ref := dna.Random(rng, 600, 0.5)
	f, err := New(buildTable(t, ref, 5), Config{N: 80, H: 6, BinSize: 16, Stride: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf []Candidate
	for trial := 0; trial < 10; trial++ {
		start := rng.Intn(400)
		q := append(dna.Random(rng, 15, 0.5), ref[start:start+80]...)
		want, wantSt := f.Query(q)
		got, gotSt := f.QueryInto(q, buf[:0])
		buf = got
		if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Fatalf("trial %d: QueryInto %v != Query %v", trial, got, want)
		}
		if gotSt != wantSt {
			t.Fatalf("trial %d: stats mismatch: %+v vs %+v", trial, gotSt, wantSt)
		}
	}
}
