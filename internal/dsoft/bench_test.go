package dsoft

import (
	"testing"

	"darwin/internal/dna"
	"darwin/internal/genome"
	"darwin/internal/readsim"
	"darwin/internal/seedtable"
)

// BenchmarkQuery is D-SOFT at the serve_direct workload's shape: a
// 2 Mbp genome under a dense k = 12 pointer table, N = 600 seeds of
// 1 kbp PacBio reads, h = 22. It reports ns per seed — the filter's
// per-seed layer cost without the serving harness around it.
func BenchmarkQuery(b *testing.B) {
	g, err := genome.Generate(genome.Config{Length: 2_000_000, GC: 0.45, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	tab, err := seedtable.Build(g.Seq, 12, seedtable.Options{})
	if err != nil {
		b.Fatal(err)
	}
	reads, err := readsim.SimulateN(g.Seq, 256, readsim.Config{Profile: readsim.PacBio, MeanLen: 1000, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	qs := make([]dna.Seq, len(reads))
	for i, r := range reads {
		qs[i] = r.Seq
		if r.Reverse {
			qs[i] = dna.RevComp(r.Seq)
		}
	}
	f, err := New(tab, DefaultConfig(600, 22))
	if err != nil {
		b.Fatal(err)
	}
	var out []Candidate
	seeds := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var st Stats
		out, st = f.QueryInto(qs[i%len(qs)], out[:0])
		seeds += st.SeedsIssued + st.SeedsSkipped
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(seeds), "ns/seed")
}
