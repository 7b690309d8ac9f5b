package dsoft

import (
	"testing"

	"darwin/internal/dna"
	"darwin/internal/genome"
	"darwin/internal/readsim"
	"darwin/internal/seedtable"
)

// serveGenome returns the serve_direct workload's shape: a 2 Mbp
// genome and 256 PacBio reads of 1 kbp from it, forward-stranded.
func serveGenome(b *testing.B) (dna.Seq, []dna.Seq) {
	g, err := genome.Generate(genome.Config{Length: 2_000_000, GC: 0.45, Seed: 1})
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
	return g.Seq, qs
}

// benchQuery runs every query against every table, one filter rebound
// per table as the sharded mapper does, and reports ns per seed per
// table.
func benchQuery(b *testing.B, tabs []*seedtable.Table, qs []dna.Seq) {
	f, err := New(nil, DefaultConfig(600, 22))
	if err != nil {
		b.Fatal(err)
	}
	var out []Candidate
	seeds := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tab := range tabs {
			if err := f.SetTable(tab); err != nil {
				b.Fatal(err)
			}
			var st Stats
			out, st = f.QueryInto(qs[i%len(qs)], out[:0])
			seeds += st.SeedsIssued + st.SeedsSkipped
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(seeds), "ns/seed")
}

// BenchmarkQuery is D-SOFT at the serve_direct workload's shape on one
// monolithic table: a 2 Mbp genome at k = 12, N = 600 seeds of 1 kbp
// PacBio reads, h = 22. It reports ns per seed — the filter's per-seed
// layer cost without the serving harness around it.
func BenchmarkQuery(b *testing.B) {
	ref, qs := serveGenome(b)
	tab, err := seedtable.Build(ref, 12, seedtable.Options{})
	if err != nil {
		b.Fatal(err)
	}
	benchQuery(b, []*seedtable.Table{tab}, qs)
}

// BenchmarkQuerySharded is the same genome as serve_direct serves it:
// four shard tables of ≈ 520 kbp (500 kbp cores plus 10 kbp of overlap
// on each side) under the whole genome's mask, each looking up every
// seed of every read. ns/seed is per seed per shard.
func BenchmarkQuerySharded(b *testing.B) {
	ref, qs := serveGenome(b)
	mask, err := seedtable.ComputeMask(ref, 12, seedtable.Options{})
	if err != nil {
		b.Fatal(err)
	}
	const shards, overlap = 4, 10_000
	core := len(ref) / shards
	var tabs []*seedtable.Table
	for s := 0; s < shards; s++ {
		start, end := max(s*core-overlap, 0), min((s+1)*core+overlap, len(ref))
		tab, err := seedtable.BuildRange(ref, start, end, 12, seedtable.Options{Mask: mask})
		if err != nil {
			b.Fatal(err)
		}
		tabs = append(tabs, tab)
	}
	benchQuery(b, tabs, qs)
}

// BenchmarkQueryWindow is what a cluster worker pays to scatter a read
// over some of serve_direct's four shards: on each shard's own table
// (one pass per shard, the layout a residency budget keeps), or as one
// pass over the whole-reference table windowed to the requested
// extents (the layout without a budget). It reports ns per read strand.
func BenchmarkQueryWindow(b *testing.B) {
	ref, qs := serveGenome(b)
	whole, err := seedtable.Build(ref, 12, seedtable.Options{})
	if err != nil {
		b.Fatal(err)
	}
	mask, err := seedtable.ComputeMask(ref, 12, seedtable.Options{})
	if err != nil {
		b.Fatal(err)
	}
	const shards, overlap = 4, 1024 // shard.MinOverlap at N = 600, rounded up to B
	extent := func(s int) (int, int) {
		core := len(ref) / shards
		return max(s*core-overlap, 0), min((s+1)*core+overlap, len(ref))
	}
	type window struct {
		tab        *seedtable.Table
		start, end int
	}
	run := func(b *testing.B, ws []window) {
		f, err := New(nil, DefaultConfig(600, 22))
		if err != nil {
			b.Fatal(err)
		}
		var out []Candidate
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, w := range ws {
				if err := f.SetTable(w.tab); err != nil {
					b.Fatal(err)
				}
				f.SetWindow(w.start, w.end)
				out, _ = f.QueryInto(qs[i%len(qs)], out[:0])
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/read")
	}
	own := func(s int) window {
		start, end := extent(s)
		tab, err := seedtable.BuildRange(ref, start, end, 12, seedtable.Options{Mask: mask})
		if err != nil {
			b.Fatal(err)
		}
		return window{tab, 0, tab.RefLen()}
	}
	s0, _ := extent(0)
	s1, e1 := extent(1)
	_, e2 := extent(2)
	b.Run("shard1/own_table", func(b *testing.B) { run(b, []window{own(1)}) })
	b.Run("shard1/whole_windowed", func(b *testing.B) { run(b, []window{{whole, s1, e1}}) })
	b.Run("shards02/own_tables", func(b *testing.B) { run(b, []window{own(0), own(2)}) })
	b.Run("shards02/whole_windowed", func(b *testing.B) { run(b, []window{{whole, s0, e2}}) })
	b.Run("all/own_tables", func(b *testing.B) { run(b, []window{own(0), own(1), own(2), own(3)}) })
	b.Run("all/whole", func(b *testing.B) { run(b, []window{{whole, 0, len(ref)}}) })
}
