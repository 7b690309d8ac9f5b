package seedtable

import (
	"runtime"
	"testing"

	"darwin/internal/genome"
)

// BenchmarkBuild times one table build at the shapes the pipeline
// builds: the polish draft and the overlap table of an assembly job
// (k = 11, local mask), a serve_direct shard and a map_ont_sharded
// shard (a window of a wider genome under that genome's mask), and the
// map_pacbio reference (k = 12). It reports ms/op, the MiB allocated
// per build, and the table's retained MiB (Bytes).
func BenchmarkBuild(b *testing.B) {
	cases := []struct {
		name   string
		genome genome.Config
		k      int
		window int  // bases indexed from the genome's start
		global bool // mask by the whole genome's counts (ComputeMask)
	}{
		{"draft_40k_k11", genome.Config{Length: 40_000, GC: 0.45, Seed: 1}, 11, 40_000, false},
		{"overlap_320k_k11", genome.Config{Length: 320_000, GC: 0.45, Seed: 1}, 11, 320_000, false},
		{"serve_shard_520k_k12", genome.Config{Length: 2_000_000, GC: 0.45, Seed: 1}, 12, 520_000, true},
		{"ont_shard_1250k_k11", genome.DefaultConfig(5_000_000), 11, 1_250_000, true},
		{"pacbio_4M_k12", genome.Config{Length: 4_000_000, GC: 0.45, Seed: 1}, 12, 4_000_000, false},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			g, err := genome.Generate(c.genome)
			if err != nil {
				b.Fatal(err)
			}
			var opts Options
			if c.global {
				if opts.Mask, err = ComputeMask(g.Seq, c.k, opts); err != nil {
					b.Fatal(err)
				}
			}
			var tab *Table
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if tab, err = BuildRange(g.Seq, 0, c.window, c.k, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			const mib = 1 << 20
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/mib/float64(b.N), "alloc_MiB/op")
			b.ReportMetric(float64(tab.Bytes())/mib, "table_MiB")
		})
	}
}
