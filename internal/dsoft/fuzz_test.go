package dsoft

import (
	"reflect"
	"testing"

	"darwin/internal/dna"
	"darwin/internal/seedtable"
)

// FuzzQuery checks the rolling seed stream against per-seed packing on
// arbitrary reference and query bytes (N, lower case and bytes with no
// base code included): Query must equal the Algorithm 1 oracle
// naiveDSOFT, its seed and hit counts must equal dna.PackSeed's, and
// Trace must agree with the oracle seed for seed.
func FuzzQuery(f *testing.F) {
	f.Add([]byte("ACGTACGTTGCAACGTAGGCTAACGT"), []byte("ACGTACGTTGCAACGTAGGCTAACGT"), uint8(0), uint16(40), uint8(6), uint8(1), uint16(0))
	f.Add([]byte("ACGTNACGTTGCAACGTAGGCTAACGTRACG"), []byte("acgtacgTTGCAACNTAGGCTA"), uint8(2), uint16(9), uint8(4), uint8(3), uint16(5))
	f.Fuzz(func(t *testing.T, ref, q []byte, kb uint8, n uint16, h, stride uint8, resetGap uint16) {
		if len(ref) > 4000 || len(q) > 1000 {
			return // the oracle is quadratic
		}
		k := 4 + int(kb)%5
		cfg := Config{N: 1 + int(n)%400, H: 1 + int(h)%64, BinSize: 16, Stride: 1 + int(stride)%24, ResetGap: int(resetGap) % 256}
		tab, err := seedtable.Build(dna.Seq(ref), k, seedtable.Options{NoMask: true})
		if err != nil {
			return
		}
		filter, err := New(tab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, st := filter.Query(dna.Seq(q))
		want := naiveDSOFT(dna.Seq(ref), dna.Seq(q), k, cfg, filter.qPad)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d cfg=%+v:\ngot  %v\nwant %v", k, cfg, got, want)
		}
		wantSt, wantTrace := naiveSeeds(dna.Seq(ref), dna.Seq(q), k, cfg, filter.qPad)
		if st.SeedsIssued != wantSt.SeedsIssued || st.SeedsSkipped != wantSt.SeedsSkipped || st.Hits != wantSt.Hits {
			t.Fatalf("k=%d cfg=%+v: stats %+v, PackSeed oracle %+v", k, cfg, st, wantSt)
		}
		if tr := filter.Trace(dna.Seq(q)); !reflect.DeepEqual(tr, wantTrace) {
			t.Fatalf("k=%d cfg=%+v: trace\ngot  %v\nwant %v", k, cfg, tr, wantTrace)
		}
	})
}
