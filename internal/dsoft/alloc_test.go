//go:build !race

// The race detector changes allocation behaviour, so the allocation
// pins live behind !race; `make check` runs them in a separate
// non-race pass (test-allocs).

package dsoft

import (
	"math/rand"
	"testing"

	"darwin/internal/dna"
)

// Once a filter has seen a query as long as the next one, QueryInto
// allocates nothing: the candidate buffer is the caller's, and the bin
// arrays, the NZ list and the packed seed codes are the filter's own,
// reused across queries.
func TestQuerySteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	ref := dna.Random(rng, 600, 0.5)
	f, err := New(buildTable(t, ref, 5), Config{N: 200, H: 6, BinSize: 16, Stride: 1})
	if err != nil {
		t.Fatal(err)
	}
	long := append(dna.Seq(nil), ref[50:300]...)
	short := append(dna.Seq(nil), ref[100:250]...)
	short[70] = 'N' // a skipped seed window rides the same code buffer
	buf, _ := f.QueryInto(long, nil)
	if len(buf) == 0 {
		t.Fatal("warm-up query found no candidates")
	}
	for _, q := range []dna.Seq{long, short} {
		if n := testing.AllocsPerRun(20, func() {
			buf, _ = f.QueryInto(q, buf[:0])
		}); n != 0 {
			t.Errorf("warm QueryInto of a %d-base query allocates %.1f times per call, want 0", len(q), n)
		}
	}
}
