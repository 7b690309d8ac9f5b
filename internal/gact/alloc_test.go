//go:build !race

// The race detector changes allocation behaviour, so the allocation
// pins live behind !race; `make check` runs them in a separate
// non-race pass (test-allocs).

package gact

import (
	"math/rand"
	"testing"

	"darwin/internal/dna"
	"darwin/internal/readsim"
)

// The Engine's contract with its callers' garbage collector: a
// candidate the h_tile filter rejects — the common case downstream of
// D-SOFT — allocates nothing, whether Extend or a batch rejects it (a
// batch's buffers grow once and are reused), and an accepted one
// allocates only the Result it returns: the struct and its cigar.
func TestEngineSteadyStateAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinFirstTile = 90
	engine, err := NewEngine(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, query, iSeed, jSeed := simPair(t, 2000, readsim.PacBio, 905)
	junk := dna.Random(rand.New(rand.NewSource(906)), len(query), 0.5)

	// Warm the path and kernel buffers.
	if res, _, err := engine.Extend(ref, query, iSeed, jSeed); err != nil || res == nil {
		t.Fatalf("warm-up candidate: res=%v err=%v, want an alignment", res, err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if res, _, _ := engine.Extend(ref, junk, iSeed, 0); res != nil {
			t.Fatal("junk candidate was accepted")
		}
	}); n != 0 {
		t.Errorf("rejected Extend allocates %.1f times per call, want 0", n)
	}
	// A full chunk and a tail of rejected candidates: the batch where the
	// platform has it, Extend for the tail and elsewhere.
	junks := make([]Candidate, 40)
	for k := range junks {
		junks[k] = Candidate{R: ref, Q: junk, ISeed: iSeed + 7*k, JSeed: k}
	}
	outs := make([]Outcome, len(junks))
	engine.ExtendBatch(junks, outs)
	if n := testing.AllocsPerRun(20, func() {
		engine.ExtendBatch(junks, outs)
		for _, o := range outs {
			if o.Res != nil || o.Err != nil {
				t.Fatalf("junk candidate: res=%v err=%v, want rejection", o.Res, o.Err)
			}
		}
	}); n != 0 {
		t.Errorf("ExtendBatch of %d rejected candidates allocates %.1f times per call, want 0", len(junks), n)
	}
	if n := testing.AllocsPerRun(20, func() {
		if res, _, _ := engine.Extend(ref, query, iSeed, jSeed); res == nil {
			t.Fatal("true candidate was rejected")
		}
	}); n != 2 {
		t.Errorf("accepted Extend allocates %.1f times per call, want 2 (the Result and its cigar)", n)
	}
}
