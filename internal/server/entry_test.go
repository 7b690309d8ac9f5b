package server

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/indexio"
	"darwin/internal/shard"
)

// buildEntry opens recs through the front door and wraps the result as
// Server.Warm does.
func buildEntry(t *testing.T, recs []dna.Record, scfg shard.Config) *IndexEntry {
	t.Helper()
	l, err := indexio.OpenSource(indexio.Source{Records: recs}, testCoreConfig(), scfg)
	if err != nil {
		t.Fatal(err)
	}
	return newIndexEntry(l)
}

func testCoreConfig() core.Config {
	return core.DefaultConfig(11, 400, 18)
}

// TestEntrySharded checks a sharded entry serves the same
// alignments as a monolithic one and exposes its residency snapshot.
func TestEntrySharded(t *testing.T) {
	ref := dna.Random(rand.New(rand.NewSource(47)), 60000, 0.5)
	recs := []dna.Record{{Name: "chr1", Seq: ref}}
	mono := buildEntry(t, recs, shard.Config{})
	sharded := buildEntry(t, recs, shard.Config{Shards: 3, MaxResidentBytes: 1})
	if mono.Shards != nil {
		t.Error("monolithic entry reports a shard set")
	}
	if sharded.Shards == nil {
		t.Fatal("sharded entry has no shard set")
	}
	reads := []dna.Seq{ref[1000:3500].Clone(), ref[30000:32500].Clone(), dna.RevComp(ref[45000:47500])}
	want, err := mono.Engine.Map(context.Background(), reads, core.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sharded.Engine.Map(context.Background(), reads, core.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if len(got[i].Alignments) != len(want[i].Alignments) {
			t.Fatalf("read %d: %d alignments sharded vs %d monolithic", i, len(got[i].Alignments), len(want[i].Alignments))
		}
		if !reflect.DeepEqual(got[i].Alignments, want[i].Alignments) {
			t.Fatalf("read %d: alignments differ between engines", i)
		}
	}
	st, detail := sharded.Shards.Snapshot()
	if st.Shards != 3 || st.Resident != 1 || len(detail) != 3 {
		t.Errorf("snapshot = %+v with %d detail rows, want 3 shards / 1 resident", st, len(detail))
	}
	// The set the entry reports is the one its engine maps through.
	if sharded.Engine.(*shard.ScatterMapper).Set() != sharded.Shards {
		t.Error("the entry's shard set is not its engine's")
	}
}
