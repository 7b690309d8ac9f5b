package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/indexfile"
	"darwin/internal/indexio"
	"darwin/internal/shard"
)

func testCoreConfig() core.Config {
	return core.DefaultConfig(11, 400, 18)
}

// TestEntrySharded checks that the resident index Warm holds, sharded,
// serves the same alignments as a monolithic one, and that the shard
// set /v1/indexes reports is the one its engine maps through. With no
// budget, /v1/indexes reports the one whole-reference table once: every
// shard resident, the table's bytes in resident_bytes, 0 per shard.
func TestEntrySharded(t *testing.T) {
	refPath, _ := writeRef(t)
	warm := func(scfg shard.Config) *Server {
		t.Helper()
		s := New(Config{DefaultRef: refPath, DisableSidecar: true, Core: testCoreConfig(), Shard: scfg})
		if err := s.Warm(context.Background()); err != nil {
			t.Fatal(err)
		}
		return s
	}
	mono := warm(shard.Config{}).index.Load()
	sharded := warm(shard.Config{Shards: 3, MaxResidentBytes: 1}).index.Load()

	whole := warm(shard.Config{Shards: 3})
	rec := httptest.NewRecorder()
	whole.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/indexes", nil))
	var infos []struct {
		Sharding *struct {
			shard.Stats
			Detail []shard.ShardInfo `json:"shard_detail"`
		} `json:"sharding"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &infos); err != nil || len(infos) != 1 || infos[0].Sharding == nil {
		t.Fatalf("/v1/indexes = %s (%v), want one sharded index", rec.Body, err)
	}
	table, err := whole.index.Load().Set.Acquire(0)
	if err != nil {
		t.Fatal(err)
	}
	sh := infos[0].Sharding
	if sh.Shards != 3 || sh.Resident != 3 || sh.ResidentBytes != table.Bytes() || len(sh.Detail) != 3 {
		t.Errorf("unbudgeted sharding = %+v, want 3 shards resident on one %d-byte table", sh.Stats, table.Bytes())
	}
	for _, d := range sh.Detail {
		if !d.Resident || d.Bytes != 0 {
			t.Errorf("shard %d: resident %v, %d bytes; want resident with no table of its own", d.Index, d.Resident, d.Bytes)
		}
	}

	if mono.Set != nil {
		t.Error("monolithic index reports a shard set")
	}
	if sharded.Set == nil {
		t.Fatal("sharded index has no shard set")
	}
	ref := sharded.Ref.Seq()
	reads := []dna.Seq{ref[1000:3500].Clone(), ref[30000:32500].Clone(), dna.RevComp(ref[45000:47500])}
	want, err := mono.Mapper.Map(context.Background(), reads, core.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sharded.Mapper.Map(context.Background(), reads, core.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if len(got[i].Alignments) == 0 || !reflect.DeepEqual(got[i].Alignments, want[i].Alignments) {
			t.Fatalf("read %d: %d alignments sharded vs %d monolithic, or they differ", i, len(got[i].Alignments), len(want[i].Alignments))
		}
	}
	st, detail := sharded.Set.Snapshot()
	if st.Shards != 3 || st.Resident != 1 || len(detail) != 3 {
		t.Errorf("snapshot = %+v with %d detail rows, want 3 shards / 1 resident", st, len(detail))
	}
	if sharded.Mapper.(*shard.ScatterMapper).Set() != sharded.Set {
		t.Error("the reported shard set is not the engine's")
	}
}

// writeRef writes a synthetic one-sequence FASTA, returning its path
// and records.
func writeRef(t *testing.T) (string, []dna.Record) {
	t.Helper()
	ref := dna.Random(rand.New(rand.NewSource(71)), 60000, 0.5)
	refPath := filepath.Join(t.TempDir(), "ref.fa")
	var buf bytes.Buffer
	recs := []dna.Record{{Name: "chr1", Seq: ref}}
	if err := dna.WriteFASTA(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(refPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return refPath, recs
}

// writeRefAndIndex writes a synthetic FASTA and a matching prebuilt
// index, returning both paths.
func writeRefAndIndex(t *testing.T, cfg core.Config, sidecar bool) (refPath, idxPath string) {
	t.Helper()
	refPath, recs := writeRef(t)
	if sidecar {
		idxPath = indexfile.SidecarPath(refPath)
	} else {
		idxPath = filepath.Join(filepath.Dir(refPath), "prebuilt.dwi")
	}
	if _, err := indexio.WriteFile(idxPath, recs, cfg, core.ShardSpec{}); err != nil {
		t.Fatal(err)
	}
	return refPath, idxPath
}

// TestWarmFromExplicitIndex: -index cold-start serves without a build
// from the mapped file.
func TestWarmFromExplicitIndex(t *testing.T) {
	cfg := testCoreConfig()
	refPath, idxPath := writeRefAndIndex(t, cfg, false)
	s := New(Config{DefaultRef: refPath, DefaultIndex: idxPath, Core: cfg})
	if err := s.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
	l := s.index.Load()
	if indexPath(l) != idxPath {
		t.Fatalf("index file = %q, want %q", indexPath(l), idxPath)
	}
	if l.File.MappedBytes() == 0 {
		t.Error("MappedBytes = 0, want the mapping size")
	}
	if fingerprint(l) == "" {
		t.Error("no fingerprint, want the file's")
	}
	if bt := l.Mapper.IndexBuildTime(); bt != 0 {
		t.Errorf("IndexBuildTime = %v for a mapped load, want 0 (no build pass)", bt)
	}
}

// indexPath is the index file l was mapped from, "" when it was built.
func indexPath(l *indexio.Loaded) string {
	if l.File == nil {
		return ""
	}
	return l.File.Path()
}

// TestWarmFromSidecar: the `<ref>.dwi` file next to the FASTA is
// discovered without configuration.
func TestWarmFromSidecar(t *testing.T) {
	cfg := testCoreConfig()
	refPath, idxPath := writeRefAndIndex(t, cfg, true)
	s := New(Config{DefaultRef: refPath, Core: cfg})
	if err := s.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := indexPath(s.index.Load()); got != idxPath {
		t.Errorf("sidecar not discovered: index file = %q, want %q", got, idxPath)
	}

	// DisableSidecar must ignore the same file.
	s2 := New(Config{DefaultRef: refPath, Core: cfg, DisableSidecar: true})
	if err := s2.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := indexPath(s2.index.Load()); got != "" {
		t.Errorf("DisableSidecar still loaded %q", got)
	}
}

// TestSidecarFallback: a corrupt sidecar degrades to a FASTA build; a
// corrupt explicit index fails Warm outright.
func TestSidecarFallback(t *testing.T) {
	cfg := testCoreConfig()
	refPath, idxPath := writeRefAndIndex(t, cfg, true)
	data, err := os.ReadFile(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte: the fingerprint (header-only) still reads, so
	// the load itself must fail the checksum pass and fall back.
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)-1] ^= 0x01
	if err := os.WriteFile(idxPath, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}

	s := New(Config{DefaultRef: refPath, Core: cfg})
	if err := s.Warm(context.Background()); err != nil {
		t.Fatalf("corrupt sidecar did not fall back to FASTA build: %v", err)
	}
	if got := indexPath(s.index.Load()); got != "" {
		t.Errorf("fallback still claims index file %q", got)
	}

	s2 := New(Config{DefaultRef: refPath, DefaultIndex: idxPath, Core: cfg})
	if err := s2.Warm(context.Background()); err == nil {
		t.Fatal("corrupt explicit index warmed successfully; want a hard failure")
	}
}
