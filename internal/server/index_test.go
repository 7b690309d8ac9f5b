package server

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/indexfile"
	"darwin/internal/indexio"
)

// writeRefAndIndex writes a synthetic FASTA and a matching prebuilt
// index, returning both paths.
func writeRefAndIndex(t *testing.T, cfg core.Config, sidecar bool) (refPath, idxPath string) {
	t.Helper()
	ref := dna.Random(rand.New(rand.NewSource(71)), 60000, 0.5)
	dir := t.TempDir()
	refPath = filepath.Join(dir, "ref.fa")
	var buf bytes.Buffer
	recs := []dna.Record{{Name: "chr1", Seq: ref}}
	if err := dna.WriteFASTA(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(refPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if sidecar {
		idxPath = indexfile.SidecarPath(refPath)
	} else {
		idxPath = filepath.Join(dir, "prebuilt.dwi")
	}
	if _, err := indexio.WriteFile(idxPath, recs, cfg, core.ShardSpec{}); err != nil {
		t.Fatal(err)
	}
	return refPath, idxPath
}

// TestWarmFromExplicitIndex: -index cold-start serves without a build
// and reports the mapping on the entry.
func TestWarmFromExplicitIndex(t *testing.T) {
	cfg := testCoreConfig()
	refPath, idxPath := writeRefAndIndex(t, cfg, false)
	s := New(Config{DefaultRef: refPath, DefaultIndex: idxPath, Core: cfg})
	if err := s.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
	e := s.defaultEntry.Load()
	if e.IndexFile != idxPath {
		t.Errorf("entry.IndexFile = %q, want %q", e.IndexFile, idxPath)
	}
	if e.MappedBytes == 0 {
		t.Error("entry.MappedBytes = 0, want the mapping size")
	}
	if e.Fingerprint == 0 {
		t.Error("entry.Fingerprint = 0, want the file fingerprint")
	}
	if e.BuildTime != 0 {
		t.Errorf("entry.BuildTime = %v for a mapped load, want 0 (no build pass)", e.BuildTime)
	}
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
	if e := s.defaultEntry.Load(); e.IndexFile != idxPath {
		t.Errorf("sidecar not discovered: entry.IndexFile = %q, want %q", e.IndexFile, idxPath)
	}

	// DisableSidecar must ignore the same file.
	s2 := New(Config{DefaultRef: refPath, Core: cfg, DisableSidecar: true})
	if err := s2.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
	if e := s2.defaultEntry.Load(); e.IndexFile != "" {
		t.Errorf("DisableSidecar still loaded %q", e.IndexFile)
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
	if e := s.defaultEntry.Load(); e.IndexFile != "" {
		t.Errorf("fallback entry still claims index file %q", e.IndexFile)
	}

	s2 := New(Config{DefaultRef: refPath, DefaultIndex: idxPath, Core: cfg})
	if err := s2.Warm(context.Background()); err == nil {
		t.Fatal("corrupt explicit index warmed successfully; want a hard failure")
	}
}
