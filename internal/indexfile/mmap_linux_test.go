//go:build linux

package indexfile

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"

	"darwin/internal/dna"
	"darwin/internal/seedtable"
)

// TestMappingIsReadOnly pins the memory-safety contract of the mmap
// path: the pages backing a loaded index are mapped PROT_READ, so no
// code path can scribble over the seed tables another goroutine (or a
// future process reading the same file) depends on. Verified against
// /proc/self/maps rather than by writing (a write would SIGSEGV, which
// Go cannot recover as a test failure).
func TestMappingIsReadOnly(t *testing.T) {
	ref := dna.Random(rand.New(rand.NewSource(45)), 30000, 0.5)
	idx := buildIndex(t, ref, 11, seedtable.Options{})
	path := filepath.Join(t.TempDir(), "x.dwi")
	if err := Write(path, idx); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if !f.Mapped() {
		t.Fatal("index not mmap-backed on linux")
	}

	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, line := range strings.Split(string(maps), "\n") {
		if !strings.HasSuffix(line, path) {
			continue
		}
		found = true
		fields := strings.Fields(line)
		if len(fields) < 2 {
			t.Fatalf("unparseable maps line: %q", line)
		}
		perms := fields[1]
		if strings.Contains(perms, "w") {
			t.Errorf("index mapping is writable (%s): %q", perms, line)
		}
		if !strings.HasPrefix(perms, "r") {
			t.Errorf("index mapping is not readable (%s): %q", perms, line)
		}
	}
	if !found {
		t.Fatalf("no mapping of %s found in /proc/self/maps", path)
	}

	// The mapped-bytes gauge must track open mappings exactly.
	if got, want := f.MappedBytes(), fileSizeForTest(t, path); got != want {
		t.Errorf("MappedBytes %d != file size %d", got, want)
	}
	before := gMappedBytes.Value()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if after := gMappedBytes.Value(); after != before-fileSizeForTest(t, path) {
		t.Errorf("index/mapped_bytes gauge did not drop on Close: %d -> %d", before, after)
	}
}

func fileSizeForTest(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestViewsZeroCopy asserts the loaded table's arrays actually alias
// the mapping on a little-endian linux host — the zero-deserialization
// property the format exists for.
func TestViewsZeroCopy(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("zero-copy views require a little-endian host")
	}
	ref := dna.Random(rand.New(rand.NewSource(46)), 30000, 0.5)
	idx := buildIndex(t, ref, 11, seedtable.Options{})
	path := filepath.Join(t.TempDir(), "x.dwi")
	if err := Write(path, idx); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seq, err := f.Ref()
	if err != nil {
		t.Fatal(err)
	}
	if !aliases(f.data, []byte(seq)) {
		t.Error("reference bytes were copied out of the mapping")
	}
	tab, err := f.Table(0)
	if err != nil {
		t.Fatal(err)
	}
	parts := tab.Parts()
	if len(parts.Ptr) > 0 && !aliases(f.data, u32Bytes(parts.Ptr)) {
		t.Error("pointer table was copied out of the mapping")
	}
	if len(parts.Pos) > 0 && !aliases(f.data, u32Bytes(parts.Pos)) {
		t.Error("position table was copied out of the mapping")
	}
}

// aliases reports whether inner's backing array lies within outer's.
func aliases(outer, inner []byte) bool {
	if len(inner) == 0 || len(outer) == 0 {
		return false
	}
	o0 := uintptr(unsafe.Pointer(&outer[0]))
	i0 := uintptr(unsafe.Pointer(&inner[0]))
	return i0 >= o0 && i0 < o0+uintptr(len(outer))
}
