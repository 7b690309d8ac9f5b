package indexfile

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"darwin/internal/dna"
	"darwin/internal/seedtable"
)

// buildIndex builds one in-memory index over ref: global
// mask, then a table under that mask, the way internal/indexio does.
func buildIndex(t *testing.T, ref dna.Seq, k int, opts seedtable.Options) *Index {
	t.Helper()
	mask, err := seedtable.ComputeMask(ref, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Mask = mask
	tab, err := seedtable.Build(ref, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	return &Index{
		Params: Params{
			SeedK:         k,
			NoMask:        opts.NoMask,
			BinSize:       128,
			MaskThreshold: mask.Threshold(),
		},
		Ref:       []byte(ref),
		Seqs:      []SeqMeta{{Name: "chr1", Offset: 0, Length: len(ref)}},
		MaskCodes: mask.Codes(),
		Table:     tab.Parts(),
	}
}

// repetitiveRef returns a reference with a heavily repeated segment so
// the high-frequency mask is non-empty (a uniform random sequence
// rarely crosses the masking threshold).
func repetitiveRef(seed int64, n int) dna.Seq {
	rng := rand.New(rand.NewSource(seed))
	seg := dna.Random(rng, 200, 0.5)
	out := make(dna.Seq, 0, n)
	for len(out) < n/2 {
		out = append(out, seg...)
	}
	out = append(out, dna.Random(rng, n-len(out), 0.45)...)
	return out
}

// equalU32 treats nil and empty as equal — a zero-length section reads
// back nil.
func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRoundTrip is the format-level half of the bit-identity
// invariant: every table variant (dense, sparse k>12, unmasked)
// written and mapped back must reproduce the exact in-memory arrays of
// the freshly built table.
func TestRoundTrip(t *testing.T) {
	ref := repetitiveRef(41, 60000)
	cases := []struct {
		name string
		k    int
		opts seedtable.Options
	}{
		{name: "dense_k8", k: 8},
		{name: "dense_k11", k: 11},
		{name: "sparse_k13", k: 13},
		{name: "nomask", k: 11, opts: seedtable.Options{NoMask: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			idx := buildIndex(t, ref, tc.k, tc.opts)
			path := filepath.Join(t.TempDir(), "x.dwi")
			if err := Write(path, idx); err != nil {
				t.Fatal(err)
			}
			f, err := Open(path, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()

			if got := f.Info().Params; got != idx.Params {
				t.Errorf("params drift: wrote %+v read %+v", idx.Params, got)
			}
			seq, err := f.Ref()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual([]byte(seq), idx.Ref) {
				t.Error("reference bytes differ after roundtrip")
			}
			if !equalU32(f.MaskCodes(), idx.MaskCodes) {
				t.Errorf("mask codes differ: wrote %d read %d", len(idx.MaskCodes), len(f.MaskCodes()))
			}
			if tc.name == "dense_k8" && len(idx.MaskCodes) == 0 {
				t.Error("test reference produced an empty mask; the mask roundtrip is untested")
			}
			tab, err := f.Table()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(tab.Parts(), idx.Table) {
				t.Error("table parts differ after roundtrip (bit-identity violated)")
			}
			// The loaded table must answer lookups, not just deep-equal.
			orig, err := seedtable.FromParts(idx.Table)
			if err != nil {
				t.Fatal(err)
			}
			for code := uint32(0); code < 64; code++ {
				if !reflect.DeepEqual(tab.Lookup(code), orig.Lookup(code)) {
					t.Fatalf("lookup(%d) differs", code)
				}
			}
		})
	}
}

// TestFingerprint pins the fingerprint contract cluster workers are
// compared on: identical content fingerprints identically across
// writes, different content differs.
func TestFingerprint(t *testing.T) {
	ref := dna.Random(rand.New(rand.NewSource(42)), 20000, 0.5)
	dir := t.TempDir()
	fingerprintOf := func(name string, seq dna.Seq) uint64 {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := Write(path, buildIndex(t, seq, 11, seedtable.Options{})); err != nil {
			t.Fatal(err)
		}
		info, err := Verify(path)
		if err != nil {
			t.Fatal(err)
		}
		return info.Fingerprint
	}
	fpA, fpB := fingerprintOf("a.dwi", ref), fingerprintOf("b.dwi", ref)
	if fpA != fpB {
		t.Errorf("identical content, different fingerprints: %016x vs %016x", fpA, fpB)
	}
	if fpC := fingerprintOf("c.dwi", ref[:10000]); fpC == fpA {
		t.Error("different content produced the same fingerprint")
	}
}

// corrupt writes a mutated copy of the file and returns its path.
func corrupt(t *testing.T, path string, mutate func([]byte) []byte) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "corrupt.dwi")
	if err := os.WriteFile(out, mutate(append([]byte(nil), data...)), 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCorruptionCodes drives every rejection path and asserts the
// stable structured code — the contract scripts and operators match
// on.
func TestCorruptionCodes(t *testing.T) {
	ref := dna.Random(rand.New(rand.NewSource(43)), 30000, 0.5)
	idx := buildIndex(t, ref, 11, seedtable.Options{})
	path := filepath.Join(t.TempDir(), "x.dwi")
	if err := Write(path, idx); err != nil {
		t.Fatal(err)
	}
	info, err := Verify(path)
	if err != nil {
		t.Fatalf("pristine file failed verify: %v", err)
	}
	// Payload byte to flip: inside the last section, well clear of the
	// header (whose own CRC is a different code).
	last := info.Sections[len(info.Sections)-1]

	cases := []struct {
		name   string
		mutate func([]byte) []byte
		code   string
	}{
		{"bad_magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, CodeBadMagic},
		{"bad_version", func(b []byte) []byte { b[8] ^= 0xff; return b }, CodeBadVersion},
		{"truncated_preamble", func(b []byte) []byte { return b[:8] }, CodeTruncated},
		{"truncated_payload", func(b []byte) []byte { return b[:last.Offset+1] }, CodeTruncated},
		{"payload_bit_flip", func(b []byte) []byte { b[last.Offset] ^= 0x01; return b }, CodeChecksumMismatch},
		{"header_bit_flip", func(b []byte) []byte { b[preambleLen] ^= 0x01; return b }, CodeChecksumMismatch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := corrupt(t, path, tc.mutate)
			if _, err := Verify(p); ErrCode(err) != tc.code {
				t.Errorf("Verify: code %q (err %v), want %q", ErrCode(err), err, tc.code)
			}
			if _, err := Open(p, Options{}); ErrCode(err) != tc.code {
				t.Errorf("Open: code %q (err %v), want %q", ErrCode(err), err, tc.code)
			}
		})
	}

	// Inspect skips payload checksums by design: a payload bit flip
	// passes Inspect (headers intact) but never a full Verify.
	flipped := corrupt(t, path, func(b []byte) []byte { b[last.Offset] ^= 0x01; return b })
	if _, err := Inspect(flipped); err != nil {
		t.Errorf("Inspect rejected a payload flip it is documented to skip: %v", err)
	}
}

// TestLoadErrorsCounted asserts the error counter moves on a rejected
// load — the signal chaos probes watch.
func TestLoadErrorsCounted(t *testing.T) {
	ref := dna.Random(rand.New(rand.NewSource(44)), 20000, 0.5)
	idx := buildIndex(t, ref, 11, seedtable.Options{})
	path := filepath.Join(t.TempDir(), "x.dwi")
	if err := Write(path, idx); err != nil {
		t.Fatal(err)
	}
	bad := corrupt(t, path, func(b []byte) []byte { return b[:12] })
	before := cLoadErrors.Value()
	if _, err := Open(bad, Options{}); err == nil {
		t.Fatal("truncated file opened cleanly")
	}
	if cLoadErrors.Value() != before+1 {
		t.Errorf("index/load_errors did not increment (was %d, now %d)", before, cLoadErrors.Value())
	}
}

// A rank directory is checked only at its last word when a file opens,
// and a start array only at its ends, so a CRC-valid file can carry a
// directory word whose rank runs past start, or a start entry that runs
// past the position table and so makes its own pair decrease. Lookup
// must answer nil for the codes such an entry governs, not panic, and
// every other code as the pristine table does.
func TestLookupCorruptDirectory(t *testing.T) {
	ref := dna.Random(rand.New(rand.NewSource(45)), 30000, 0.5)
	path := filepath.Join(t.TempDir(), "x.dwi")
	if err := Write(path, buildIndex(t, ref, 11, seedtable.Options{})); err != nil {
		t.Fatal(err)
	}
	info, err := Inspect(path)
	if err != nil {
		t.Fatal(err)
	}
	offsets := map[string]int64{}
	for _, s := range info.Sections {
		offsets[s.Kind] = s.Offset
	}
	if _, ok := offsets["dir"]; !ok {
		t.Fatal("k=11 index has no rank directory section")
	}
	pristine, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pristine.Close()
	want, err := pristine.Table()
	if err != nil {
		t.Fatal(err)
	}
	rankOf := func(c uint32) uint32 {
		r := []uint32{c}
		want.Ranks(r)
		return r[0]
	}
	code, ok := dna.PackSeed(ref, 1000, 11)
	rank := rankOf(code)
	if !ok || len(want.Lookup(code)) == 0 || rank == 0 {
		t.Fatalf("seed %d at 1000 has no hits or rank 0", code)
	}
	cases := []struct {
		name     string
		at       int64 // byte offset of the corrupted u32
		affected func(c uint32) bool
	}{
		// Each entry becomes 0xfffffff0.
		{
			// The block's rank word, past every start entry: the block's
			// codes all rank past start.
			name: "rank_past_start", at: offsets["dir"] + 8*int64(code>>5) + 4,
			affected: func(c uint32) bool { return c>>5 == code>>5 },
		},
		{
			// start[rank] past every position: rank−1's pair runs off the
			// position table, rank's pair decreases.
			name: "start_past_pos", at: offsets["start"] + 4*int64(rank),
			affected: func(c uint32) bool { r := rankOf(c); return r == rank || r == rank-1 },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := corrupt(t, path, func(b []byte) []byte {
				binary.LittleEndian.PutUint32(b[tc.at:], 0xfffffff0)
				return Reseal(b)
			})
			f, err := Open(bad, Options{})
			if err != nil {
				t.Fatalf("re-sealed file: %v", err)
			}
			defer f.Close()
			tab, err := f.Table()
			if err != nil {
				t.Fatalf("re-sealed file's table: %v", err)
			}
			if got := tab.Lookup(code); got != nil {
				t.Errorf("Lookup(%d) = %d positions, want nil", code, len(got))
			}
			hit := 0
			for c := uint32(0); c < 1<<22; c++ {
				got := tab.Lookup(c)
				switch {
				case tc.affected(c):
					if got != nil {
						t.Fatalf("Lookup(%d) = %d positions, want nil", c, len(got))
					}
					hit++
				case !equalU32(got, want.Lookup(c)):
					t.Fatalf("Lookup(%d) = %v, pristine %v", c, got, want.Lookup(c))
				}
			}
			if hit < 2 {
				t.Errorf("only %d codes affected; the corruption reached less than its block or pair", hit)
			}
		})
	}
}
