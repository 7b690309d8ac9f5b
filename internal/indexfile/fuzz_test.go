package indexfile_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/indexfile"
	"darwin/internal/indexio"
)

// formatCodes are the structured codes a rejected file may carry.
var formatCodes = map[string]bool{
	indexfile.CodeBadMagic:         true,
	indexfile.CodeBadVersion:       true,
	indexfile.CodeTruncated:        true,
	indexfile.CodeChecksumMismatch: true,
	indexfile.CodeBadHeader:        true,
	indexfile.CodeGeometryMismatch: true,
}

// seedIndexes writes small real index files through indexio.WriteFile
// — monolithic dense, 2-shard dense, monolithic sparse (k > 12) — and
// returns their bytes.
func seedIndexes(f *testing.F) [][]byte {
	rng := rand.New(rand.NewSource(71))
	seg := dna.Random(rng, 60, 0.5)
	var a dna.Seq
	for len(a) < 600 {
		a = append(a, seg...) // a repeat, so the mask section is non-empty
	}
	a = append(a, dna.Random(rng, 700, 0.45)...)
	recs := []dna.Record{{Name: "chr1", Seq: a}, {Name: "chr2", Seq: dna.Random(rng, 900, 0.5)}}
	var out [][]byte
	for _, c := range []struct{ k, shards int }{{5, 0}, {5, 2}, {13, 0}} {
		path := filepath.Join(f.TempDir(), fmt.Sprintf("k%d_s%d.dwi", c.k, c.shards))
		if _, err := indexio.WriteFile(path, recs, core.DefaultConfig(c.k, 10, 8), core.ShardSpec{Shards: c.shards}); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

// FuzzIndexOpen feeds mutated index files to the reader. Each input is
// re-sealed (header and section CRC-32Cs recomputed) before it is
// written, so mutations reach the structural checks behind the
// checksums. Open, Inspect, ReadFingerprint, Ref, Table and Lookup on a
// table Table returned must never panic, and every rejection must be a
// FormatError with a known code.
func FuzzIndexOpen(f *testing.F) {
	for _, data := range seedIndexes(f) {
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(data[:20])
		// Bit flips in the version, k, the sequence count (byte 40; byte
		// 42 makes it ~8 M), the payload, and the top byte of the last
		// section's u64 length (the header ends with the 28-byte section
		// entries, length at +16), which makes it negative.
		hdrEnd := 16 + int(binary.LittleEndian.Uint32(data[12:]))
		for _, at := range []int{8, 16, 40, 42, len(data) / 3, len(data) - 1, hdrEnd - 28 + 16 + 7} {
			flipped := append([]byte(nil), data...)
			flipped[at] ^= 0x80
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f.dwi")
		if err := os.WriteFile(path, indexfile.Reseal(data), 0o644); err != nil {
			t.Fatal(err)
		}
		check := func(op string, err error) {
			if err != nil && !formatCodes[indexfile.ErrCode(err)] {
				t.Fatalf("%s: %v is not a FormatError with a known code", op, err)
			}
		}
		_, err := indexfile.Inspect(path)
		check("Inspect", err)
		_, err = indexfile.ReadFingerprint(path)
		check("ReadFingerprint", err)
		file, err := indexfile.Open(path, indexfile.Options{})
		check("Open", err)
		if err != nil {
			return
		}
		defer file.Close()
		_, err = file.Ref()
		check("Ref", err)
		k := file.Info().Params.SeedK
		for i := 0; i < file.NumTables(); i++ {
			tab, err := file.Table(i)
			check(fmt.Sprintf("Table(%d)", i), err)
			if err != nil {
				continue
			}
			// Sampled codes across the seed space, its first and last
			// included: a table the reader accepted must answer every one.
			seeds := uint64(1) << (2 * min(k, 16))
			for c := uint64(0); c < seeds; c += seeds/61 + 1 {
				tab.Lookup(uint32(c))
			}
			tab.Lookup(uint32(seeds - 1))
		}
	})
}
