package jobs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"darwin/internal/core"
	"darwin/internal/dna"
)

func testCheckpoint() core.OverlapCheckpoint {
	return core.OverlapCheckpoint{
		NextRead: 7,
		Overlaps: []core.Overlap{
			{Target: 0, Query: 3, TargetStart: 100, TargetEnd: 900, QueryStart: 0, QueryEnd: 800, Score: 750},
			{Target: 1, Query: 2, QueryRev: true, TargetStart: 5, TargetEnd: 505, QueryStart: 10, QueryEnd: 510, Score: 480},
		},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "checkpoint.dwc")
	want := testCheckpoint()
	const fp = 0xDEADBEEFCAFE
	if err := WriteCheckpoint(path, fp, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if got.NextRead != want.NextRead || len(got.Overlaps) != len(want.Overlaps) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	for i := range want.Overlaps {
		if got.Overlaps[i] != want.Overlaps[i] {
			t.Errorf("overlap %d: got %+v, want %+v", i, got.Overlaps[i], want.Overlaps[i])
		}
	}
}

func TestCheckpointEmptyOverlaps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "checkpoint.dwc")
	if err := WriteCheckpoint(path, 1, core.OverlapCheckpoint{NextRead: 3}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.NextRead != 3 || len(got.Overlaps) != 0 {
		t.Fatalf("got %+v", got)
	}
}

// TestCheckpointCorruption: every corruption class must surface as a
// CheckpointError with its stable code — the contract the recovery
// path and the HTTP error envelope depend on.
func TestCheckpointCorruption(t *testing.T) {
	write := func(t *testing.T) (string, []byte) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "checkpoint.dwc")
		if err := WriteCheckpoint(path, 42, testCheckpoint()); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return path, data
	}

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		fp      uint64
		wantErr string
	}{
		{"bad magic", func(d []byte) []byte { d[0] ^= 0xFF; return d }, 42, CodeBadMagic},
		{"bad version", func(d []byte) []byte { d[4] = 99; return d }, 42, CodeBadVersion},
		{"truncated header", func(d []byte) []byte { return d[:10] }, 42, CodeTruncated},
		{"truncated records", func(d []byte) []byte { return d[:len(d)-20] }, 42, CodeTruncated},
		{"payload bit flip", func(d []byte) []byte { d[40] ^= 0x01; return d }, 42, CodeChecksumMismatch},
		{"wrong fingerprint", func(d []byte) []byte { return d }, 43, CodePayloadMismatch},
		// 1<<58 records of 64 bytes wrap to zero, so a 36-byte file with
		// a valid CRC once passed the length check and panicked in make.
		{"overflowing count", func(d []byte) []byte {
			d = d[:ckptHdrLen+4]
			binary.LittleEndian.PutUint64(d[24:32], 1<<58)
			return reseal(d)
		}, 42, CodeTruncated},
		// A rev flag other than 0 or 1 under a valid CRC would decode
		// to a checkpoint that does not write back the same bytes.
		{"bad rev flag", func(d []byte) []byte {
			d[ckptHdrLen+16] = 2
			return reseal(d)
		}, 42, CodeBadRecord},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path, data := write(t)
			if err := os.WriteFile(path, tc.mutate(data), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := ReadCheckpoint(path, tc.fp)
			if err == nil {
				t.Fatal("corrupt checkpoint read back clean")
			}
			if !IsCheckpointError(err) {
				t.Fatalf("error %v is not a CheckpointError", err)
			}
			var ce *CheckpointError
			if !errors.As(err, &ce) || ce.Code != tc.wantErr {
				t.Errorf("code = %v, want %s", err, tc.wantErr)
			}
		})
	}
}

// reseal recomputes a checkpoint's trailing CRC-32C in place.
func reseal(d []byte) []byte {
	if len(d) >= 8 {
		binary.LittleEndian.PutUint32(d[len(d)-4:], crc32.Checksum(d[4:len(d)-4], castagnoli))
	}
	return d
}

// FuzzReadCheckpoint feeds the DWCP reader hostile files. Each input
// is re-sealed (CRC) and read under its own fingerprint field, so
// mutations reach the structural checks. Every input must either fail
// with a *CheckpointError or decode to a checkpoint that
// WriteCheckpoint writes back byte for byte; none may panic.
func FuzzReadCheckpoint(f *testing.F) {
	ovs := append(testCheckpoint().Overlaps,
		core.Overlap{Target: 4, Query: 9, QueryRev: true, TargetStart: -3, QueryEnd: 1 << 40, Score: -1})
	dir := f.TempDir()
	for _, n := range []int{0, 1, 3} {
		path := filepath.Join(dir, "seed.dwc")
		c := core.OverlapCheckpoint{NextRead: 5 + n, Overlaps: ovs[:n]}
		if err := WriteCheckpoint(path, uint64(n)*0x9E3779B97F4A7C15, c); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		data = reseal(append([]byte(nil), data...))
		var fp uint64
		if len(data) >= 16 {
			fp = binary.LittleEndian.Uint64(data[8:16])
		}
		dir := t.TempDir()
		in, out := filepath.Join(dir, "in.dwc"), filepath.Join(dir, "out.dwc")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := ReadCheckpoint(in, fp)
		if err != nil {
			var ce *CheckpointError
			if !errors.As(err, &ce) {
				t.Fatalf("%v is not a *CheckpointError", err)
			}
			return
		}
		if err := WriteCheckpoint(out, fp, *c); err != nil {
			t.Fatal(err)
		}
		back, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("accepted checkpoint does not write back byte-identically (%d bytes in, %d out)", len(data), len(back))
		}
	})
}

func TestReadsFingerprintSensitivity(t *testing.T) {
	a := []dna.Seq{dna.Seq("ACGTACGT"), dna.Seq("TTTT")}
	b := []dna.Seq{dna.Seq("ACGTACGT"), dna.Seq("TTTA")}
	c := []dna.Seq{dna.Seq("ACGTACG"), dna.Seq("TTTTT")} // same concatenation length
	if ReadsFingerprint(a) == ReadsFingerprint(b) {
		t.Error("fingerprint blind to base change")
	}
	if ReadsFingerprint(a) == ReadsFingerprint(c) {
		t.Error("fingerprint blind to read boundaries")
	}
	if ReadsFingerprint(a) != ReadsFingerprint(a) {
		t.Error("fingerprint not deterministic")
	}
}
