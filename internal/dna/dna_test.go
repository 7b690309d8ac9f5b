package dna

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func TestCodeBaseRoundTrip(t *testing.T) {
	for _, b := range []byte("ACGTN") {
		if got := Base(Code(b)); got != b {
			t.Errorf("Base(Code(%q)) = %q, want %q", b, got, b)
		}
	}
	for _, b := range []byte("acgt") {
		want := byte(strings.ToUpper(string(b))[0])
		if got := Base(Code(b)); got != want {
			t.Errorf("Base(Code(%q)) = %q, want %q", b, got, want)
		}
	}
	for _, b := range []byte("XxZ @1-") {
		if got := Code(b); got != CodeN {
			t.Errorf("Code(%q) = %d, want CodeN", b, got)
		}
	}
}

func TestNewSeqNormalizes(t *testing.T) {
	s := NewSeq("acgtNxq")
	if s.String() != "ACGTNNN" {
		t.Errorf("NewSeq normalized to %q, want ACGTNNN", s)
	}
	if err := Validate(s); err != nil {
		t.Errorf("Validate(normalized) = %v, want nil", err)
	}
	if err := Validate(Seq("ACGX")); err == nil {
		t.Error("Validate(ACGX) = nil, want error")
	}
}

func TestRevComp(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"A", "T"},
		{"ACGT", "ACGT"}, // palindrome
		{"AACGTT", "AACGTT"},
		{"GATTACA", "TGTAATC"},
		{"ACGTN", "NACGT"},
	}
	for _, c := range cases {
		if got := RevComp(NewSeq(c.in)).String(); got != c.want {
			t.Errorf("RevComp(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestRevCompInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(n uint8) bool {
		s := Random(rng, int(n), 0.5)
		return bytes.Equal(RevComp(RevComp(s)), s)
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestReverse(t *testing.T) {
	if got := Reverse(NewSeq("GATTACA")).String(); got != "ACATTAG" {
		t.Errorf("Reverse = %q, want ACATTAG", got)
	}
}

func TestPackSeedRoundTrip(t *testing.T) {
	s := NewSeq("ACGTACGTACGTACG")
	for k := 1; k <= MaxSeedSize; k++ {
		code, ok := PackSeed(s, 0, k)
		if !ok {
			t.Fatalf("PackSeed(k=%d) not ok", k)
		}
		if got := UnpackSeed(code, k).String(); got != s[:k].String() {
			t.Errorf("k=%d round trip = %q, want %q", k, got, s[:k])
		}
	}
}

func TestPackSeedRejects(t *testing.T) {
	s := NewSeq("ACGNACGT")
	if _, ok := PackSeed(s, 0, 4); ok {
		t.Error("PackSeed over an N should fail")
	}
	if _, ok := PackSeed(s, 5, 4); ok {
		t.Error("PackSeed off the end should fail")
	}
	if _, ok := PackSeed(s, -1, 4); ok {
		t.Error("PackSeed negative pos should fail")
	}
	if _, ok := PackSeed(s, 0, MaxSeedSize+1); ok {
		t.Error("PackSeed with oversized k should fail")
	}
	if _, ok := PackSeed(s, 4, 4); !ok {
		t.Error("PackSeed of ACGT window should succeed")
	}
}

func TestPackSeedDistinct(t *testing.T) {
	// All 4^k codes of size k must be distinct and < NumSeeds(k).
	const k = 3
	seen := make(map[uint32]bool)
	var gen func(prefix Seq)
	gen = func(prefix Seq) {
		if len(prefix) == k {
			code, ok := PackSeed(prefix, 0, k)
			if !ok {
				t.Fatalf("PackSeed(%q) failed", prefix)
			}
			if int(code) >= NumSeeds(k) {
				t.Fatalf("code %d out of range for k=%d", code, k)
			}
			if seen[code] {
				t.Fatalf("duplicate code %d for %q", code, prefix)
			}
			seen[code] = true
			return
		}
		for _, b := range []byte("ACGT") {
			gen(append(append(Seq{}, prefix...), b))
		}
	}
	gen(nil)
	if len(seen) != NumSeeds(k) {
		t.Errorf("saw %d distinct codes, want %d", len(seen), NumSeeds(k))
	}
}

func TestRandomGCContent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, gc := range []float64{0.2, 0.5, 0.8} {
		s := Random(rng, 200000, gc)
		got := GCContent(s)
		if got < gc-0.02 || got > gc+0.02 {
			t.Errorf("GCContent(Random(gc=%.2f)) = %.3f, want within ±0.02", gc, got)
		}
	}
}

func TestMutatePointAlwaysChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, b := range []byte("ACGT") {
		for i := 0; i < 100; i++ {
			m := MutatePoint(rng, b)
			if m == b {
				t.Fatalf("MutatePoint(%q) returned the same base", b)
			}
			if Code(m) == CodeN {
				t.Fatalf("MutatePoint(%q) returned non-base %q", b, m)
			}
		}
	}
}

func TestFormatWidth(t *testing.T) {
	s := NewSeq("ACGTACGTAC")
	if got := FormatWidth(s, 4); got != "ACGT\nACGT\nAC" {
		t.Errorf("FormatWidth = %q", got)
	}
	if got := FormatWidth(s, 0); got != "ACGTACGTAC" {
		t.Errorf("FormatWidth(width=0) = %q", got)
	}
	if got := FormatWidth(s, 100); got != "ACGTACGTAC" {
		t.Errorf("FormatWidth(wide) = %q", got)
	}
}

func TestFASTARoundTrip(t *testing.T) {
	recs := []Record{
		{Name: "chr1", Desc: "synthetic genome", Seq: NewSeq(strings.Repeat("ACGTGGCA", 30))},
		{Name: "chr2", Seq: NewSeq("TTTT")},
	}
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, recs); err != nil {
		t.Fatalf("WriteFASTA: %v", err)
	}
	got, err := ReadFASTA(&buf)
	if err != nil {
		t.Fatalf("ReadFASTA: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("round trip: %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Name != recs[i].Name || got[i].Desc != recs[i].Desc || !bytes.Equal(got[i].Seq, recs[i].Seq) {
			t.Errorf("record %d mismatch: %+v vs %+v", i, got[i], recs[i])
		}
	}
}

func TestReadFASTAWrapped(t *testing.T) {
	in := ">r1 a read\nACGT\nacgt\n\n>r2\nNNNN\n"
	recs, err := ReadFASTA(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadFASTA: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].Seq.String() != "ACGTACGT" {
		t.Errorf("r1 seq = %q", recs[0].Seq)
	}
	if recs[0].Desc != "a read" {
		t.Errorf("r1 desc = %q", recs[0].Desc)
	}
}

func TestReadFASTAErrors(t *testing.T) {
	if _, err := ReadFASTA(strings.NewReader("ACGT\n")); err == nil {
		t.Error("data before header should error")
	}
}

func TestFASTQRoundTrip(t *testing.T) {
	recs := []Record{
		{Name: "read1", Seq: NewSeq("ACGTACGT"), Qual: []byte("IIIIIIII")},
		{Name: "read2", Seq: NewSeq("GGGG")},
	}
	var buf bytes.Buffer
	if err := WriteFASTQ(&buf, recs); err != nil {
		t.Fatalf("WriteFASTQ: %v", err)
	}
	got, err := ReadFASTQ(&buf)
	if err != nil {
		t.Fatalf("ReadFASTQ: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d records, want 2", len(got))
	}
	if !bytes.Equal(got[0].Seq, recs[0].Seq) || !bytes.Equal(got[0].Qual, recs[0].Qual) {
		t.Errorf("read1 mismatch: %+v", got[0])
	}
	if string(got[1].Qual) != "IIII" {
		t.Errorf("read2 placeholder qual = %q", got[1].Qual)
	}
}

func TestFASTQErrors(t *testing.T) {
	bad := []string{
		"ACGT\nACGT\n+\nIIII\n",  // missing @
		"@r\nACGT\n+\nIII\n",     // qual length mismatch
		"@r\nACGT\n+\n",          // missing qual
		"@r\nACGT\nIIII\nIIII\n", // missing separator
		"@r\n",                   // truncated
	}
	for _, in := range bad {
		if _, err := ReadFASTQ(strings.NewReader(in)); err == nil {
			t.Errorf("ReadFASTQ(%q) = nil error, want error", in)
		}
	}
}

// TestReadFile: the format is chosen by suffix — .fq and .fastq parse
// as FASTQ, anything else as FASTA — and a missing file is an error.
func TestReadFile(t *testing.T) {
	const fasta, fastq = ">r1 a read\nACGT\nacgt\n", "@r1\nACGTACGT\n+\nIIIIIIII\n"
	dir := t.TempDir()
	cases := []struct {
		name, content string
		wantQual      bool
		wantErr       bool
	}{
		{"reads.fq", fastq, true, false},
		{"reads.fastq", fastq, true, false},
		{"reads.fa", fasta, false, false},
		{"reads.txt", fasta, false, false}, // unknown suffix → FASTA
		{"reads.dat", fastq, false, true},  // FASTQ content read as FASTA
		{"reads.fq.bak", fasta, false, false},
		{"empty.fq", "", false, false},
		{"missing.fa", "", false, true},
	}
	for _, tc := range cases {
		path := filepath.Join(dir, tc.name)
		if tc.name != "missing.fa" {
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		recs, err := ReadFile(path)
		if (err != nil) != tc.wantErr {
			t.Errorf("ReadFile(%s) error = %v, want error: %v", tc.name, err, tc.wantErr)
			continue
		}
		if err != nil || tc.content == "" {
			if len(recs) != 0 {
				t.Errorf("ReadFile(%s) = %d records, want none", tc.name, len(recs))
			}
			continue
		}
		if len(recs) != 1 || recs[0].Name != "r1" || recs[0].Seq.String() != "ACGTACGT" || (recs[0].Qual != nil) != tc.wantQual {
			t.Errorf("ReadFile(%s) = %+v", tc.name, recs)
		}
	}
}

func TestGCContentEdge(t *testing.T) {
	if GCContent(NewSeq("NNN")) != 0 {
		t.Error("GCContent of all-N should be 0")
	}
	if GCContent(NewSeq("GGCC")) != 1 {
		t.Error("GCContent of GGCC should be 1")
	}
}
