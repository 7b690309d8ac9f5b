package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"darwin/internal/dna"
)

// TestMain lets the test binary stand in for the darwin command: a
// child started with DARWIN_TEST_MAIN=1 runs main() on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("DARWIN_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// darwin runs the command and returns its stderr.
func darwin(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DARWIN_TEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("darwin %v: %v\n%s", args, err, stderr.String())
	}
	return stderr.String()
}

// TestEveryReadGetsARecord plants a read whose only alignment bridges
// the single N between two reference sequences. Its span cannot be
// located in one sequence, so it must come out as an unmapped record
// and be counted as such — not vanish from the SAM while counted as
// mapped. It also checks that an explicit -index needs no -ref.
func TestEveryReadGetsARecord(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// 127 mod 128: chr1 is padded by exactly one N before chr2.
	chr1 := dna.Random(rng, 128*30+127, 0.5)
	chr2 := dna.Random(rng, 4000, 0.5)
	bridge := append(append(chr1[len(chr1)-700:].Clone(), dna.NewSeq("A")...), chr2[:700]...)

	dir := t.TempDir()
	write := func(name string, recs []dna.Record) string {
		var buf bytes.Buffer
		if err := dna.WriteFASTA(&buf, recs); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	ref := write("ref.fa", []dna.Record{{Name: "chr1", Seq: chr1}, {Name: "chr2", Seq: chr2}})
	reads := write("reads.fa", []dna.Record{
		{Name: "bridge", Seq: bridge},
		{Name: "in1", Seq: chr1[500:1700]},
		{Name: "in2", Seq: chr2[1000:2200]},
	})
	engine := []string{"-reads", reads, "-k", "11", "-n", "400", "-h", "20"}

	built, dwi := filepath.Join(dir, "built.sam"), filepath.Join(dir, "ref.dwi")
	stderr := darwin(t, append(engine, "-ref", ref, "-index-write", dwi, "-out", built)...)
	if !strings.Contains(stderr, "mapped 2/3 reads") {
		t.Errorf("summary does not count the bridging read as unmapped:\n%s", stderr)
	}
	sam, err := os.ReadFile(built)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(string(sam), "\n") {
		if f := strings.Split(line, "\t"); len(f) > 2 && !strings.HasPrefix(line, "@") {
			got = append(got, fmt.Sprintf("%s flag=%s rname=%s", f[0], f[1], f[2]))
		}
	}
	want := []string{"bridge flag=4 rname=*", "in1 flag=0 rname=chr1", "in2 flag=0 rname=chr2"}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("SAM records:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	loaded := filepath.Join(dir, "loaded.sam")
	darwin(t, append(engine, "-index", dwi, "-out", loaded)...)
	if sam2, err := os.ReadFile(loaded); err != nil || !bytes.Equal(sam, sam2) {
		t.Errorf("-index without -ref: SAM differs from the build's (read error %v)", err)
	}
}
