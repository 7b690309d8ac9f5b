package sam

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"darwin/internal/align"
	"darwin/internal/dna"
)

func TestWriterHeaderAndRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, []RefSeq{{Name: "chr1", Len: 1000}}, "darwin")
	err := w.Write(Record{
		QName: "read1",
		Flag:  FlagReverse,
		RName: "chr1",
		Pos:   99,
		MapQ:  60,
		Cigar: "10M",
		Seq:   dna.NewSeq("ACGTACGTAC"),
		Tags:  []string{"AS:i:10"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected 4 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "@HD") || !strings.Contains(lines[1], "SN:chr1\tLN:1000") {
		t.Errorf("bad header:\n%s", out)
	}
	fields := strings.Split(lines[3], "\t")
	if fields[0] != "read1" || fields[1] != "16" || fields[3] != "100" || fields[5] != "10M" {
		t.Errorf("bad record: %v", fields)
	}
	if fields[len(fields)-1] != "AS:i:10" {
		t.Errorf("missing tag: %v", fields)
	}
}

func TestWriterUnmapped(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, nil, "")
	if err := w.Write(Record{QName: "r", Flag: FlagUnmapped, Seq: dna.NewSeq("ACGT")}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	line := strings.Split(strings.TrimSpace(buf.String()), "\n")
	rec := strings.Split(line[len(line)-1], "\t")
	if rec[2] != "*" || rec[3] != "0" || rec[5] != "*" {
		t.Errorf("unmapped record fields: %v", rec)
	}
}

func TestWriterHeaderOnlyOnFlush(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, []RefSeq{{Name: "x", Len: 5}}, "p")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "@SQ\tSN:x") {
		t.Error("header missing after flush with no records")
	}
}

type failWriter struct{ after int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.after -= len(p)
	if f.after < 0 {
		return 0, errFail
	}
	return len(p), nil
}

var errFail = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "sink full" }

func TestWriterPropagatesErrors(t *testing.T) {
	w := NewWriter(&failWriter{after: 0}, []RefSeq{{Name: "x", Len: 10}}, "p")
	err := w.Write(Record{QName: "r", RName: "x", Cigar: "1M", Seq: dna.NewSeq("A")})
	if err == nil {
		// The bufio layer may absorb the first write; Flush must fail.
		if err = w.Flush(); err == nil {
			t.Error("expected an error from a failing sink")
		}
	}
}

func TestCigarWithClips(t *testing.T) {
	c := align.Cigar{align.NewStep(align.OpMatch, 8), align.NewStep(align.OpIns, 2)}
	if got := CigarWithClips(c, 3, 13, 20); got != "3S8M2I7S" {
		t.Errorf("cigar = %s, want 3S8M2I7S", got)
	}
	if got := CigarWithClips(c, 0, 10, 10); got != "8M2I" {
		t.Errorf("cigar = %s, want 8M2I", got)
	}
}

func TestRecordLine(t *testing.T) {
	r := Record{
		QName: "read1", Flag: FlagReverse, RName: "chr1", Pos: 99, MapQ: 60,
		Cigar: "4M", Seq: dna.NewSeq("ACGT"), Tags: []string{"AS:i:4"},
	}
	want := "read1\t16\tchr1\t100\t60\t4M\t*\t0\t0\tACGT\t*\tAS:i:4"
	if got := r.Line(); got != want {
		t.Errorf("Line() = %q, want %q", got, want)
	}
	// Line and Writer.Write must agree byte-for-byte.
	var buf bytes.Buffer
	w := NewWriter(&buf, nil, "")
	if err := w.Write(r); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if got := lines[len(lines)-1]; got != want {
		t.Errorf("Writer line %q != Line() %q", got, want)
	}
	// Zero-value columns render as SAM missing markers.
	u := Record{QName: "r", Flag: FlagUnmapped, Seq: dna.NewSeq("AC")}
	fields := strings.Split(u.Line(), "\t")
	if fields[2] != "*" || fields[3] != "0" || fields[5] != "*" {
		t.Errorf("unmapped Line fields: %v", fields)
	}
}

func TestRecordJSONRoundTrip(t *testing.T) {
	r := Record{
		QName: "read1", Flag: 16, RName: "chr1", Pos: 42, MapQ: 60,
		Cigar: "5M", Seq: dna.NewSeq("ACGTN"), Tags: []string{"AS:i:5", "ft:i:99"},
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	// dna.Seq must serialize as a readable base string, not base64.
	if !strings.Contains(string(data), `"seq":"ACGTN"`) {
		t.Errorf("sequence not encoded as a base string: %s", data)
	}
	var back Record
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, back) {
		t.Errorf("round trip mismatch:\n  %+v\nvs\n  %+v", r, back)
	}
}

func TestHeaderLines(t *testing.T) {
	lines := HeaderLines([]RefSeq{{Name: "chr1", Len: 100}, {Name: "chr2", Len: 50}}, "darwind")
	want := []string{
		"@HD\tVN:1.6\tSO:unknown",
		"@SQ\tSN:chr1\tLN:100",
		"@SQ\tSN:chr2\tLN:50",
		"@PG\tID:darwind\tPN:darwind",
	}
	if !reflect.DeepEqual(lines, want) {
		t.Errorf("HeaderLines = %q, want %q", lines, want)
	}
	// Writer's header must be exactly these lines.
	var buf bytes.Buffer
	w := NewWriter(&buf, []RefSeq{{Name: "chr1", Len: 100}, {Name: "chr2", Len: 50}}, "darwind")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Writer header %q != HeaderLines %q", got, want)
	}
}
