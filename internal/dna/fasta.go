package dna

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
)

// Record is a named sequence, as read from or written to FASTA/FASTQ.
type Record struct {
	// Name is the sequence identifier (first whitespace-delimited token
	// of the header line).
	Name string
	// Desc is the remainder of the header line after the name.
	Desc string
	// Seq is the sequence payload, normalized to upper-case ACGTN.
	Seq Seq
	// Qual holds per-base quality bytes for FASTQ records; nil for FASTA.
	Qual []byte
}

// ReadFile reads every record of the sequence file at path: FASTQ when
// the name ends in .fq or .fastq, FASTA otherwise. An empty file is not
// an error here — whether zero records is legal is the caller's rule.
func ReadFile(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".fq") || strings.HasSuffix(path, ".fastq") {
		return ReadFASTQ(f)
	}
	return ReadFASTA(f)
}

// ReadFASTA parses all records from a FASTA stream. Sequence lines may be
// wrapped arbitrarily; bases are normalized to upper-case ACGTN.
func ReadFASTA(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	var recs []Record
	var cur *Record
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimRight(sc.Text(), "\r")
		if text == "" {
			continue
		}
		if text[0] == '>' {
			name, desc := splitHeader(text[1:])
			recs = append(recs, Record{Name: name, Desc: desc})
			cur = &recs[len(recs)-1]
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("dna: line %d: sequence data before first FASTA header", line)
		}
		cur.Seq = appendNormalized(cur.Seq, text)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dna: reading FASTA: %w", err)
	}
	return recs, nil
}

// WriteFASTA writes records in FASTA format with 80-column wrapping.
func WriteFASTA(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	for _, rec := range recs {
		header := rec.Name
		if rec.Desc != "" {
			header += " " + rec.Desc
		}
		if _, err := fmt.Fprintf(bw, ">%s\n%s\n", header, FormatWidth(rec.Seq, 80)); err != nil {
			return fmt.Errorf("dna: writing FASTA: %w", err)
		}
	}
	return bw.Flush()
}

// ReadFASTQ parses all records from a FASTQ stream (4 lines per record).
func ReadFASTQ(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	var recs []Record
	line := 0
	next := func() (string, bool) {
		for sc.Scan() {
			line++
			text := strings.TrimRight(sc.Text(), "\r")
			if text != "" {
				return text, true
			}
		}
		return "", false
	}
	for {
		header, ok := next()
		if !ok {
			break
		}
		if header[0] != '@' {
			return nil, fmt.Errorf("dna: line %d: FASTQ header must start with '@'", line)
		}
		seqLine, ok := next()
		if !ok {
			return nil, fmt.Errorf("dna: line %d: truncated FASTQ record (missing sequence)", line)
		}
		if sep, ok := next(); !ok || !strings.HasPrefix(sep, "+") {
			return nil, fmt.Errorf("dna: line %d: truncated FASTQ record (missing '+' separator)", line)
		}
		qual, ok := next()
		if !ok {
			return nil, fmt.Errorf("dna: line %d: truncated FASTQ record (missing quality)", line)
		}
		if len(qual) != len(seqLine) {
			return nil, fmt.Errorf("dna: line %d: quality length %d != sequence length %d", line, len(qual), len(seqLine))
		}
		name, desc := splitHeader(header[1:])
		recs = append(recs, Record{
			Name: name,
			Desc: desc,
			Seq:  appendNormalized(nil, seqLine),
			Qual: []byte(qual),
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dna: reading FASTQ: %w", err)
	}
	return recs, nil
}

// WriteFASTQ writes records in FASTQ format. Records without qualities
// get a constant placeholder quality ('I').
func WriteFASTQ(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	for _, rec := range recs {
		qual := rec.Qual
		if qual == nil {
			qual = make([]byte, len(rec.Seq))
			for i := range qual {
				qual[i] = 'I'
			}
		}
		header := rec.Name
		if rec.Desc != "" {
			header += " " + rec.Desc
		}
		if _, err := fmt.Fprintf(bw, "@%s\n%s\n+\n%s\n", header, rec.Seq, qual); err != nil {
			return fmt.Errorf("dna: writing FASTQ: %w", err)
		}
	}
	return bw.Flush()
}

func splitHeader(h string) (name, desc string) {
	h = strings.TrimSpace(h)
	if i := strings.IndexAny(h, " \t"); i >= 0 {
		return h[:i], strings.TrimSpace(h[i+1:])
	}
	return h, ""
}

func appendNormalized(dst Seq, text string) Seq {
	for i := 0; i < len(text); i++ {
		dst = append(dst, Base(Code(text[i])))
	}
	return dst
}
