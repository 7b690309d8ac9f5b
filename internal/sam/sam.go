// Package sam writes read alignments in the SAM format (the standard
// interchange format of reference-guided assembly pipelines like
// BWA-MEM's, which Darwin replaces). Only the subset needed to emit
// Darwin's alignments is implemented: header @HD/@SQ/@PG lines and
// single-segment records with soft-clipped CIGARs.
package sam

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"darwin/internal/align"
	"darwin/internal/dna"
)

// Flag bits used by this writer.
const (
	FlagReverse  = 0x10
	FlagUnmapped = 0x4
)

// Record is one SAM alignment line. The JSON tags define the wire
// schema the darwind service streams as NDJSON — one Record object
// per alignment, field-for-field the SAM columns.
type Record struct {
	QName string `json:"qname"`
	Flag  int    `json:"flag"`
	RName string `json:"rname,omitempty"`
	// Pos is the 0-based reference start (written 1-based).
	Pos   int      `json:"pos"`
	MapQ  int      `json:"mapq"`
	Cigar string   `json:"cigar,omitempty"`
	Seq   dna.Seq  `json:"seq,omitempty"`
	Tags  []string `json:"tags,omitempty"`
}

// Line renders the record as one tab-separated SAM line (no trailing
// newline), applying the unmapped-record column conventions. Writer
// uses it for files; the darwind service uses it to stream records
// without buffering a whole response.
func (r Record) Line() string {
	rname, cigar := r.RName, r.Cigar
	pos := r.Pos + 1
	if r.Flag&FlagUnmapped != 0 {
		rname, cigar, pos = "*", "*", 0
	}
	if rname == "" {
		rname = "*"
	}
	if cigar == "" {
		cigar = "*"
	}
	seq := "*"
	if len(r.Seq) > 0 {
		seq = string(r.Seq)
	}
	line := strings.Join([]string{
		r.QName, strconv.Itoa(r.Flag), rname, strconv.Itoa(pos),
		strconv.Itoa(r.MapQ), cigar, "*", "0", "0", seq, "*",
	}, "\t")
	if len(r.Tags) > 0 {
		line += "\t" + strings.Join(r.Tags, "\t")
	}
	return line
}

// Writer emits a SAM stream.
type Writer struct {
	w      *bufio.Writer
	wrote  bool
	refs   []RefSeq
	pgLine string
}

// RefSeq names one reference sequence for the @SQ header.
type RefSeq struct {
	Name string
	Len  int
}

// NewWriter creates a writer that will emit a header for the given
// references on the first record.
func NewWriter(w io.Writer, refs []RefSeq, program string) *Writer {
	return &Writer{w: bufio.NewWriter(w), refs: refs, pgLine: program}
}

func (s *Writer) writeHeader() error {
	if _, err := fmt.Fprintf(s.w, "@HD\tVN:1.6\tSO:unknown\n"); err != nil {
		return err
	}
	for _, r := range s.refs {
		if _, err := fmt.Fprintf(s.w, "@SQ\tSN:%s\tLN:%d\n", r.Name, r.Len); err != nil {
			return err
		}
	}
	if s.pgLine != "" {
		if _, err := fmt.Fprintf(s.w, "@PG\tID:%s\tPN:%s\n", s.pgLine, s.pgLine); err != nil {
			return err
		}
	}
	return nil
}

// Write emits one record (and the header first, once).
func (s *Writer) Write(r Record) error {
	if !s.wrote {
		if err := s.writeHeader(); err != nil {
			return fmt.Errorf("sam: writing header: %w", err)
		}
		s.wrote = true
	}
	if _, err := fmt.Fprintln(s.w, r.Line()); err != nil {
		return fmt.Errorf("sam: writing record: %w", err)
	}
	return nil
}

// HeaderLines renders the @HD/@SQ/@PG header for the given references
// (no trailing newline on the last line), for streamers that bypass
// Writer.
func HeaderLines(refs []RefSeq, program string) []string {
	lines := []string{"@HD\tVN:1.6\tSO:unknown"}
	for _, r := range refs {
		lines = append(lines, fmt.Sprintf("@SQ\tSN:%s\tLN:%d", r.Name, r.Len))
	}
	if program != "" {
		lines = append(lines, fmt.Sprintf("@PG\tID:%s\tPN:%s", program, program))
	}
	return lines
}

// Flush flushes buffered output (writing the header if no records
// were emitted).
func (s *Writer) Flush() error {
	if !s.wrote {
		if err := s.writeHeader(); err != nil {
			return err
		}
		s.wrote = true
	}
	return s.w.Flush()
}

// CigarWithClips renders an alignment path as a SAM CIGAR with soft
// clips for the unaligned query prefix/suffix.
func CigarWithClips(c align.Cigar, queryStart, queryEnd, queryLen int) string {
	b := make([]byte, 0, 4*len(c)+16)
	if queryStart > 0 {
		b = append(strconv.AppendInt(b, int64(queryStart), 10), 'S')
	}
	b = c.AppendText(b)
	if tail := queryLen - queryEnd; tail > 0 {
		b = append(strconv.AppendInt(b, int64(tail), 10), 'S')
	}
	return string(b)
}
