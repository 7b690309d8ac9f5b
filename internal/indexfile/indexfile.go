// Package indexfile is the persistent on-disk reference index: a
// versioned little-endian container (.dwi) holding one whole-reference
// seed position table, the global high-frequency mask, and the
// concatenated reference bytes in their exact in-memory layout.
//
// Darwin's seed position table is deliberately flat — an index over
// sequentially stored hit lists (Section 3, Figure 3), laid out so the
// D-SOFT hardware can stream it in long DRAM bursts — and that same
// flatness makes it trivially serializable: there is no
// pointer graph to fix up, so a loader can mmap(2) the file and hand
// out seedtable.Table / dna.Seq views backed by mapped memory with no
// copy. Rebuilding the table from FASTA is the cold-start cost every
// darwind node and CLI run pays today; loading it is a page-in.
//
// # Layout
//
//	offset 0   magic   "DWINDEX\x00" (8 bytes)
//	offset 8   u32     format version (currently 4)
//	offset 12  u32     header length H
//	offset 16  header  H bytes (see below)
//	16+H       u32     CRC-32C of the header bytes
//	...        payload sections at 64-byte-aligned offsets
//
// The header records the seeding parameters (k, masking on or off, the
// D-SOFT bin size, the applied mask threshold), the reference metadata
// (sequence names, lengths, global offsets, N-pad bin size), the shard
// count a zero spec opens the index with, the table's mask statistics,
// and a section table giving each payload section's kind, absolute
// offset, byte length, and CRC-32C checksum. Section kinds are the
// reference bytes, the global mask codes, the table's rank directory
// (k ≤ 12) or sorted present codes (k > 12), then its start and
// position arrays. There is one table whatever the shard count: the
// partition is computed when the file is opened, from the opening
// engine's parameters, and a sharded engine windows the whole table to
// each shard's extent.
//
// Because the header contains every section checksum, the FNV-64a hash
// of the header bytes fingerprints the entire file content; cluster
// workers advertise it and the router refuses workers that disagree.
package indexfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"

	"darwin/internal/faults"
	"darwin/internal/obs"
)

// Magic opens every index file.
const Magic = "DWINDEX\x00"

// Version is the current format version; a file of any other version
// is rejected as bad_version.
const Version = 4

// Ext is the conventional file extension; SidecarPath derives the
// auto-discovered sidecar name for a reference FASTA from it.
const Ext = ".dwi"

// SidecarPath returns the sidecar index path for a reference file:
// the reference path with Ext appended (ref.fa -> ref.fa.dwi).
func SidecarPath(refPath string) string { return refPath + Ext }

// preambleLen is magic + version + header length.
const preambleLen = 16

// sectionAlign aligns payload sections so typed views over mapped
// memory are always aligned (mmap bases are page-aligned).
const sectionAlign = 64

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Load/save observability and the index/load fault injection point
// (armed only via faults.Setup): an injected error models a missing or
// unreadable index file, exercising the loader's fall-back-to-build
// path in chaos runs.
var (
	tLoad        = obs.Default.Timer("index/load")
	tLoadVerify  = obs.Default.Timer("index/load_verify")
	tSave        = obs.Default.Timer("index/save")
	cLoads       = obs.Default.Counter("index/loads")
	cLoadErrors  = obs.Default.Counter("index/load_errors")
	gMappedBytes = obs.Default.Gauge("index/mapped_bytes")

	fpLoad = faults.Default.Point("index/load")
)

// Stable structured error codes for rejected files. Operators and
// scripts match on these, not on message text.
const (
	CodeBadMagic         = "bad_magic"
	CodeBadVersion       = "bad_version"
	CodeTruncated        = "truncated"
	CodeChecksumMismatch = "checksum_mismatch"
	CodeBadHeader        = "bad_header"
	CodeGeometryMismatch = "geometry_mismatch"
)

// FormatError is a structured index-file rejection: a stable Code (one
// of the Code* constants), the offending path, and human detail.
type FormatError struct {
	Code   string
	Path   string
	Detail string
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("indexfile: %s: %s (%s)", e.Path, e.Detail, e.Code)
}

// ErrCode returns the structured code of an index-file error, or ""
// when err (and everything it wraps) is not a FormatError.
func ErrCode(err error) string {
	var fe *FormatError
	if errors.As(err, &fe) {
		return fe.Code
	}
	return ""
}

// formatErr builds a FormatError.
func formatErr(code, path, format string, args ...any) *FormatError {
	return &FormatError{Code: code, Path: path, Detail: fmt.Sprintf(format, args...)}
}

// Params are the seeding parameters the index was built with. A loader
// must reject an index whose params differ from the runtime engine
// configuration — the tables would be self-consistent but answer the
// wrong queries.
type Params struct {
	SeedK  int
	NoMask bool
	// BinSize is the D-SOFT bin size B, which is also the reference
	// N-padding unit and the shard-boundary alignment unit.
	BinSize int
	// MaskThreshold is the occurrence cutoff actually applied (derived
	// from the formula at build time; 0 = masking disabled).
	MaskThreshold int
}

// SeqMeta locates one reference sequence inside the concatenation.
type SeqMeta struct {
	Name   string
	Offset int // global offset of the first base
	Length int // un-padded sequence length
}

// Section kinds. Kinds 2 and 4 held other arrays before version 3, and
// version 3's section entries named an owning table, so the version
// check must come before any header field past the preamble is read.
const (
	secRef   = 0 // concatenated reference, ASCII bytes
	secMask  = 1 // global mask codes, ascending u32
	secDir   = 2 // rank directory, u64 per 32 codes (k ≤ 12)
	secCodes = 3 // present seed codes, ascending u32 (k > 12)
	secStart = 4 // one offset into pos per present code, plus the end, u32
	secPos   = 5 // position table, u32
)

// sectionKindNames maps kinds to the names inspect prints.
var sectionKindNames = map[uint32]string{
	secRef:   "ref",
	secMask:  "mask",
	secDir:   "dir",
	secCodes: "codes",
	secStart: "start",
	secPos:   "pos",
}

// section is one payload section's placement.
type section struct {
	kind   uint32
	offset int64
	length int64
	crc    uint32
}

// sectionLen is one section table entry's encoded size: kind, offset,
// length, CRC.
const sectionLen = 24

// SectionInfo is one section's placement for inspect/verify output.
type SectionInfo struct {
	Kind   string `json:"kind"`
	Offset int64  `json:"offset"`
	Length int64  `json:"length"`
	CRC    uint32 `json:"crc32c"`
}

// Info is the decoded header: everything about an index file short of
// the payload bytes.
type Info struct {
	Version int
	Params  Params
	RefLen  int
	Seqs    []SeqMeta
	// ShardCount is the shard count an engine with a zero shard spec
	// opens the index with (0 = monolithic). It shapes nothing in the
	// file.
	ShardCount int
	// MaskedSeeds and MaskedHits record what masking removed from the
	// table.
	MaskedSeeds int
	MaskedHits  int
	Sections    []SectionInfo
	Fingerprint uint64
	FileSize    int64
}

// hdrWriter appends little-endian header fields.
type hdrWriter struct{ buf []byte }

func (w *hdrWriter) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *hdrWriter) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *hdrWriter) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}
func (w *hdrWriter) boolean(b bool) {
	if b {
		w.u32(1)
	} else {
		w.u32(0)
	}
}

// hdrReader consumes little-endian header fields, latching the first
// out-of-bounds read instead of panicking on truncated input.
type hdrReader struct {
	buf  []byte
	off  int
	fail bool
}

func (r *hdrReader) u32() uint32 {
	if r.off+4 > len(r.buf) {
		r.fail = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *hdrReader) u64() uint64 {
	if r.off+8 > len(r.buf) {
		r.fail = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *hdrReader) str() string {
	n := int(r.u32())
	if r.fail || n > len(r.buf)-r.off {
		r.fail = true
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

func (r *hdrReader) boolean() bool { return r.u32() != 0 }

// count reads an entry count, latching failure unless that many
// entries of at least entryLen bytes fit in the rest of the header — a
// corrupt count must not drive a huge allocation.
func (r *hdrReader) count(entryLen int) int {
	n := int(r.u32())
	if n > (len(r.buf)-r.off)/entryLen {
		r.fail = true
	}
	return n
}

// encodeHeader renders the header blob. Section placement fields are
// fixed-size, so encoding with placeholder offsets yields the final
// length — Write encodes once to learn it, places the sections, and
// encodes again.
func encodeHeader(info *Info, secs []section) []byte {
	w := &hdrWriter{}
	p := info.Params
	w.u32(uint32(p.SeedK))
	w.boolean(p.NoMask)
	w.u32(uint32(p.BinSize))
	w.u32(uint32(p.MaskThreshold))
	w.u64(uint64(info.RefLen))
	w.u32(uint32(len(info.Seqs)))
	for _, s := range info.Seqs {
		w.str(s.Name)
		w.u64(uint64(s.Offset))
		w.u64(uint64(s.Length))
	}
	w.u32(uint32(info.ShardCount))
	w.u64(uint64(info.MaskedSeeds))
	w.u64(uint64(info.MaskedHits))
	w.u32(uint32(len(secs)))
	for _, s := range secs {
		w.u32(s.kind)
		w.u64(uint64(s.offset))
		w.u64(uint64(s.length))
		w.u32(s.crc)
	}
	return w.buf
}

// decodeHeader parses a header blob (already CRC-verified) into Info
// and the section placements. path only labels errors.
func decodeHeader(path string, blob []byte) (*Info, []section, error) {
	bad := func(format string, args ...any) (*Info, []section, error) {
		return nil, nil, formatErr(CodeBadHeader, path, format, args...)
	}
	r := &hdrReader{buf: blob}
	info := &Info{Version: Version}
	p := &info.Params
	p.SeedK = int(r.u32())
	p.NoMask = r.boolean()
	p.BinSize = int(r.u32())
	p.MaskThreshold = int(r.u32())
	info.RefLen = int(r.u64())
	nSeqs := r.count(20) // name length, offset, length
	if r.fail || nSeqs < 1 {
		return bad("implausible sequence count %d", nSeqs)
	}
	info.Seqs = make([]SeqMeta, nSeqs)
	for i := range info.Seqs {
		info.Seqs[i] = SeqMeta{
			Name:   r.str(),
			Offset: int(r.u64()),
			Length: int(r.u64()),
		}
	}
	info.ShardCount = int(r.u32())
	info.MaskedSeeds = int(r.u64())
	info.MaskedHits = int(r.u64())
	nSecs := r.count(sectionLen)
	if r.fail || nSecs < 1 {
		return bad("implausible section count %d", nSecs)
	}
	secs := make([]section, nSecs)
	for i := range secs {
		secs[i] = section{
			kind:   r.u32(),
			offset: int64(r.u64()),
			length: int64(r.u64()),
			crc:    r.u32(),
		}
	}
	if r.fail {
		return bad("header shorter than its field structure")
	}
	if r.off != len(blob) {
		return bad("%d trailing header bytes", len(blob)-r.off)
	}
	seen := map[uint32]bool{}
	for i, s := range secs {
		if _, ok := sectionKindNames[s.kind]; !ok {
			return bad("section %d has unknown kind %d", i, s.kind)
		}
		if seen[s.kind] {
			return bad("section %d repeats kind %s", i, sectionKindNames[s.kind])
		}
		seen[s.kind] = true
		if s.offset%4 != 0 {
			return bad("section %d offset %d is not 4-byte aligned", i, s.offset)
		}
	}
	info.Sections = sectionInfos(secs)
	return info, secs, nil
}

// sectionInfos converts placements to the public inspect form.
func sectionInfos(secs []section) []SectionInfo {
	out := make([]SectionInfo, len(secs))
	for i, s := range secs {
		out[i] = SectionInfo{
			Kind:   sectionKindNames[s.kind],
			Offset: s.offset,
			Length: s.length,
			CRC:    s.crc,
		}
	}
	return out
}

// fingerprint hashes a header blob with FNV-64a. The header embeds
// every section's CRC-32C, so this covers the full file content.
func fingerprint(headerBlob []byte) uint64 {
	h := fnv.New64a()
	h.Write(headerBlob)
	return h.Sum64()
}

// alignUp rounds n up to a multiple of sectionAlign.
func alignUp(n int64) int64 {
	return (n + sectionAlign - 1) / sectionAlign * sectionAlign
}
