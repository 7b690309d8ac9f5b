package indexfile

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"darwin/internal/seedtable"
)

// Index is the in-memory content of one index file, assembled by the
// builder (internal/indexio) and serialized by Write. The payload
// slices are written verbatim — they ARE the file's sections.
type Index struct {
	// Params are the seeding parameters, defaults already resolved.
	Params Params
	// Ref is the concatenated N-padded reference, ASCII bytes.
	Ref []byte
	// Seqs locates each sequence inside Ref.
	Seqs []SeqMeta
	// ShardCount/ShardSize/Overlap are the partition geometry; all
	// zero for a monolithic index.
	ShardCount, ShardSize, Overlap int
	// MaskCodes are the globally masked seed codes, ascending.
	MaskCodes []uint32
	// Tables and Parts are parallel: window geometry plus the flat
	// table storage for the monolithic table or each shard's table.
	Tables []TableMeta
	Parts  []seedtable.Parts
}

// validate checks the cross-field invariants Write depends on.
func (idx *Index) validate() error {
	if len(idx.Ref) == 0 {
		return fmt.Errorf("indexfile: empty reference")
	}
	if len(idx.Seqs) == 0 {
		return fmt.Errorf("indexfile: no sequence metadata")
	}
	if len(idx.Tables) == 0 || len(idx.Tables) != len(idx.Parts) {
		return fmt.Errorf("indexfile: %d table metas vs %d parts", len(idx.Tables), len(idx.Parts))
	}
	want := 1
	if idx.ShardCount > 0 {
		want = idx.ShardCount
	}
	if len(idx.Tables) != want {
		return fmt.Errorf("indexfile: %d tables for shard count %d", len(idx.Tables), idx.ShardCount)
	}
	for i, t := range idx.Tables {
		if t.ExtentStart < 0 || t.ExtentEnd > len(idx.Ref) || t.ExtentStart >= t.ExtentEnd {
			return fmt.Errorf("indexfile: table %d extent [%d,%d) outside reference [0,%d)",
				i, t.ExtentStart, t.ExtentEnd, len(idx.Ref))
		}
		if got, want := idx.Parts[i].RefLen, t.ExtentEnd-t.ExtentStart; got != want {
			return fmt.Errorf("indexfile: table %d covers %d bases but extent spans %d", i, got, want)
		}
	}
	return nil
}

// sections lays out the payload: the reference, the mask, then each
// table's directory (or sorted codes), start and position sections.
// Offsets are assigned by Write after the header length is known.
func (idx *Index) sections() ([]section, [][]byte) {
	var secs []section
	var payloads [][]byte
	add := func(kind, table uint32, b []byte) {
		secs = append(secs, section{
			kind:   kind,
			table:  table,
			length: int64(len(b)),
			crc:    crc32.Checksum(b, castagnoli),
		})
		payloads = append(payloads, b)
	}
	add(secRef, noTable, idx.Ref)
	add(secMask, noTable, u32Bytes(idx.MaskCodes))
	for i, p := range idx.Parts {
		ti := uint32(i)
		if p.Dir != nil {
			add(secDir, ti, u64Bytes(p.Dir))
		} else {
			add(secCodes, ti, u32Bytes(p.Codes))
		}
		add(secStart, ti, u32Bytes(p.Start))
		add(secPos, ti, u32Bytes(p.Pos))
	}
	return secs, payloads
}

// Write serializes idx to path atomically: the file is assembled in a
// same-directory temp file, fsynced, and renamed into place, so a
// crashed build never leaves a half-written index where a sidecar
// loader would find it.
func Write(path string, idx *Index) (err error) {
	defer tSave.Start(nil).End()
	if err := idx.validate(); err != nil {
		return err
	}

	info := &Info{
		Version:    Version,
		Params:     idx.Params,
		RefLen:     len(idx.Ref),
		Seqs:       idx.Seqs,
		ShardCount: idx.ShardCount,
		ShardSize:  idx.ShardSize,
		Overlap:    idx.Overlap,
		Tables:     make([]TableMeta, len(idx.Tables)),
	}
	copy(info.Tables, idx.Tables)
	for i, p := range idx.Parts {
		info.Tables[i].MaskedSeeds = p.MaskedSeeds
		info.Tables[i].MaskedHits = p.MaskedHits
	}

	// Header length is independent of the section offsets (fixed-size
	// fields), so encode once to measure, place sections, encode again.
	secs, payloads := idx.sections()
	headerLen := len(encodeHeader(info, secs))
	off := alignUp(int64(preambleLen + headerLen + 4))
	for i := range secs {
		secs[i].offset = off
		off = alignUp(off + secs[i].length)
	}
	header := encodeHeader(info, secs)
	if len(header) != headerLen {
		return fmt.Errorf("indexfile: header length changed during encoding (%d != %d)", len(header), headerLen)
	}

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()

	var preamble [preambleLen]byte
	copy(preamble[:], Magic)
	putU32(preamble[8:], Version)
	putU32(preamble[12:], uint32(headerLen))
	if _, err = tmp.Write(preamble[:]); err != nil {
		return err
	}
	if _, err = tmp.Write(header); err != nil {
		return err
	}
	var crcBuf [4]byte
	putU32(crcBuf[:], crc32.Checksum(header, castagnoli))
	if _, err = tmp.Write(crcBuf[:]); err != nil {
		return err
	}
	pos := int64(preambleLen + headerLen + 4)
	for i, s := range secs {
		if pos, err = padTo(tmp, pos, s.offset); err != nil {
			return err
		}
		if _, err = tmp.Write(payloads[i]); err != nil {
			return err
		}
		pos += s.length
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// putU32 writes v little-endian into b.
func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

// padTo writes zero bytes advancing the file from pos to target.
func padTo(f *os.File, pos, target int64) (int64, error) {
	if pos > target {
		return pos, fmt.Errorf("indexfile: section overlap (at %d, next starts %d)", pos, target)
	}
	if pos == target {
		return pos, nil
	}
	if _, err := f.Write(make([]byte, target-pos)); err != nil {
		return pos, err
	}
	return target, nil
}
