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
	// ShardCount is the shard count a zero spec opens the index with
	// (0 = monolithic).
	ShardCount int
	// MaskCodes are the globally masked seed codes, ascending.
	MaskCodes []uint32
	// Table is the flat storage of the whole-reference seed table.
	Table seedtable.Parts
}

// validate checks the cross-field invariants Write depends on.
func (idx *Index) validate() error {
	if len(idx.Ref) == 0 {
		return fmt.Errorf("indexfile: empty reference")
	}
	if len(idx.Seqs) == 0 {
		return fmt.Errorf("indexfile: no sequence metadata")
	}
	if idx.ShardCount < 0 {
		return fmt.Errorf("indexfile: negative shard count %d", idx.ShardCount)
	}
	if idx.Table.RefLen != len(idx.Ref) {
		return fmt.Errorf("indexfile: the seed table covers %d bases but the reference has %d", idx.Table.RefLen, len(idx.Ref))
	}
	return nil
}

// sections lays out the payload: the reference, the mask, then the
// table's directory (or sorted codes), start and position sections.
// Offsets are assigned by Write after the header length is known.
func (idx *Index) sections() ([]section, [][]byte) {
	var secs []section
	var payloads [][]byte
	add := func(kind uint32, b []byte) {
		secs = append(secs, section{
			kind:   kind,
			length: int64(len(b)),
			crc:    crc32.Checksum(b, castagnoli),
		})
		payloads = append(payloads, b)
	}
	add(secRef, idx.Ref)
	add(secMask, u32Bytes(idx.MaskCodes))
	p := idx.Table
	if p.Dir != nil {
		add(secDir, u64Bytes(p.Dir))
	} else {
		add(secCodes, u32Bytes(p.Codes))
	}
	add(secStart, u32Bytes(p.Start))
	add(secPos, u32Bytes(p.Pos))
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
		Version:     Version,
		Params:      idx.Params,
		RefLen:      len(idx.Ref),
		Seqs:        idx.Seqs,
		ShardCount:  idx.ShardCount,
		MaskedSeeds: idx.Table.MaskedSeeds,
		MaskedHits:  idx.Table.MaskedHits,
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
