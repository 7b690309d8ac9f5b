package jobs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"

	"darwin/internal/core"
	"darwin/internal/dna"
)

// Checkpoint file format (little-endian, CRC-32C protected, written
// atomically via temp-file + rename — the indexfile idiom):
//
//	[0:4)   magic "DWCP"
//	[4:8)   version u32 (currently 1)
//	[8:16)  reads fingerprint u64 — FNV-64a over the length-prefixed
//	        read set, so a checkpoint can never resume a different
//	        payload
//	[16:24) next read u64
//	[24:32) overlap count u64
//	then count records of 8 u64/i64 fields each
//	        (target, query, rev, tStart, tEnd, qStart, qEnd, score)
//	last 4  CRC-32C (Castagnoli) over bytes [4 : len−4)
const (
	ckptMagic   = "DWCP"
	ckptVersion = 1
	ckptHdrLen  = 32
	ckptRecLen  = 64
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Stable structured error codes for rejected checkpoint files. A job
// that fails on any of them carries CodeCheckpointCorrupt.
const (
	CodeBadMagic         = "bad_magic"
	CodeBadVersion       = "bad_version"
	CodeTruncated        = "truncated"
	CodeChecksumMismatch = "checksum_mismatch"
	CodePayloadMismatch  = "payload_mismatch"
	CodeBadRecord        = "bad_record"
)

// CheckpointError is a structured checkpoint rejection: a stable Code
// (one of the Code* constants), the offending path, and human detail.
type CheckpointError struct {
	Code   string
	Path   string
	Detail string
}

func (e *CheckpointError) Error() string {
	return fmt.Sprintf("jobs: checkpoint %s: %s (%s)", e.Path, e.Detail, e.Code)
}

// IsCheckpointError reports whether err (or anything it wraps) is a
// structured checkpoint rejection.
func IsCheckpointError(err error) bool {
	var ce *CheckpointError
	return errors.As(err, &ce)
}

func ckptErr(code, path, format string, args ...any) *CheckpointError {
	return &CheckpointError{Code: code, Path: path, Detail: fmt.Sprintf(format, args...)}
}

// ReadsFingerprint hashes a read set (FNV-64a over length-prefixed
// bases) for checkpoint↔payload binding.
func ReadsFingerprint(reads []dna.Seq) uint64 {
	h := fnv.New64a()
	var lenBuf [4]byte
	for _, r := range reads {
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(r)))
		h.Write(lenBuf[:])
		h.Write(r)
	}
	return h.Sum64()
}

// WriteCheckpoint atomically persists an overlap checkpoint bound to
// the given read fingerprint.
func WriteCheckpoint(path string, fingerprint uint64, c core.OverlapCheckpoint) error {
	buf := make([]byte, ckptHdrLen+ckptRecLen*len(c.Overlaps)+4)
	copy(buf[0:4], ckptMagic)
	le := binary.LittleEndian
	le.PutUint32(buf[4:8], ckptVersion)
	le.PutUint64(buf[8:16], fingerprint)
	le.PutUint64(buf[16:24], uint64(c.NextRead))
	le.PutUint64(buf[24:32], uint64(len(c.Overlaps)))
	off := ckptHdrLen
	for i := range c.Overlaps {
		ov := &c.Overlaps[i]
		rev := uint64(0)
		if ov.QueryRev {
			rev = 1
		}
		for _, v := range [8]uint64{
			uint64(ov.Target), uint64(ov.Query), rev,
			uint64(int64(ov.TargetStart)), uint64(int64(ov.TargetEnd)),
			uint64(int64(ov.QueryStart)), uint64(int64(ov.QueryEnd)),
			uint64(int64(ov.Score)),
		} {
			le.PutUint64(buf[off:off+8], v)
			off += 8
		}
	}
	le.PutUint32(buf[off:off+4], crc32.Checksum(buf[4:off], castagnoli))

	return writeFileAtomic(path, buf)
}

// ReadCheckpoint loads and verifies a checkpoint: magic, version,
// CRC-32C, and the binding to the caller's read fingerprint. Failures
// are structured CheckpointErrors.
func ReadCheckpoint(path string, fingerprint uint64) (*core.OverlapCheckpoint, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(buf) < 4 || string(buf[0:4]) != ckptMagic {
		return nil, ckptErr(CodeBadMagic, path, "not a checkpoint file")
	}
	if len(buf) < ckptHdrLen+4 {
		return nil, ckptErr(CodeTruncated, path, "%d bytes, want at least %d", len(buf), ckptHdrLen+4)
	}
	le := binary.LittleEndian
	if v := le.Uint32(buf[4:8]); v != ckptVersion {
		return nil, ckptErr(CodeBadVersion, path, "version %d, want %d", v, ckptVersion)
	}
	// The count is on-disk input: compare it with the records the file
	// has room for, never multiply it — 1<<58 records of 64 bytes wrap
	// to a length of zero.
	count := le.Uint64(buf[24:32])
	if room := len(buf) - ckptHdrLen - 4; room%ckptRecLen != 0 || count != uint64(room/ckptRecLen) {
		return nil, ckptErr(CodeTruncated, path, "%d bytes do not hold %d overlaps", len(buf), count)
	}
	stored := le.Uint32(buf[len(buf)-4:])
	if got := crc32.Checksum(buf[4:len(buf)-4], castagnoli); got != stored {
		return nil, ckptErr(CodeChecksumMismatch, path, "crc32c %08x, stored %08x", got, stored)
	}
	if fp := le.Uint64(buf[8:16]); fp != fingerprint {
		return nil, ckptErr(CodePayloadMismatch, path, "reads fingerprint %016x, want %016x", fp, fingerprint)
	}
	c := &core.OverlapCheckpoint{
		NextRead: int(le.Uint64(buf[16:24])),
		Overlaps: make([]core.Overlap, count),
	}
	off := ckptHdrLen
	for i := range c.Overlaps {
		f := func() int64 {
			v := int64(le.Uint64(buf[off : off+8]))
			off += 8
			return v
		}
		ov := &c.Overlaps[i]
		ov.Target = int(f())
		ov.Query = int(f())
		switch rev := f(); rev {
		case 0, 1:
			ov.QueryRev = rev == 1
		default:
			return nil, ckptErr(CodeBadRecord, path, "overlap %d: rev flag %d, want 0 or 1", i, rev)
		}
		ov.TargetStart = int(f())
		ov.TargetEnd = int(f())
		ov.QueryStart = int(f())
		ov.QueryEnd = int(f())
		ov.Score = int(f())
	}
	return c, nil
}
