package indexfile

import (
	"encoding/binary"
	"unsafe"
)

// The on-disk format is little-endian. On a little-endian host (every
// platform the engine targets in practice) the payload sections are
// exactly the in-memory layout of []uint32 / []uint64, so reading a
// section is reinterpreting mapped bytes — no decode, no copy. The
// generic paths below keep the format correct on big-endian hosts and
// on misaligned buffers at the cost of one copy.
var hostLittleEndian = func() bool {
	x := uint16(0x0102)
	return *(*byte)(unsafe.Pointer(&x)) == 0x02
}()

// u32Bytes returns the little-endian byte image of v, zero-copy on
// little-endian hosts.
func u32Bytes(v []uint32) []byte {
	if len(v) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*4)
	}
	out := make([]byte, len(v)*4)
	for i, x := range v {
		binary.LittleEndian.PutUint32(out[i*4:], x)
	}
	return out
}

// u64Bytes returns the little-endian byte image of v, zero-copy on
// little-endian hosts.
func u64Bytes(v []uint64) []byte {
	if len(v) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
	}
	out := make([]byte, len(v)*8)
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[i*8:], x)
	}
	return out
}

// aligned reports whether p's backing address is a multiple of n.
func aligned(b []byte, n uintptr) bool {
	return uintptr(unsafe.Pointer(&b[0]))%n == 0
}

// viewU32 reinterprets a little-endian byte section as []uint32,
// zero-copy when the host is little-endian and the section is 4-byte
// aligned (mapped sections always are — section offsets are 64-byte
// aligned and mmap bases are page-aligned).
func viewU32(b []byte) []uint32 {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian && aligned(b, 4) {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
	}
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return out
}

// viewU64 reinterprets a little-endian byte section as []uint64 under
// the same zero-copy conditions as viewU32, at 8-byte alignment.
func viewU64(b []byte) []uint64 {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian && aligned(b, 8) {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)
	}
	out := make([]uint64, len(b)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out
}
