package indexfile

import (
	"encoding/binary"
	"hash/crc32"
)

// Reseal recomputes the section and header CRC-32Cs of a (mutated)
// index file image in place, as far as its header still locates them,
// so a fuzzer's mutations reach the structural checks behind the
// checksums instead of stopping at checksum_mismatch.
func Reseal(data []byte) []byte {
	if len(data) < preambleLen {
		return data
	}
	hdrEnd := preambleLen + int64(binary.LittleEndian.Uint32(data[12:]))
	if hdrEnd+4 > int64(len(data)) {
		return data
	}
	blob := data[preambleLen:hdrEnd]
	if _, secs, err := decodeHeader("", blob); err == nil {
		// The section table is the header's tail: 28 bytes per entry,
		// the CRC in the last 4.
		base := len(blob) - 28*len(secs)
		for i, s := range secs {
			if s.offset >= 0 && s.length >= 0 && s.length <= int64(len(data))-s.offset {
				crc := crc32.Checksum(data[s.offset:s.offset+s.length], castagnoli)
				binary.LittleEndian.PutUint32(blob[base+28*i+24:], crc)
			}
		}
	}
	binary.LittleEndian.PutUint32(data[hdrEnd:], crc32.Checksum(blob, castagnoli))
	return data
}
