package ris

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"unsafe"
)

// This file is the one block codec behind both on-disk formats of the RR
// store: spill files (spill.go) and snapshot files (snapshot.go, recover.go,
// workersnap.go). A block is a 64-byte header — magic (u32 LE at byte 0),
// kind (byte 4), payload length (u64 LE at byte 8), CRC32C of the payload
// (u32 LE at byte 16) — followed by the payload, mirroring the .sasg
// convention of 64-byte-aligned sections validated before any cast. The two
// formats share the header and its validation and differ only in magic,
// kind space and block alignment (page-size for spill blocks, which are
// mapped one by one; 64 bytes for snapshots, which are mapped whole).
//
// Payloads are raw host-order slice images: both files are per-host state
// (process-private scratch, or a snapshot recovered on the machine that
// wrote it), never an interchange format, so casting them back in place is
// endian-agnostic.

// blockHdrSize is the per-block header size; payloads start this many bytes
// past the block's offset, so they are 64-byte aligned whenever blocks are.
const blockHdrSize = 64

// castagnoli is the CRC32C table of every block checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// blockHeader encodes the header of a block whose payload is the
// concatenation of parts, and returns it with the payload length.
func blockHeader(magic uint32, kind byte, parts [][]byte) (hdr [blockHdrSize]byte, plen int64) {
	var crc uint32
	for _, p := range parts {
		plen += int64(len(p))
		crc = crc32.Update(crc, castagnoli, p)
	}
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	hdr[4] = kind
	binary.LittleEndian.PutUint64(hdr[8:], uint64(plen))
	binary.LittleEndian.PutUint32(hdr[16:], crc)
	return hdr, plen
}

// blockPayload validates the block expected at data[off:] — the whole block
// lies inside data, the header carries magic, kind and payload length plen,
// and the payload matches its CRC32C (which catches silent bit rot, not
// just clobbered headers or truncation) — and returns the payload aliasing
// data. Nothing is cast or trusted before every check has passed.
func blockPayload(data []byte, off int64, magic uint32, kind byte, plen int64) ([]byte, error) {
	size := int64(len(data))
	if off < 0 || plen < 0 || off > size-blockHdrSize || plen > size-blockHdrSize-off {
		return nil, fmt.Errorf("block [%d,+%d) outside %d bytes", off, blockHdrSize+plen, size)
	}
	hdr := data[off : off+blockHdrSize]
	if got := binary.LittleEndian.Uint32(hdr[0:]); got != magic {
		return nil, fmt.Errorf("magic %#x, want %#x", got, magic)
	}
	if hdr[4] != kind {
		return nil, fmt.Errorf("kind %d, want %d", hdr[4], kind)
	}
	if got := int64(binary.LittleEndian.Uint64(hdr[8:])); got != plen {
		return nil, fmt.Errorf("payload length %d, want %d", got, plen)
	}
	payload := data[off+blockHdrSize : off+blockHdrSize+plen]
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(hdr[16:]); got != want {
		return nil, fmt.Errorf("checksum %#x, want %#x", got, want)
	}
	return payload, nil
}

// rawBytes returns the host-order byte image of s, aliasing it.
func rawBytes[T int32 | uint32 | int64](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

// castSlice reinterprets a validated, 64-byte-aligned block payload as a
// []T image written by rawBytes, aliasing it.
func castSlice[T int32 | uint32 | int64](b []byte) []T {
	var zero T
	n := len(b) / int(unsafe.Sizeof(zero))
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
}
