package ris

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"unsafe"
)

// This file is the one on-disk layout of the RR store. Spill files
// (spill.go) and snapshot files (snapshot.go, recover.go) are both a
// blockFile: a sequence of blocks, each a 64-byte header — magic (u32
// LE at byte 0), kind (byte 4), payload length (u64 LE at byte 8), CRC32C of
// the payload (u32 LE at byte 16) — followed by the payload and zero padding
// to the next 64-byte boundary, mirroring the .sasg convention of 64-byte-
// aligned sections validated before any cast. A spill file holds arena and
// index blocks only; a snapshot is a meta block followed by the same kinds
// of blocks for every segment, committed by a manifest.
//
// Payloads are raw host-order slice images: both files are per-host state
// (process-private scratch, or a snapshot recovered on the machine that
// wrote it), never an interchange format, so casting them back in place is
// endian-agnostic.
//
// A block file has three operations: append, which writes a block through a
// SnapshotFile; mapBlock, which maps one block read-only, validates it,
// drops its pages from the resident set and hands out its payload; and
// readBlock, which validates a block read into the heap. A mapping is never
// released before the whole file closes — the finalizer path, once the store
// holding the file is unreachable — so concurrent readers can never fault on
// an unmapped page.

const (
	// snapMagic is "RRSN" read as a little-endian uint32.
	snapMagic = 0x4E535252
	// blockHdrSize is the per-block header size. Blocks start on multiples
	// of blockAlign, so payloads are 64-byte aligned too.
	blockHdrSize = 64
	blockAlign   = 64
)

// Block kinds (header byte 4). Kind 12 was the gid table of multi-shard
// snapshots; it stays unassigned.
const (
	snapKindMeta    byte = 10 // store meta (wbuf-encoded)
	snapKindOffsets byte = 11 // segment offset table: []int64 image
	snapKindArena   byte = 13 // arena extent items: []uint32 image
	snapKindIndex   byte = 14 // CSR index block: []int32 starts ++ []int32 ids
)

// ErrBadSpill reports a structurally invalid block in a spill or snapshot
// file: bad magic, kind, length or checksum, or a file too short to hold
// the block. Mirrors graph.ErrBadMapped for .sasg files.
var ErrBadSpill = errors.New("ris: bad block")

// castagnoli is the CRC32C table of every block checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var blockZeros [blockAlign]byte

func alignUp(v int64) int64 { return (v + blockAlign - 1) &^ (blockAlign - 1) }

// nextBlock returns the offset of the block after one at off with the given
// payload length.
func nextBlock(off, plen int64) int64 { return off + blockHdrSize + alignUp(plen) }

// blockFile is a file of blocks: a spill file (appended and mapped), a
// snapshot being written (appended only) or a snapshot being recovered
// (mapped only).
type blockFile struct {
	path   string
	w      SnapshotFile // append handle; nil for an opened snapshot
	f      *os.File     // map handle; nil for a snapshot being written
	size   int64        // bytes appended, or the opened file's size
	blocks int          // blocks appended
	err    error        // first append failure; sticky
	maps   [][]byte     // every mapping handed out, released by close
	remove bool         // close removes path (not unlinked at creation)
}

// blockHeader encodes the header of a block whose payload is the
// concatenation of parts, and returns it with the payload length.
func blockHeader(kind byte, parts [][]byte) (hdr [blockHdrSize]byte, plen int64) {
	var crc uint32
	for _, p := range parts {
		plen += int64(len(p))
		crc = crc32.Update(crc, castagnoli, p)
	}
	binary.LittleEndian.PutUint32(hdr[0:], snapMagic)
	hdr[4] = kind
	binary.LittleEndian.PutUint64(hdr[8:], uint64(plen))
	binary.LittleEndian.PutUint32(hdr[16:], crc)
	return hdr, plen
}

// append writes one block — header, the concatenated parts, zero padding to
// the next blockAlign boundary — and returns its offset. The first write
// error is sticky: later appends write nothing and return it again.
func (bf *blockFile) append(kind byte, parts ...[]byte) (int64, error) {
	off := bf.size
	hdr, plen := blockHeader(kind, parts)
	bf.write(hdr[:])
	for _, p := range parts {
		bf.write(p)
	}
	bf.write(blockZeros[:alignUp(plen)-plen])
	if bf.err != nil {
		return 0, bf.err
	}
	bf.blocks++
	return off, nil
}

func (bf *blockFile) write(p []byte) {
	if bf.err != nil || len(p) == 0 {
		return
	}
	if _, err := bf.w.Write(p); err != nil {
		bf.err = err
		return
	}
	bf.size += int64(len(p))
}

// mapBlock maps the block at off read-only, validates it against kind and
// payload length plen, and returns the payload aliasing the mapping, which
// stays valid until the file closes. The mapped range starts at the page
// boundary below off, as mappings must. Once validated, the mapping's pages
// leave the process's resident set (dropResident): the checksum pass read
// every one of them, but they stay in the page cache and fault back in only
// when a query reads them.
func (bf *blockFile) mapBlock(off int64, kind byte, plen int64) ([]byte, error) {
	if err := bf.checkBounds(off, plen); err != nil {
		return nil, err
	}
	base := off &^ int64(os.Getpagesize()-1)
	data, err := mapRange(bf.f, base, off+blockHdrSize+plen-base)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpill, err)
	}
	payload, err := blockPayload(data, off-base, kind, plen)
	if err != nil {
		unmapRange(data)
		return nil, fmt.Errorf("%w: block at %d: %v", ErrBadSpill, off, err)
	}
	dropResident(data)
	bf.maps = append(bf.maps, data)
	return payload, nil
}

// readBlock is mapBlock for a block its caller decodes or copies at once
// (a snapshot's meta block and offset table): it reads the block into a
// heap buffer instead, so no mapping is made and no page is read twice. The
// payload is 8-byte aligned.
func (bf *blockFile) readBlock(off int64, kind byte, plen int64) ([]byte, error) {
	if err := bf.checkBounds(off, plen); err != nil {
		return nil, err
	}
	data, err := readRange(bf.f, off, blockHdrSize+plen)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpill, err)
	}
	payload, err := blockPayload(data, 0, kind, plen)
	if err != nil {
		return nil, fmt.Errorf("%w: block at %d: %v", ErrBadSpill, off, err)
	}
	return payload, nil
}

// checkBounds reports ErrBadSpill unless the file holds a whole block with a
// plen-byte payload at off. It runs before anything is mapped (touching a
// mapped page past EOF faults) or allocated, so a truncated or corrupted
// file surfaces as ErrBadSpill instead of a fault or a huge buffer.
func (bf *blockFile) checkBounds(off, plen int64) error {
	fi, err := bf.f.Stat()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadSpill, err)
	}
	if size := fi.Size(); off < 0 || plen < 0 || off > size-blockHdrSize || plen > size-blockHdrSize-off {
		return fmt.Errorf("%w: block [%d,+%d) outside %d-byte file", ErrBadSpill, off, blockHdrSize+plen, size)
	}
	return nil
}

// readRange reads [off, off+length) of f into a heap buffer backed by
// []uint64, so a payload at a 64-byte offset in it keeps the alignment the
// in-place casts rely on.
func readRange(f *os.File, off, length int64) ([]byte, error) {
	words := make([]uint64, (length+7)/8)
	data := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), length)
	if _, err := f.ReadAt(data, off); err != nil {
		return nil, fmt.Errorf("read [%d,+%d): %v", off, length, err)
	}
	return data, nil
}

// blockPayload validates the block at data[off:], which must hold its
// header and plen payload bytes — the header carries the magic, kind and
// payload length plen, and the payload matches its CRC32C (which catches
// silent bit rot, not just clobbered headers or truncation) — and returns
// the payload aliasing data. Nothing is cast or trusted before every check
// has passed.
func blockPayload(data []byte, off int64, kind byte, plen int64) ([]byte, error) {
	hdr := data[off : off+blockHdrSize]
	if got := binary.LittleEndian.Uint32(hdr[0:]); got != snapMagic {
		return nil, fmt.Errorf("magic %#x, want %#x", got, snapMagic)
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

// close releases every mapping and the map handle. It must only run once no
// slice aliasing a mapping can be reached — the finalizer path, or test
// teardown of a store that is done.
func (bf *blockFile) close() error {
	runtime.SetFinalizer(bf, nil)
	for _, m := range bf.maps {
		unmapRange(m)
	}
	bf.maps = nil
	var err error
	if bf.f != nil {
		err = bf.f.Close()
	}
	if bf.remove {
		os.Remove(bf.path)
	}
	return err
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
