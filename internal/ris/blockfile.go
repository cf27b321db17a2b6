package ris

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"

	"stopandstare/internal/mapfile"
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
// Payloads are raw host-order slice images (mapfile.Bytes and mapfile.Cast):
// both files are per-host state, never an interchange format.
//
// A block file has three operations: append, which writes a block through a
// SnapshotFile; mapBlock, which maps one block (mapfile.Map), validates it,
// drops its pages from the resident set and hands out its payload; and
// readBlock, which validates a block read into the heap. A mapping lives
// until the whole file closes, from its finalizer once the store holding the
// file is unreachable, so no reader faults on an unmapped page. A graph
// unmaps at an explicit Close instead; a block file can leave it to the
// collector because every slice aliasing a block hangs off the segment
// that holds the file, and stores have no Close.

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

// mapBlock maps the block at off, validates it against kind and payload
// length plen, and returns the payload aliasing the mapping. Once validated,
// the mapping's pages leave the resident set (mapfile.DropResident): they
// stay in the page cache and fault back in only when a query reads them.
func (bf *blockFile) mapBlock(off int64, kind byte, plen int64) ([]byte, error) {
	data, payload, err := bf.block(mapfile.Map, off, kind, plen)
	switch {
	case err == nil:
		mapfile.DropResident(data)
		bf.maps = append(bf.maps, data)
	case data != nil:
		mapfile.Unmap(data)
	}
	return payload, err
}

// readBlock is mapBlock for a block its caller decodes or copies at once
// (a snapshot's meta block and offset table): it reads the block into the
// heap instead (mapfile.Read), so no page is read twice.
func (bf *blockFile) readBlock(off int64, kind byte, plen int64) ([]byte, error) {
	_, payload, err := bf.block(mapfile.Read, off, kind, plen)
	return payload, err
}

// block gets the block at off with get and checks its magic, kind, payload
// length plen and CRC32C, returning its bytes (also when they fail, so a
// mapping can be released) and its payload. The file's size is checked
// before anything is mapped or allocated, so a truncated or corrupt file is
// ErrBadSpill, never a fault past EOF or a huge buffer.
func (bf *blockFile) block(get func(*os.File, int64, int64) ([]byte, error), off int64, kind byte, plen int64) (data, payload []byte, err error) {
	fi, err := bf.f.Stat()
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadSpill, err)
	}
	if size := fi.Size(); off < 0 || plen < 0 || off > size-blockHdrSize || plen > size-blockHdrSize-off {
		return nil, nil, fmt.Errorf("%w: block [%d,+%d) outside %d-byte file", ErrBadSpill, off, blockHdrSize+plen, size)
	}
	if data, err = get(bf.f, off, blockHdrSize+plen); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadSpill, err)
	}
	hdr, payload := data[:blockHdrSize], data[blockHdrSize:]
	magic, n, crc := binary.LittleEndian.Uint32(hdr), int64(binary.LittleEndian.Uint64(hdr[8:])), binary.LittleEndian.Uint32(hdr[16:])
	switch {
	case magic != snapMagic:
		err = fmt.Errorf("magic %#x, want %#x", magic, snapMagic)
	case hdr[4] != kind:
		err = fmt.Errorf("kind %d, want %d", hdr[4], kind)
	case n != plen:
		err = fmt.Errorf("payload length %d, want %d", n, plen)
	case crc32.Checksum(payload, castagnoli) != crc:
		err = fmt.Errorf("checksum differs from the header's %#x", crc)
	default:
		return data, payload, nil
	}
	return data, nil, fmt.Errorf("%w: block at %d: %v", ErrBadSpill, off, err)
}

// close releases every mapping and the map handle. It must only run once no
// slice aliasing a mapping can be reached — the finalizer path, or test
// teardown of a store that is done.
func (bf *blockFile) close() error {
	runtime.SetFinalizer(bf, nil)
	for _, m := range bf.maps {
		mapfile.Unmap(m)
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
