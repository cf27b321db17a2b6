package graph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"stopandstare/internal/mapfile"
)

// The .sasg ("Stop-And-Stare Graph") format is the one on-disk binary graph
// format, and the file IS the graph's memory layout. The graph is its two
// CSRs — forward and reverse offset tables, adjacency and weights — and each
// of those six arrays is a 64-byte-aligned little-endian section; nothing
// derived from them is stored. On a little-endian host OpenMapped maps the
// file read-only through internal/mapfile (the layer spill and snapshot
// blocks use too), casts the sections in place, and returns a working graph
// in O(1) regardless of edge count. Pages fault in on first touch and are
// shared by every process that mapped the same file; without mmap, mapfile
// reads the image onto the heap and the same casts run on it. A big-endian
// host decodes the sections onto the heap instead. WriteMappedFile replaces
// a file atomically (mapfile.WriteFile), so a graph that has the file mapped
// never sees it change.
//
// Layout (all fields little-endian):
//
//	off   size  field
//	0     4     magic "SASG"
//	4     4     version (currently 2)
//	8     4     endian tag 0x01020304 (raw byte order probe)
//	12    4     reserved (0)
//	16    8     n, node count (uint64)
//	24    8     m, edge count (uint64)
//	32    96    section table: 6 × {byte offset uint64, byte length uint64}
//	128   64    zero padding to the 192-byte header boundary
//	192   ...   sections, each starting on a 64-byte boundary
//
// Sections, in canonical order (offsets in the table must match the packed
// 64-byte-aligned layout exactly — the table is a validation cross-check and
// a format-evolution hook, not a free-placement mechanism):
//
//	0  outIdx  (n+1)×int64     forward CSR offsets
//	1  outAdj  m×uint32        forward adjacency
//	2  outW    m×float32       forward edge weights
//	3  inIdx   (n+1)×int64     reverse CSR offsets
//	4  inAdj   m×uint32        reverse adjacency
//	5  inW     m×float32       reverse edge weights
//
// A file is 192 + 16(n+1) + 16m bytes plus at most 5×63 bytes of alignment
// padding. Any other version, such as version 1 with its two derived LT
// sections, is rejected with ErrBadMapped; regenerate such files with imgen.
//
// Both opens perform structural validation only (magic, version, byte
// order, count overflow, table alignment/length/placement, CSR endpoint
// sums): validating content would force every page and defeat the O(1)
// open. Content is checked once per graph at first use, by passes that
// read it anyway: the reverse sections in the sampling plan compile
// (internal/ris), the forward ones in CheckForward. See ErrBadContent.
const (
	sasgMagic       = 0x47534153 // "SASG" little-endian
	sasgVersion     = 2
	sasgEndianTag   = 0x01020304
	sasgAlign       = 64
	sasgHeaderBytes = 192
	sasgNumSections = 6
)

// ErrBadMapped reports a corrupt, foreign or unsupported .sasg file.
var ErrBadMapped = errors.New("graph: bad mapped graph (.sasg) file")

// hostLittleEndian reports whether this machine stores integers in the
// byte order the mapped sections are cast with. The format is defined
// little-endian; big-endian hosts decode it instead of mapping it.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// sasgSection is one entry of the section table.
type sasgSection struct {
	off uint64 // byte offset from the start of the file
	len uint64 // byte length (unpadded)
}

// sasgLayout computes the canonical packed section layout for (n, m):
// sections in canonical order, each starting at the next 64-byte boundary
// after its predecessor. Returns the table and the total file size.
// Counts must already be overflow-checked (sasgCheckCounts).
func sasgLayout(n, m uint64) ([sasgNumSections]sasgSection, uint64) {
	lens := [sasgNumSections]uint64{
		(n + 1) * 8, // outIdx
		m * 4,       // outAdj
		m * 4,       // outW
		(n + 1) * 8, // inIdx
		m * 4,       // inAdj
		m * 4,       // inW
	}
	var secs [sasgNumSections]sasgSection
	off := uint64(sasgHeaderBytes)
	var end uint64
	for i, l := range lens {
		secs[i] = sasgSection{off: off, len: l}
		end = off + l
		off = end
		if rem := off % sasgAlign; rem != 0 {
			off += sasgAlign - rem
		}
	}
	// The file ends where the last section's data ends — no trailing pad.
	return secs, end
}

// sasgCheckCounts rejects node/edge counts that would overflow slice lengths
// or the uint64 layout arithmetic on this platform (int is 32-bit on 386).
func sasgCheckCounts(n, m uint64) error {
	if n == 0 {
		return fmt.Errorf("%w: zero nodes", ErrBadMapped)
	}
	// Each section length is at most max(n+1, m)×8 bytes and must fit an
	// int (slice length in elements is smaller still).
	if n > math.MaxInt/8-1 {
		return fmt.Errorf("%w: node count %d overflows this platform", ErrBadMapped, n)
	}
	if m > math.MaxInt/8 {
		return fmt.Errorf("%w: edge count %d overflows this platform", ErrBadMapped, m)
	}
	return nil
}

// WriteMapped writes the graph in the mmap-able .sasg format. The writer
// streams the sections out; it never builds the padded image in memory.
func (g *Graph) WriteMapped(w io.Writer) error {
	n, m := uint64(g.n), uint64(len(g.outAdj))
	if err := sasgCheckCounts(n, m); err != nil {
		return err
	}
	secs, _ := sasgLayout(n, m)
	var hdr [sasgHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:], sasgMagic)
	binary.LittleEndian.PutUint32(hdr[4:], sasgVersion)
	binary.LittleEndian.PutUint32(hdr[8:], sasgEndianTag)
	binary.LittleEndian.PutUint64(hdr[16:], n)
	binary.LittleEndian.PutUint64(hdr[24:], m)
	for i, s := range secs {
		binary.LittleEndian.PutUint64(hdr[32+16*i:], s.off)
		binary.LittleEndian.PutUint64(hdr[40+16*i:], s.len)
	}
	sw := newSectionWriter(w)
	if err := sw.bytes(hdr[:]); err != nil {
		return err
	}
	write := []func() error{
		func() error { return sw.i64s(g.outIdx) },
		func() error { return sw.u32s(g.outAdj) },
		func() error { return sw.f32s(g.outW) },
		func() error { return sw.i64s(g.inIdx) },
		func() error { return sw.u32s(g.inAdj) },
		func() error { return sw.f32s(g.inW) },
	}
	for i, fn := range write {
		if err := sw.padTo(sasgAlign); err != nil {
			return err
		}
		if sw.off != int64(secs[i].off) {
			return fmt.Errorf("graph: internal error: section %d at offset %d, layout says %d", i, sw.off, secs[i].off)
		}
		if err := fn(); err != nil {
			return err
		}
	}
	return sw.flush()
}

// WriteMappedFile writes the .sasg format to path atomically
// (mapfile.WriteFile): a new file is written, synced and renamed over path,
// so a graph that has path open keeps its own bytes, and a failed write
// leaves path as it was.
func (g *Graph) WriteMappedFile(path string) error {
	return mapfile.WriteFile(path, g.WriteMapped)
}

// parseSasgHeader validates the header and section table of a .sasg image of
// fileSize bytes, returning the node/edge counts and the section table.
// Every structural failure mode — foreign magic, unsupported version or byte
// order, count overflow, a misaligned or misplaced table entry, a section
// length that disagrees with the counts, a file truncated mid-section —
// yields an error wrapping ErrBadMapped.
func parseSasgHeader(hdr []byte, fileSize uint64) (n, m uint64, secs [sasgNumSections]sasgSection, err error) {
	fail := func(format string, args ...any) (uint64, uint64, [sasgNumSections]sasgSection, error) {
		return 0, 0, secs, fmt.Errorf("%w: %s", ErrBadMapped, fmt.Sprintf(format, args...))
	}
	if len(hdr) < sasgHeaderBytes {
		return fail("truncated header: %d bytes, want %d", len(hdr), sasgHeaderBytes)
	}
	if got := binary.LittleEndian.Uint32(hdr[0:]); got != sasgMagic {
		return fail("bad magic 0x%08x", got)
	}
	if got := binary.LittleEndian.Uint32(hdr[4:]); got != sasgVersion {
		return fail("unsupported version %d (this build reads version %d; regenerate the file with imgen)", got, sasgVersion)
	}
	if got := binary.LittleEndian.Uint32(hdr[8:]); got != sasgEndianTag {
		return fail("foreign byte order (endian tag 0x%08x)", got)
	}
	n = binary.LittleEndian.Uint64(hdr[16:])
	m = binary.LittleEndian.Uint64(hdr[24:])
	if err := sasgCheckCounts(n, m); err != nil {
		return 0, 0, secs, err
	}
	want, total := sasgLayout(n, m)
	if total > fileSize {
		return fail("truncated: file is %d bytes, layout for n=%d m=%d needs %d", fileSize, n, m, total)
	}
	for i := 0; i < sasgNumSections; i++ {
		secs[i] = sasgSection{
			off: binary.LittleEndian.Uint64(hdr[32+16*i:]),
			len: binary.LittleEndian.Uint64(hdr[40+16*i:]),
		}
		if secs[i].off%sasgAlign != 0 {
			return fail("section %d misaligned at offset %d (need %d-byte alignment)", i, secs[i].off, sasgAlign)
		}
		if secs[i].len != want[i].len {
			return fail("section %d length %d, want %d for n=%d m=%d", i, secs[i].len, want[i].len, n, m)
		}
		if secs[i].off != want[i].off {
			return fail("section %d at offset %d, canonical layout says %d", i, secs[i].off, want[i].off)
		}
		if secs[i].off > fileSize || secs[i].len > fileSize-secs[i].off {
			return fail("section %d [%d, +%d) extends past the %d-byte file", i, secs[i].off, secs[i].len, fileSize)
		}
	}
	return n, m, secs, nil
}

// OpenMapped opens a .sasg file. On a little-endian host the graph's arrays
// alias a read-only mapping of it (mapfile.Map), O(1) in the edge count, and
// held until the graph's Close; a big-endian host decodes them onto the heap.
func OpenMapped(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	g, err := openSasg(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// openSasg maps the .sasg file f of size bytes and casts its sections in
// place, or decodes them on a big-endian host.
func openSasg(f *os.File, size int64) (*Graph, error) {
	if size < sasgHeaderBytes || size > math.MaxInt {
		return nil, fmt.Errorf("%w: %d bytes, want from the %d-byte header to %d", ErrBadMapped, size, sasgHeaderBytes, math.MaxInt)
	}
	if !hostLittleEndian {
		return decodeSasg(f, size)
	}
	data, err := mapfile.Map(f, 0, size)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	g, err := graphFromMapped(data)
	if err != nil {
		mapfile.Unmap(data)
		return nil, err
	}
	if !mapfile.Resident { // the !unix fallback's image is a heap graph's
		g.mapping = data
	}
	return g, nil
}

// decodeSasg reads a .sasg image of size bytes from r into heap sections:
// the open for hosts that cannot alias the file in place. The header is
// checked against size before anything is allocated, so a header that
// claims more than the file holds costs nothing.
func decodeSasg(r io.Reader, size int64) (*Graph, error) {
	sr := newSectionReader(r, size)
	var hdr [sasgHeaderBytes]byte
	if _, err := io.ReadFull(sr.r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: reading header: %w", ErrBadMapped, err)
	}
	n, m, secs, err := parseSasgHeader(hdr[:], uint64(size))
	if err != nil {
		return nil, err
	}
	s := sections{
		outIdx: make([]int64, n+1),
		outAdj: make([]uint32, m),
		outW:   make([]float32, m),
		inIdx:  make([]int64, n+1),
		inAdj:  make([]uint32, m),
		inW:    make([]float32, m),
	}
	read := []func() error{
		func() error { return sr.i64s(s.outIdx) },
		func() error { return sr.u32s(s.outAdj) },
		func() error { return sr.f32s(s.outW) },
		func() error { return sr.i64s(s.inIdx) },
		func() error { return sr.u32s(s.inAdj) },
		func() error { return sr.f32s(s.inW) },
	}
	off := uint64(sasgHeaderBytes)
	for i, fn := range read {
		if _, err := sr.r.Discard(int(secs[i].off - off)); err != nil {
			return nil, fmt.Errorf("%w: section %d: %w", ErrBadMapped, i, err)
		}
		if err := fn(); err != nil {
			return nil, fmt.Errorf("%w: section %d: %w", ErrBadMapped, i, err)
		}
		off = secs[i].off + secs[i].len
	}
	if err := checkEndpoints(&s, n, m); err != nil {
		return nil, err
	}
	return newHeapGraph(int(n), s), nil
}

// graphFromMapped validates data (a complete .sasg image in memory at least
// 8-byte aligned, on a little-endian host) and builds the Graph whose
// sections alias it; the caller records data as the graph's mapping if it
// is one. No section data is read beyond the two CSR endpoints checked
// against m — opening stays O(1) in the edge count.
func graphFromMapped(data []byte) (*Graph, error) {
	n, m, secs, err := parseSasgHeader(data, uint64(len(data)))
	if err != nil {
		return nil, err
	}
	sec := func(i int) []byte { return data[secs[i].off : secs[i].off+secs[i].len] }
	s := sections{
		outIdx: mapfile.Cast[int64](sec(0)),
		outAdj: mapfile.Cast[uint32](sec(1)),
		outW:   mapfile.Cast[float32](sec(2)),
		inIdx:  mapfile.Cast[int64](sec(3)),
		inAdj:  mapfile.Cast[uint32](sec(4)),
		inW:    mapfile.Cast[float32](sec(5)),
	}
	if err := checkEndpoints(&s, n, m); err != nil {
		return nil, err
	}
	return &Graph{n: int(n), sections: s}, nil
}

// checkEndpoints is the cheap CSR sanity check both opens share: both offset
// tables must start at 0 and end at m. On a mapped graph it touches four
// pages and catches swapped or zeroed sections early.
func checkEndpoints(s *sections, n, m uint64) error {
	if s.outIdx[0] != 0 || s.inIdx[0] != 0 || s.outIdx[n] != int64(m) || s.inIdx[n] != int64(m) {
		return fmt.Errorf("%w: CSR offset tables disagree with edge count %d", ErrBadMapped, m)
	}
	return nil
}
