package graph

import (
	"bufio"
	"encoding/binary"
	"io"
	"math"
)

// This file is the one place that knows how numeric graph sections get on and
// off disk: WriteMapped streams the .sasg sections out through sectionWriter,
// and hosts that cannot map the file decode them back through sectionReader,
// so both directions share chunking and little-endian encoding.

const (
	// ioBufBytes sizes the bufio layer of every binary graph path.
	ioBufBytes = 1 << 20
	// ioScratchBytes sizes the encode/decode chunk scratch.
	ioScratchBytes = 1 << 16
)

// sectionWriter streams numeric arrays little-endian through one shared
// scratch buffer, tracking the running byte offset so format writers can pad
// sections out to an alignment boundary.
type sectionWriter struct {
	w   *bufio.Writer
	buf []byte
	off int64 // bytes written so far
}

func newSectionWriter(w io.Writer) *sectionWriter {
	return &sectionWriter{w: bufio.NewWriterSize(w, ioBufBytes), buf: make([]byte, ioScratchBytes)}
}

func (sw *sectionWriter) bytes(b []byte) error {
	n, err := sw.w.Write(b)
	sw.off += int64(n)
	return err
}

func (sw *sectionWriter) u32s(xs []uint32) error {
	for len(xs) > 0 {
		k := min(len(xs), len(sw.buf)/4)
		for i := 0; i < k; i++ {
			binary.LittleEndian.PutUint32(sw.buf[i*4:], xs[i])
		}
		if err := sw.bytes(sw.buf[:k*4]); err != nil {
			return err
		}
		xs = xs[k:]
	}
	return nil
}

func (sw *sectionWriter) f32s(xs []float32) error {
	for len(xs) > 0 {
		k := min(len(xs), len(sw.buf)/4)
		for i := 0; i < k; i++ {
			binary.LittleEndian.PutUint32(sw.buf[i*4:], math.Float32bits(xs[i]))
		}
		if err := sw.bytes(sw.buf[:k*4]); err != nil {
			return err
		}
		xs = xs[k:]
	}
	return nil
}

func (sw *sectionWriter) i64s(xs []int64) error {
	for len(xs) > 0 {
		k := min(len(xs), len(sw.buf)/8)
		for i := 0; i < k; i++ {
			binary.LittleEndian.PutUint64(sw.buf[i*8:], uint64(xs[i]))
		}
		if err := sw.bytes(sw.buf[:k*8]); err != nil {
			return err
		}
		xs = xs[k:]
	}
	return nil
}

// padTo writes zero bytes until the running offset is a multiple of align.
func (sw *sectionWriter) padTo(align int64) error {
	rem := sw.off % align
	if rem == 0 {
		return nil
	}
	var zeros [sasgAlign]byte
	return sw.bytes(zeros[:align-rem])
}

func (sw *sectionWriter) flush() error { return sw.w.Flush() }

// sectionReader is the decoding twin: chunked little-endian reads.
type sectionReader struct {
	r   *bufio.Reader
	buf []byte
}

// newSectionReader sizes its buffers for a stream of size bytes, so decoding
// a small file never allocates much more than the file holds.
func newSectionReader(r io.Reader, size int64) *sectionReader {
	b := int(min(max(size, sasgAlign), ioBufBytes))
	return &sectionReader{r: bufio.NewReaderSize(r, b), buf: make([]byte, min(b, ioScratchBytes))}
}

// readLE fills xs with little-endian elements of width bytes each.
func readLE[T any](sr *sectionReader, xs []T, width int, decode func([]byte) T) error {
	for len(xs) > 0 {
		k := min(len(xs), len(sr.buf)/width)
		if _, err := io.ReadFull(sr.r, sr.buf[:k*width]); err != nil {
			return err
		}
		for i := 0; i < k; i++ {
			xs[i] = decode(sr.buf[i*width:])
		}
		xs = xs[k:]
	}
	return nil
}

func (sr *sectionReader) u32s(xs []uint32) error {
	return readLE(sr, xs, 4, binary.LittleEndian.Uint32)
}

func (sr *sectionReader) f32s(xs []float32) error {
	return readLE(sr, xs, 4, func(b []byte) float32 { return math.Float32frombits(binary.LittleEndian.Uint32(b)) })
}

func (sr *sectionReader) i64s(xs []int64) error {
	return readLE(sr, xs, 8, func(b []byte) int64 { return int64(binary.LittleEndian.Uint64(b)) })
}
