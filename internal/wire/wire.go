// Package wire is the binary encoding the persisted formats share (the
// profiler's ENTKPROF dump and the ENTKCKPT checkpoint): little-endian
// integers, strings as a u32 length plus their bytes, and capped counts.
// A Writer or Reader keeps its first error and every later call does
// nothing (a Reader's then read as zero), so a format is a plain list of
// fields; a loop over a count must stop once Err is set.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Writer buffers an encoding onto an io.Writer.
type Writer struct {
	bw      *bufio.Writer
	out     counter
	err     error
	scratch [8]byte
}

// counter counts the bytes that reach w, so a format's io.WriterTo can
// report them across the buffer even on a partial failure.
type counter struct {
	w io.Writer
	n int64
}

func (c *counter) Write(p []byte) (int, error) {
	m, err := c.w.Write(p)
	c.n += int64(m)
	return m, err
}

// NewWriter returns a Writer onto w.
func NewWriter(w io.Writer) *Writer {
	x := &Writer{out: counter{w: w}}
	x.bw = bufio.NewWriter(&x.out)
	return x
}

// Bytes writes p as it is, with no length.
func (w *Writer) Bytes(p []byte) {
	if w.err == nil {
		_, w.err = w.bw.Write(p)
	}
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) {
	w.scratch[0] = v
	w.Bytes(w.scratch[:1])
}

// U32 writes v in four little-endian bytes.
func (w *Writer) U32(v uint32) {
	binary.LittleEndian.PutUint32(w.scratch[:], v)
	w.Bytes(w.scratch[:4])
}

// U64 writes v in eight little-endian bytes.
func (w *Writer) U64(v uint64) {
	binary.LittleEndian.PutUint64(w.scratch[:], v)
	w.Bytes(w.scratch[:8])
}

// String writes s as its u32 length and then its bytes.
func (w *Writer) String(s string) {
	if w.U32(uint32(len(s))); w.err == nil {
		_, w.err = w.bw.WriteString(s)
	}
}

// Flush writes out what is buffered. It returns the bytes that have
// reached the underlying writer and the Writer's first error.
func (w *Writer) Flush() (int64, error) {
	if w.err == nil {
		w.err = w.bw.Flush()
	}
	return w.out.n, w.err
}

// Reader decodes from a buffered io.Reader. Nothing it reads sizes an
// allocation beyond the caps its format gives.
type Reader struct {
	br        *bufio.Reader
	n         int64
	err       error
	prefix    string // begins the errors the Reader makes itself
	maxString uint32
	scratch   [8]byte
	buf       []byte // String's bytes, reused
}

// NewReader returns a Reader of r whose strings are at most maxString
// bytes. prefix begins the errors for a string or count over its cap.
// A *bufio.Reader is read as it is, not buffered again.
func NewReader(r io.Reader, prefix string, maxString uint32) *Reader {
	return &Reader{br: bufio.NewReader(r), prefix: prefix, maxString: maxString}
}

// Err returns the Reader's first error.
func (r *Reader) Err() error { return r.err }

// N returns the bytes read so far.
func (r *Reader) N() int64 { return r.n }

// Read reads the stream on from where the decoding stands, so a format
// can hand the rest of it to another reader. It implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	m, err := r.br.Read(p)
	r.n += int64(m)
	return m, err
}

// Bytes fills p from the stream.
func (r *Reader) Bytes(p []byte) {
	if r.err == nil {
		m, err := io.ReadFull(r.br, p)
		r.n += int64(m)
		r.err = err
	}
	if r.err != nil {
		clear(p)
	}
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	r.Bytes(r.scratch[:1])
	return r.scratch[0]
}

// U32 reads four little-endian bytes.
func (r *Reader) U32() uint32 {
	r.Bytes(r.scratch[:4])
	return binary.LittleEndian.Uint32(r.scratch[:])
}

// U64 reads eight little-endian bytes.
func (r *Reader) U64() uint64 {
	r.Bytes(r.scratch[:8])
	return binary.LittleEndian.Uint64(r.scratch[:])
}

// String reads a u32 length and that many bytes. A length over the cap
// fails the Reader before anything is allocated.
func (r *Reader) String() string {
	length := r.U32()
	if length > r.maxString {
		r.err = fmt.Errorf("%s string length %d exceeds cap %d (corrupt?)", r.prefix, length, r.maxString)
	}
	if r.err != nil || length == 0 {
		return ""
	}
	if cap(r.buf) < int(length) {
		r.buf = make([]byte, length)
	}
	b := r.buf[:length]
	if r.Bytes(b); r.err != nil {
		return ""
	}
	return string(b)
}

// Count reads a u32 count of what. A count over max fails the Reader and
// reads as 0. A count sizes nothing: a loop over it appends its entries
// as they arrive.
func (r *Reader) Count(max uint32, what string) int {
	n := r.U32()
	if n > max {
		r.err = fmt.Errorf("%s %s count %d exceeds cap %d (corrupt?)", r.prefix, what, n, max)
		return 0
	}
	return int(n)
}
