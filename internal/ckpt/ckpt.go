// Package ckpt is the byte-level serialisation layer under machine
// checkpoints (DESIGN.md §13). It is a dependency-free little-endian
// writer/reader pair over flat byte slices, built for two consumers with
// opposite trust models:
//
//   - Encoders (Writer) serialise live simulator state the process itself
//     produced; they never fail.
//   - Decoders (Reader) parse bytes that may come from disk and may be
//     truncated or corrupt. Every read is bounds-checked, every slice
//     allocation is capped by the bytes actually remaining, and a failed
//     read latches an error and yields zero values — so decode code can
//     read an entire structure straight through and check Err() once,
//     and a fuzzer cannot provoke a panic or an outsized allocation.
package ckpt

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Writer accumulates little-endian encoded values. The zero value is ready
// to use.
type Writer struct {
	buf []byte
}

// Bytes returns the accumulated encoding.
func (w *Writer) Bytes() []byte { return w.buf }

// Reserve pre-sizes the buffer for at least n more bytes. Encoders that
// produce multi-megabyte payloads repeatedly (the sampling fast-forward
// checkpoints every few million cycles) call this with the previous
// payload's size so appends don't re-copy the buffer log₂(size) times.
func (w *Writer) Reserve(n int) {
	if cap(w.buf)-len(w.buf) >= n {
		return
	}
	grown := make([]byte, len(w.buf), len(w.buf)+n)
	copy(grown, w.buf)
	w.buf = grown
}

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a bool as one byte (0 or 1).
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// I32 appends a little-endian int32 (two's complement).
func (w *Writer) I32(v int32) { w.U32(uint32(v)) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// F64 appends a float64 as its IEEE-754 bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Raw appends b verbatim (length not recorded; the reader must know it).
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Blob appends a u32 length prefix followed by b.
func (w *Writer) Blob(b []byte) {
	w.U32(uint32(len(b)))
	w.Raw(b)
}

// Str appends a u32 length prefix followed by the string bytes.
func (w *Writer) Str(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Reader decodes values written by Writer. After any failed read the
// reader is poisoned: every subsequent read returns zero values and Err()
// reports the first failure with its byte offset.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a reader over data.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of undecoded bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// fail latches the first error.
func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("ckpt: truncated %s at offset %d (%d bytes remain)",
			what, r.off, len(r.buf)-r.off)
	}
}

// Corrupt lets a decoder latch a semantic error (bad magic, impossible
// count) through the same poisoning channel as truncation.
func (r *Reader) Corrupt(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("ckpt: "+format, args...)
	}
}

// take returns the next n bytes, or nil after poisoning the reader.
func (r *Reader) take(n int, what string) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.buf) {
		r.fail(what)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1, "u8")
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads one byte as a bool; any nonzero value is true.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4, "u32")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// I32 reads a little-endian int32.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8, "u64")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// F64 reads a float64 bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Raw reads exactly n bytes. The returned slice aliases the input buffer;
// copy it if it must outlive the reader's data.
func (r *Reader) Raw(n int) []byte { return r.take(n, "raw bytes") }

// Blob reads a u32 length prefix and that many bytes. The length is
// validated against the bytes actually remaining before any allocation
// decision, so a lying prefix cannot force an outsized copy.
func (r *Reader) Blob() []byte {
	n := int(r.U32())
	return r.take(n, "blob")
}

// Str reads a u32 length prefix and that many bytes as a string.
func (r *Reader) Str() string { return string(r.Blob()) }

// Count reads a u32 element count and validates it against the remaining
// bytes assuming each element occupies at least minElemBytes — the guard
// that keeps `make([]T, count)` honest against corrupt input.
func (r *Reader) Count(minElemBytes int) int { return r.count(uint64(r.U32()), minElemBytes) }

// Count64 is Count for a u64 element count.
func (r *Reader) Count64(minElemBytes int) int { return r.count(r.U64(), minElemBytes) }

func (r *Reader) count(n uint64, minElemBytes int) int {
	if r.err != nil {
		return 0
	}
	if minElemBytes < 1 {
		minElemBytes = 1
	}
	if n > uint64(r.Remaining()/minElemBytes) {
		r.Corrupt("element count %d exceeds remaining %d bytes (min elem %d)",
			n, r.Remaining(), minElemBytes)
		return 0
	}
	return int(n)
}
