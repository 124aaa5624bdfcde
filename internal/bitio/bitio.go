// Package bitio provides MSB-first bit-level readers and writers over
// in-memory byte buffers. It is the foundation for every compressed
// encoding in this repository (Elias codes, Huffman codes, RLE bit
// vectors, reference-encoded adjacency lists).
//
// Both Writer and Reader operate most-significant-bit first, so that a
// value written with WriteBits(v, n) occupies the same bit positions a
// human would write reading left to right. The zero value of Writer is
// an empty stream ready for use.
package bitio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// ErrOverrun is returned by Reader methods when a read extends past the
// end of the underlying stream.
var ErrOverrun = errors.New("bitio: read past end of stream")

// Writer accumulates bits into an in-memory buffer. Bits collect in a
// 64-bit accumulator, which goes to the buffer eight whole bytes at a
// time, so a field of any width is a shift and an or, and a unary run
// a word of zeros at a time. The zero value is ready to use.
type Writer struct {
	buf []byte
	acc uint64 // pending bits: the low n, the oldest highest; bits above them are stale and never read
	n   uint   // number of pending bits (0..63)
}

// NewWriter returns a Writer whose internal buffer has the given initial
// capacity in bytes.
func NewWriter(capBytes int) *Writer {
	return &Writer{buf: make([]byte, 0, capBytes)}
}

// Reset truncates the writer to an empty stream, retaining its buffer.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.acc = 0
	w.n = 0
}

// WriteBit appends a single bit (any non-zero b writes 1).
func (w *Writer) WriteBit(b uint) {
	var bit uint64
	if b != 0 {
		bit = 1
	}
	w.WriteBits(bit, 1)
}

// WriteBool appends a single bit from a bool.
func (w *Writer) WriteBool(b bool) {
	if b {
		w.WriteBit(1)
	} else {
		w.WriteBit(0)
	}
}

// WriteBits appends the n low-order bits of v, most significant first.
// n must be in [0, 64].
func (w *Writer) WriteBits(v uint64, n uint) {
	if n > 64 {
		panic(fmt.Sprintf("bitio: WriteBits n=%d > 64", n))
	}
	v &= 1<<n - 1 // a shift by 64 is 0, so n == 64 keeps every bit
	free := 64 - w.n
	if n < free {
		w.acc = w.acc<<n | v
		w.n += n
		return
	}
	// Fill the accumulator, write it out, and keep the bits left over
	// (fewer than 64: free is at least 1) as the low bits of v.
	rest := n - free
	w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc<<free|v>>rest)
	w.acc = v
	w.n = rest
}

// WriteUnary appends v in unary: v zero bits followed by a one bit.
func (w *Writer) WriteUnary(v uint64) {
	for ; v >= 64; v -= 64 {
		w.WriteBits(0, 64)
	}
	w.WriteBits(1, uint(v)+1)
}

// BitLen reports the total number of bits written so far.
func (w *Writer) BitLen() int {
	return len(w.buf)*8 + int(w.n)
}

// Bytes returns the written stream padded with zero bits to a byte
// boundary. The returned slice aliases the writer's buffer only when the
// stream happens to be byte-aligned; callers must not retain it across
// further writes.
func (w *Writer) Bytes() []byte {
	// Move the whole pending bytes to the buffer, leaving fewer than 8
	// bits in the accumulator.
	for ; w.n >= 8; w.n -= 8 {
		w.buf = append(w.buf, byte(w.acc>>(w.n-8)))
	}
	if w.n == 0 {
		return w.buf
	}
	out := make([]byte, len(w.buf)+1)
	copy(out, w.buf)
	out[len(w.buf)] = byte(w.acc << (8 - w.n))
	return out
}

// AppendTo appends the padded stream to dst and returns the extended
// slice, avoiding an intermediate allocation in Bytes.
func (w *Writer) AppendTo(dst []byte) []byte {
	dst = append(dst, w.buf...)
	if w.n == 0 {
		return dst
	}
	var tail [8]byte
	binary.BigEndian.PutUint64(tail[:], w.acc<<(64-w.n))
	return append(dst, tail[:(w.n+7)/8]...)
}

// Reader consumes bits MSB-first from a byte slice. Multi-bit reads go
// through a 64-bit big-endian window loaded at the current position, so
// a unary run is one leading-zero count and a fixed-width field one
// shift, whatever their length. The window is recomputed from pos on
// every read: there is no buffered state for Seek or Reset to
// invalidate. Bits at or past the stream length are never returned,
// even when the buffer holds non-zero bytes there.
type Reader struct {
	buf []byte
	pos int // bit position from start
	n   int // total bits available
}

// NewReader returns a Reader over buf. nBits limits the stream length in
// bits; pass len(buf)*8 (or use NewByteReader) when the whole slice is
// valid.
func NewReader(buf []byte, nBits int) *Reader {
	if nBits > len(buf)*8 {
		panic("bitio: nBits exceeds buffer")
	}
	return &Reader{buf: buf, n: nBits}
}

// NewByteReader returns a Reader over the whole of buf.
func NewByteReader(buf []byte) *Reader {
	return &Reader{buf: buf, n: len(buf) * 8}
}

// Reset repositions the reader over a new buffer.
func (r *Reader) Reset(buf []byte, nBits int) {
	r.buf = buf
	r.pos = 0
	r.n = nBits
}

// Pos reports the current bit offset from the start of the stream.
func (r *Reader) Pos() int { return r.pos }

// Remaining reports the number of unread bits.
func (r *Reader) Remaining() int { return r.n - r.pos }

// Seek positions the reader at an absolute bit offset.
func (r *Reader) Seek(bitPos int) error {
	if bitPos < 0 || bitPos > r.n {
		return ErrOverrun
	}
	r.pos = bitPos
	return nil
}

// WindowBits is how many bits of a window are always stream bits: the
// window starts at the byte holding pos, so up to 7 of its 64 bits lie
// before pos and are shifted out.
const WindowBits = 57

// Window returns the stream from the current position on, left-aligned:
// bit 63 is the next unread bit. At least WindowBits bits are buffer
// bits (zero-filled past the end of the buffer); the low Pos()&7 bits
// are shifted-in zeros. Nothing is consumed, and nothing says where the
// stream ends: a decoder works its code word out of the window and then
// asks Consume for the bits it used.
func (r *Reader) Window() uint64 {
	i := r.pos >> 3
	var w uint64
	if i+8 <= len(r.buf) {
		w = binary.BigEndian.Uint64(r.buf[i : i+8])
	} else {
		tail := r.buf[i:]
		for _, b := range tail {
			w = w<<8 | uint64(b)
		}
		w <<= 8 * uint(8-len(tail))
	}
	return w << uint(r.pos&7)
}

// Consume advances past the top n bits of the last Window and reports
// true, or consumes nothing and reports false when those n bits are not
// all stream bits: n is negative, exceeds WindowBits, or runs past the
// end of the stream. It is the one bounds test of a code word decoded
// from a window; on false the caller decodes the word again with
// ReadBits and ReadUnary, which say what is wrong with it.
func (r *Reader) Consume(n int) bool {
	if uint(n) > WindowBits || r.pos+n > r.n {
		return false
	}
	r.pos += n
	return true
}

// ReadBit reads a single bit.
func (r *Reader) ReadBit() (uint, error) {
	if r.pos >= r.n {
		return 0, ErrOverrun
	}
	b := r.buf[r.pos>>3] >> (7 - uint(r.pos&7)) & 1
	r.pos++
	return uint(b), nil
}

// ReadBool reads a single bit as a bool.
func (r *Reader) ReadBool() (bool, error) {
	b, err := r.ReadBit()
	return b != 0, err
}

// ReadBits reads n bits (n in [0,64]) and returns them as the low-order
// bits of the result.
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n > 64 {
		panic(fmt.Sprintf("bitio: ReadBits n=%d > 64", n))
	}
	if r.pos+int(n) > r.n {
		return 0, ErrOverrun
	}
	var hi uint64
	if n > WindowBits {
		// Wider than one window guarantees: take the top n-32 bits
		// first, then fall through for the low 32.
		hi = r.Window() >> (64 - (n - 32)) << 32
		r.pos += int(n - 32)
		n = 32
	}
	v := r.Window() >> (64 - n) // n == 0 shifts everything out
	r.pos += int(n)
	return hi | v, nil
}

// ReadUnary reads a unary-coded value: the count of zero bits before the
// next one bit.
func (r *Reader) ReadUnary() (uint64, error) {
	start := r.pos
	for r.pos < r.n {
		w := r.Window()
		if w != 0 {
			// The shifted-in low bits are zero, so the first one bit of
			// a non-zero window is a buffer bit; it may still lie past
			// the stream length.
			r.pos += bits.LeadingZeros64(w)
			if r.pos >= r.n {
				break
			}
			v := uint64(r.pos - start)
			r.pos++
			return v, nil
		}
		r.pos += 64 - r.pos&7 // all stream bits of the window were zero
	}
	r.pos = start
	return 0, ErrOverrun
}
