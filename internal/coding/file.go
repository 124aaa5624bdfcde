package coding

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// Files on disk, and frames on the wire. Every artifact that is written
// whole and read whole — DESIGN.md "Files on disk" lists them — goes to
// disk through WriteFile and comes back through a Reader, so the integer
// framing, the checks on what is read and the way a file reaches its
// final name each exist once. A message that never touches disk (the
// router's partial leg) is the same framing over memory: NewBuffer and
// NewReader.

// fileBuf is the buffer either direction works through.
const fileBuf = 64 << 10

// Writer is what WriteFile hands its fill function, or, from NewBuffer,
// a frame being built in memory. Every primitive appends to buf; a file
// writer hands buf to the file whenever the next field would not fit it.
// Nothing returns early on a failed write: the first error is kept,
// nothing more reaches the file, and WriteFile reports the error when it
// flushes.
type Writer struct {
	buf     []byte    // not yet written to f; the whole frame when f is nil
	f       io.Writer // nil for a Writer over memory
	flushed int64     // bytes handed to f
	err     error     // the first failed write to f
}

// NewBuffer returns a Writer that appends to buf[:0] in memory; Bytes
// returns what it holds.
func NewBuffer(buf []byte) *Writer { return &Writer{buf: buf[:0]} }

// Bytes returns what a Writer over memory holds.
func (w *Writer) Bytes() []byte { return w.buf }

// WriteFile creates path with what fill writes, or leaves path as it was:
// the bytes go to path+".tmp" (beside the target, so the rename never
// crosses a file system), are flushed and closed, and only then renamed
// over path. On any failure — fill's own error included — the temporary
// file is removed.
func WriteFile(path string, fill func(w *Writer) error) (err error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close() // a second Close on the late paths is harmless
			os.Remove(tmp)
		}
	}()
	w := &Writer{buf: make([]byte, 0, fileBuf), f: f}
	if err = fill(w); err != nil {
		return err
	}
	if w.flush(); w.err != nil {
		return w.err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// flush hands buf to the file (once nothing has failed) and empties it.
func (w *Writer) flush() {
	if w.err == nil {
		_, w.err = w.f.Write(w.buf)
	}
	w.flushed += int64(len(w.buf))
	w.buf = w.buf[:0]
}

// room makes a fixed-size field fit a file writer's buffer without
// growing it.
func (w *Writer) room() {
	if w.f != nil && len(w.buf)+binary.MaxVarintLen64 > cap(w.buf) {
		w.flush()
	}
}

// put appends p, handing a file writer's buffer to the file each time it
// fills.
func put[T string | []byte](w *Writer, p T) {
	for w.f != nil && len(w.buf)+len(p) > cap(w.buf) {
		n := copy(w.buf[len(w.buf):cap(w.buf)], p)
		w.buf = w.buf[:len(w.buf)+n]
		p = p[n:]
		w.flush()
	}
	w.buf = append(w.buf, p...)
}

// Write appends raw bytes; it makes a Writer an io.Writer for the text
// and gzip artifacts.
func (w *Writer) Write(p []byte) (int, error) {
	put(w, p)
	return len(p), w.err
}

// Offset reports the bytes written so far: where the next one lands.
func (w *Writer) Offset() int64 { return w.flushed + int64(len(w.buf)) }

// Uvarint appends v in the base-128 encoding of encoding/binary.
func (w *Writer) Uvarint(v uint64) { w.room(); w.buf = binary.AppendUvarint(w.buf, v) }

// Varint appends v zig-zag coded, as encoding/binary does.
func (w *Writer) Varint(v int64) { w.room(); w.buf = binary.AppendVarint(w.buf, v) }

// Str appends s behind its uvarint length.
func (w *Writer) Str(s string) {
	w.Uvarint(uint64(len(s)))
	put(w, s)
}

// U32 appends v as four little-endian bytes.
func (w *Writer) U32(v uint32) { w.room(); w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends v as eight little-endian bytes.
func (w *Writer) U64(v uint64) { w.room(); w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// Reader reads a file WriteFile wrote, or bytes that claim to be one —
// from disk (OpenFile) or from memory (NewReader).
// The first failure — an I/O error, a field the file ends inside, a
// check a value does not pass — is kept with the byte offset it happened
// at; every call after it returns zero and reads nothing, so a parser
// reads its fields straight through and asks Err where a value is about
// to size or index something, and once at the end. Nothing is allocated
// in proportion to a number the file states before that number has been
// held against the bytes the file still has.
type Reader struct {
	f        *os.File // nil for a Reader over memory
	src      string   // a Reader over memory: its bytes, as the strings it returns are cut from
	size     int64
	buf      []byte // buf[pos:end] is read from f and not yet consumed
	pos, end int
	rest     int64 // bytes of f after buf[end]
	err      error
}

// NewReader reads b. The bytes are converted to a string once, here, and
// every Str and Raw is a substring of it: no allocation a field.
func NewReader(b []byte) *Reader {
	return &Reader{src: string(b), size: int64(len(b)), buf: b, end: len(b)}
}

// OpenFile opens path for reading from its first byte.
func OpenFile(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := fi.Size()
	return &Reader{f: f, size: size, buf: make([]byte, min(size, fileBuf)), rest: size}, nil
}

// Close releases the file.
func (r *Reader) Close() error { return r.f.Close() }

// Err returns the first failure, nil while there has been none.
func (r *Reader) Err() error { return r.err }

// left counts the bytes not yet consumed.
func (r *Reader) left() int64 { return int64(r.end-r.pos) + r.rest }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("byte %d: %s", r.size-r.left(), fmt.Sprintf(format, args...))
	}
}

// peek returns the unconsumed bytes of the buffer, topped up from the
// file until there are n of them (n at most the buffer's size) or the
// file is exhausted; none once the reader has failed.
func (r *Reader) peek(n int) []byte {
	if r.end-r.pos < n && r.rest > 0 && r.err == nil {
		r.end = copy(r.buf, r.buf[r.pos:r.end])
		r.pos = 0
		m, err := io.ReadFull(r.f, r.buf[r.end:r.end+int(min(int64(len(r.buf)-r.end), r.rest))])
		r.end += m
		r.rest -= int64(m)
		if err != nil {
			r.fail("%v", err)
		}
	}
	if r.err != nil {
		return nil
	}
	return r.buf[r.pos:r.end]
}

// Uvarint reads what Writer.Uvarint wrote.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.peek(binary.MaxVarintLen64))
	if n <= 0 {
		r.fail("the file ends inside a varint, or the varint overflows 64 bits")
		return 0
	}
	r.pos += n
	return v
}

// Varint reads what Writer.Varint wrote.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// narrow is the one checked narrowing: a value that does not fit the
// field it was read for is refused, not truncated.
func narrow[T int32 | uint8](r *Reader, v int64) T {
	if int64(T(v)) != v {
		r.fail("%d does not fit its %T field", v, T(0))
		return 0
	}
	return T(v)
}

// Int32 reads a varint that must fit an int32.
func (r *Reader) Int32() int32 { return narrow[int32](r, r.Varint()) }

// Uint8 reads a uvarint that must fit a byte; one of 2^63 or more turns
// negative on the way in and fits nothing.
func (r *Reader) Uint8() uint8 { return narrow[uint8](r, int64(r.Uvarint())) }

// Count reads the length prefix of a sequence whose elements take at
// least each bytes apiece: a count above bound, or one the rest of the
// file is too short to hold, is refused before anything is sized by it.
func (r *Reader) Count(bound, each int) int {
	v := r.Uvarint()
	if v > uint64(bound) {
		r.fail("count %d is above its bound %d", v, bound)
		return 0
	}
	if v > uint64(r.left())/uint64(each) {
		r.fail("count %d, at %d bytes each, needs more than the %d bytes left", v, each, r.left())
		return 0
	}
	return int(v)
}

// Step reads one gap of a strictly ascending run over [0, bound) and
// moves *last (-1 before the first value) across it; StepGap says which
// gaps it refuses, the zero a failed reader returns among them.
func (r *Reader) Step(last *int64, bound int64) bool {
	gap := r.Uvarint()
	next, ok := StepGap(*last, gap, bound)
	if !ok {
		r.fail("gap %d from %d repeats a value or leaves [0,%d)", gap, *last, bound)
		return false
	}
	*last = next
	return true
}

// Raw reads n bytes as they are.
func (r *Reader) Raw(n int) string {
	if int64(n) > r.left() {
		r.fail("a %d-byte field with %d bytes left", n, r.left())
		return ""
	}
	if r.f == nil {
		if r.err != nil {
			return ""
		}
		s := r.src[r.pos : r.pos+n]
		r.pos += n
		return s
	}
	var sb strings.Builder
	sb.Grow(n)
	for n > 0 {
		b := r.peek(1)
		if len(b) == 0 {
			r.fail("the file ends inside a field")
			return ""
		}
		b = b[:min(n, len(b))]
		sb.Write(b)
		r.pos += len(b)
		n -= len(b)
	}
	return sb.String()
}

// Str reads what Writer.Str wrote.
func (r *Reader) Str() string { return r.Raw(r.Count(math.MaxInt, 1)) }

// U64 reads what Writer.U64 wrote.
func (r *Reader) U64() uint64 {
	b := r.peek(8)
	if len(b) < 8 {
		r.fail("the file ends inside an 8-byte field")
		return 0
	}
	r.pos += 8
	return binary.LittleEndian.Uint64(b)
}

// End refuses bytes after the last field.
func (r *Reader) End() {
	if r.left() > 0 {
		r.fail("%d bytes after the last field", r.left())
	}
}
