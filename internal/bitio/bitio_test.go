package bitio

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadSingleBits(t *testing.T) {
	w := NewWriter(4)
	pattern := []uint{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1}
	for _, b := range pattern {
		w.WriteBit(b)
	}
	if got := w.BitLen(); got != len(pattern) {
		t.Fatalf("BitLen = %d, want %d", got, len(pattern))
	}
	r := NewReader(w.Bytes(), w.BitLen())
	for i, want := range pattern {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("ReadBit %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("bit %d = %d, want %d", i, got, want)
		}
	}
	if _, err := r.ReadBit(); err != ErrOverrun {
		t.Fatalf("expected ErrOverrun past end, got %v", err)
	}
}

func TestWriteBitsRoundTrip(t *testing.T) {
	type item struct {
		v uint64
		n uint
	}
	items := []item{
		{0, 1}, {1, 1}, {5, 3}, {255, 8}, {256, 9},
		{0xDEADBEEF, 32}, {1<<64 - 1, 64}, {0, 0}, {42, 13},
	}
	w := NewWriter(0)
	for _, it := range items {
		w.WriteBits(it.v, it.n)
	}
	r := NewReader(w.Bytes(), w.BitLen())
	for i, it := range items {
		got, err := r.ReadBits(it.n)
		if err != nil {
			t.Fatalf("ReadBits item %d: %v", i, err)
		}
		if got != it.v {
			t.Fatalf("item %d: got %d, want %d", i, got, it.v)
		}
	}
}

func TestUnaryRoundTrip(t *testing.T) {
	vals := []uint64{0, 1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 100, 1000}
	w := NewWriter(0)
	for _, v := range vals {
		w.WriteUnary(v)
	}
	r := NewReader(w.Bytes(), w.BitLen())
	for i, want := range vals {
		got, err := r.ReadUnary()
		if err != nil {
			t.Fatalf("ReadUnary %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("unary %d: got %d, want %d", i, got, want)
		}
	}
}

func TestUnaryAtBoundary(t *testing.T) {
	// A unary value whose terminating 1 is the very last bit must decode.
	w := NewWriter(0)
	w.WriteUnary(23)
	r := NewReader(w.Bytes(), w.BitLen())
	got, err := r.ReadUnary()
	if err != nil || got != 23 {
		t.Fatalf("got %d, %v; want 23, nil", got, err)
	}
	// A run of zeros with no terminator must error, not loop.
	r2 := NewReader([]byte{0, 0}, 16)
	if _, err := r2.ReadUnary(); err != ErrOverrun {
		t.Fatalf("expected ErrOverrun, got %v", err)
	}
}

func TestMixedInterleaving(t *testing.T) {
	w := NewWriter(0)
	w.WriteBit(1)
	w.WriteBits(0x2A, 7)
	w.WriteUnary(5)
	w.WriteBool(true)
	w.WriteBits(0x1234, 16)

	r := NewReader(w.Bytes(), w.BitLen())
	if b, _ := r.ReadBit(); b != 1 {
		t.Fatal("first bit")
	}
	if v, _ := r.ReadBits(7); v != 0x2A {
		t.Fatalf("bits7 = %x", v)
	}
	if u, _ := r.ReadUnary(); u != 5 {
		t.Fatalf("unary = %d", u)
	}
	if b, _ := r.ReadBool(); !b {
		t.Fatal("bool")
	}
	if v, _ := r.ReadBits(16); v != 0x1234 {
		t.Fatalf("bits16 = %x", v)
	}
	if r.Remaining() != 0 {
		t.Fatalf("remaining = %d", r.Remaining())
	}
}

func TestSeekAndPos(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0xFF, 8)
	w.WriteBits(0x00, 8)
	w.WriteBits(0xAA, 8)
	r := NewReader(w.Bytes(), w.BitLen())
	if err := r.Seek(16); err != nil {
		t.Fatal(err)
	}
	if v, _ := r.ReadBits(8); v != 0xAA {
		t.Fatalf("after seek got %x", v)
	}
	if err := r.Seek(25); err != ErrOverrun {
		t.Fatalf("seek past end: %v", err)
	}
	if err := r.Seek(-1); err != ErrOverrun {
		t.Fatalf("seek negative: %v", err)
	}
}

func TestAppendToMatchesBytes(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0xABC, 12)
	got := w.AppendTo([]byte{0x99})
	want := append([]byte{0x99}, w.Bytes()...)
	if len(got) != len(want) {
		t.Fatalf("len mismatch %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("byte %d: %x vs %x", i, got[i], want[i])
		}
	}
}

func TestResetWriter(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0xFFFF, 16)
	w.Reset()
	if w.BitLen() != 0 {
		t.Fatalf("BitLen after reset = %d", w.BitLen())
	}
	w.WriteBit(1)
	r := NewReader(w.Bytes(), w.BitLen())
	if b, _ := r.ReadBit(); b != 1 {
		t.Fatal("write after reset lost")
	}
}

// Property: any sequence of (value, width) writes reads back identically.
func TestQuickWriteBitsRoundTrip(t *testing.T) {
	f := func(vals []uint64, widthsSeed int64) bool {
		rng := rand.New(rand.NewSource(widthsSeed))
		w := NewWriter(0)
		widths := make([]uint, len(vals))
		masked := make([]uint64, len(vals))
		for i, v := range vals {
			n := uint(rng.Intn(64) + 1)
			widths[i] = n
			if n < 64 {
				masked[i] = v & (1<<n - 1)
			} else {
				masked[i] = v
			}
			w.WriteBits(masked[i], n)
		}
		r := NewReader(w.Bytes(), w.BitLen())
		for i := range vals {
			got, err := r.ReadBits(widths[i])
			if err != nil || got != masked[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: unary round-trips for small values.
func TestQuickUnaryRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		w := NewWriter(0)
		for _, v := range raw {
			w.WriteUnary(uint64(v % 2048))
		}
		r := NewReader(w.Bytes(), w.BitLen())
		for _, v := range raw {
			got, err := r.ReadUnary()
			if err != nil || got != uint64(v%2048) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriteBits(b *testing.B) {
	w := NewWriter(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if w.BitLen() > 1<<19 {
			w.Reset()
		}
		w.WriteBits(uint64(i), uint(i%64)+1)
	}
}

func BenchmarkReadBits(b *testing.B) {
	w := NewWriter(1 << 16)
	for i := 0; i < 4096; i++ {
		w.WriteBits(uint64(i), 13)
	}
	buf := w.Bytes()
	n := w.BitLen()
	r := NewReader(buf, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Remaining() < 13 {
			r.Reset(buf, n)
		}
		if _, err := r.ReadBits(13); err != nil {
			b.Fatal(err)
		}
	}
}

// refReader is the bit-at-a-time reader the windowed Reader replaced,
// kept as the reference the property test below compares against. It
// touches one byte per step and never looks at a bit at or past n.
type refReader struct {
	buf []byte
	pos int
	n   int
}

func (r *refReader) seek(bitPos int) error {
	if bitPos < 0 || bitPos > r.n {
		return ErrOverrun
	}
	r.pos = bitPos
	return nil
}

func (r *refReader) readBit() (uint, error) {
	if r.pos >= r.n {
		return 0, ErrOverrun
	}
	b := r.buf[r.pos>>3] >> (7 - uint(r.pos&7)) & 1
	r.pos++
	return uint(b), nil
}

func (r *refReader) readBits(n uint) (uint64, error) {
	if r.pos+int(n) > r.n {
		return 0, ErrOverrun
	}
	var v uint64
	for ; n > 0; n-- {
		b, _ := r.readBit()
		v = v<<1 | uint64(b)
	}
	return v, nil
}

func (r *refReader) readUnary() (uint64, error) {
	var v uint64
	for {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			return v, nil
		}
		v++
	}
}

// randomStream draws a buffer and a stream length over it. The shapes
// are the ones a 64-bit window can get wrong: buffers shorter than a
// window, lengths that stop mid-byte, long zero runs (unary scans that
// cross several windows), and set bits past the stream length that must
// never be seen.
func randomStream(rng *rand.Rand) ([]byte, int) {
	buf := make([]byte, rng.Intn(40))
	switch rng.Intn(3) {
	case 0: // dense noise
		rng.Read(buf)
	case 1: // sparse: long zero runs between single set bits
		for i := range buf {
			if rng.Intn(6) == 0 {
				buf[i] = 1 << uint(rng.Intn(8))
			}
		}
	default: // noise with an all-zero tail
		rng.Read(buf[:len(buf)/2])
	}
	nBits := len(buf) * 8
	if nBits > 0 && rng.Intn(2) == 0 {
		nBits = rng.Intn(nBits + 1)
	}
	if rng.Intn(2) == 0 {
		// Garbage past the stream length, in the last partial byte and
		// in the whole bytes after it.
		for i := nBits; i < len(buf)*8; i++ {
			buf[i>>3] |= 1 << (7 - uint(i&7))
		}
	}
	return buf, nBits
}

// TestReaderMatchesBitAtATimeReference drives the windowed Reader and
// the reference through the same random operation sequences over random
// streams: every operation must agree on error vs success, on the value
// read, and on the position afterwards. After a failed read the two are
// re-aligned with a Seek (the reference's unary scan stops wherever it
// ran out; the Reader does not move on failure).
func TestReaderMatchesBitAtATimeReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 4000; trial++ {
		buf, nBits := randomStream(rng)
		got := NewReader(buf, nBits)
		want := &refReader{buf: buf, n: nBits}
		for op := 0; op < 60; op++ {
			var gv, wv uint64
			var gerr, werr error
			var what string
			switch rng.Intn(6) {
			case 0:
				// A field taken from the window is the field ReadBits
				// reads, and Consume refuses exactly the fields the window
				// does not guarantee or the stream does not hold.
				n := rng.Intn(WindowBits+8) - 2
				what = "Window+Consume"
				gv = got.Window() >> (64 - uint(n))
				if n < 0 || n > WindowBits {
					if got.Consume(n) {
						t.Fatalf("trial %d op %d: Consume(%d) accepted a field no window guarantees", trial, op, n)
					}
					continue
				}
				if wv, werr = want.readBits(uint(n)); !got.Consume(n) {
					gerr = ErrOverrun
				}
			case 1:
				what = "ReadBit"
				var gb, wb uint
				gb, gerr = got.ReadBit()
				wb, werr = want.readBit()
				gv, wv = uint64(gb), uint64(wb)
			case 2, 3:
				n := uint(rng.Intn(65))
				what = "ReadBits"
				gv, gerr = got.ReadBits(n)
				wv, werr = want.readBits(n)
			case 4:
				what = "ReadUnary"
				gv, gerr = got.ReadUnary()
				wv, werr = want.readUnary()
			default:
				to := rng.Intn(nBits+3) - 1 // -1 and nBits+1 must fail
				what = "Seek"
				gerr = got.Seek(to)
				werr = want.seek(to)
			}
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("trial %d op %d %s at bit %d of %d (buffer % x): error %v, reference %v",
					trial, op, what, want.pos, nBits, buf, gerr, werr)
			}
			if gerr != nil {
				if gerr != ErrOverrun {
					t.Fatalf("trial %d op %d %s: error %v, want ErrOverrun", trial, op, what, gerr)
				}
				if err := want.seek(got.Pos()); err != nil {
					t.Fatalf("trial %d op %d %s: position %d after a failed read is outside the stream", trial, op, what, got.Pos())
				}
				continue
			}
			if gv != wv || got.Pos() != want.pos {
				t.Fatalf("trial %d op %d %s on %d bits (buffer % x): value %d at bit %d, reference %d at bit %d",
					trial, op, what, nBits, buf, gv, got.Pos(), wv, want.pos)
			}
		}
	}
}

// TestUnaryZeroTailOverruns pins the one way a unary scan ends without
// a value: every remaining bit is zero, at every alignment and across
// several windows, with a set bit just past the stream length.
func TestUnaryZeroTailOverruns(t *testing.T) {
	for size := 0; size <= 24; size++ {
		for nBits := 0; nBits <= size*8; nBits++ {
			buf := make([]byte, size)
			if nBits < size*8 {
				buf[nBits>>3] |= 1 << (7 - uint(nBits&7))
			}
			for from := 0; from <= nBits; from += 5 {
				r := NewReader(buf, nBits)
				if err := r.Seek(from); err != nil {
					t.Fatal(err)
				}
				if v, err := r.ReadUnary(); err != ErrOverrun {
					t.Fatalf("%d zero bits from bit %d of a %d-byte buffer: ReadUnary = %d, %v; want ErrOverrun", nBits-from, from, size, v, err)
				}
			}
		}
	}
}

func BenchmarkReadUnary(b *testing.B) {
	w := NewWriter(1 << 16)
	rng := rand.New(rand.NewSource(1))
	for w.BitLen() < 1<<18 {
		w.WriteUnary(uint64(rng.Intn(12)))
	}
	buf, nBits := w.Bytes(), w.BitLen()
	r := NewReader(buf, nBits)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.ReadUnary(); err != nil {
			r.Reset(buf, nBits)
		}
	}
}
