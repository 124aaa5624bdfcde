package coding

import (
	"fmt"
	"math/rand"
	"testing"

	"snode/internal/bitio"
)

// The decoders that take a code word out of one window are compared
// here with the decoders they replaced, kept below as references: over
// any stream, at any position, both must return the same value, leave
// the reader at the same bit, and fail with the same error.

// refReadGamma is ReadGamma as it was before the one-window path: the
// unary length, then the low-order bits, each through its own bounds
// check.
func refReadGamma(r *bitio.Reader) (uint64, error) {
	nm1, err := r.ReadUnary()
	if err != nil {
		return 0, err
	}
	if nm1 >= 64 {
		return 0, ErrBadCode
	}
	if nm1 == 0 {
		return 1, nil
	}
	low, err := r.ReadBits(uint(nm1))
	if err != nil {
		return 0, err
	}
	return 1<<nm1 | low, nil
}

// refReadMinimalBinary is ReadMinimalBinary as it was: k-1 bits, then
// one more for a long word.
func refReadMinimalBinary(r *bitio.Reader, bound uint64) (uint64, error) {
	if bound == 0 {
		return 0, ErrBadCode
	}
	if bound == 1 {
		return 0, nil
	}
	k := uint(0)
	for b := bound - 1; b > 0; b >>= 1 {
		k++
	}
	u := uint64(1)<<k - bound
	v, err := r.ReadBits(k - 1)
	if err != nil {
		return 0, err
	}
	if v < u {
		return v, nil
	}
	b, err := r.ReadBit()
	if err != nil {
		return 0, err
	}
	return (v<<1 | uint64(b)) - u, nil
}

// refReadBoundedGapList is ReadBoundedGapList as it was, over the two
// references above.
func refReadBoundedGapList(r *bitio.Reader, n int, bound uint64, dst []int32) ([]int32, error) {
	if n == 0 {
		return dst, nil
	}
	v, err := refReadMinimalBinary(r, bound)
	if err != nil {
		return dst, err
	}
	cur := int32(v)
	dst = append(dst, cur)
	for i := 1; i < n; i++ {
		d, err := refReadGamma(r)
		if err != nil {
			return dst, err
		}
		nv := int64(cur) + int64(d)
		if nv < 0 || nv >= int64(bound) {
			return dst, ErrBadCode
		}
		cur = int32(nv)
		dst = append(dst, cur)
	}
	return dst, nil
}

// twin returns two readers over the same stream at the same position.
func twin(t *testing.T, buf []byte, nBits, pos int) (got, want *bitio.Reader) {
	t.Helper()
	got, want = bitio.NewReader(buf, nBits), bitio.NewReader(buf, nBits)
	if err := got.Seek(pos); err != nil {
		t.Fatal(err)
	}
	if err := want.Seek(pos); err != nil {
		t.Fatal(err)
	}
	return got, want
}

// agree fails unless the two decoders did the same thing.
func agree(t *testing.T, what string, buf []byte, nBits, from int, got, want *bitio.Reader, gv, wv uint64, gerr, werr error) {
	t.Helper()
	if gv != wv || gerr != werr || got.Pos() != want.Pos() {
		t.Fatalf("%s from bit %d of %d (buffer % x): %d, %v, now at bit %d; the reference: %d, %v, at bit %d",
			what, from, nBits, buf, gv, gerr, got.Pos(), wv, werr, want.Pos())
	}
}

// randomStream draws a buffer and a stream length over it, in the
// shapes a window can get wrong: buffers shorter than a window, lengths
// that stop mid-byte, long zero runs, set garbage past the stream
// length.
func randomStream(rng *rand.Rand) ([]byte, int) {
	buf := make([]byte, rng.Intn(40))
	switch rng.Intn(3) {
	case 0: // dense noise: short code words
		rng.Read(buf)
	case 1: // sparse: long zero prefixes
		for i := range buf {
			if rng.Intn(5) == 0 {
				buf[i] = byte(rng.Intn(256)) >> uint(rng.Intn(8))
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
		for i := nBits; i < len(buf)*8; i++ {
			buf[i>>3] |= 1 << (7 - uint(i&7))
		}
	}
	return buf, nBits
}

func TestWindowDecodersMatchReferencesOnRandomStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 6000; trial++ {
		buf, nBits := randomStream(rng)
		got, want := twin(t, buf, nBits, 0)
		for op := 0; op < 40; op++ {
			from := got.Pos()
			switch rng.Intn(4) {
			case 0, 1:
				gv, gerr := ReadGamma(got)
				wv, werr := refReadGamma(want)
				agree(t, "ReadGamma", buf, nBits, from, got, want, gv, wv, gerr, werr)
			case 2:
				bound := uint64(rng.Int63()) >> uint(rng.Intn(63))
				if rng.Intn(8) == 0 {
					bound = rng.Uint64() // words wider than a window
				}
				gv, gerr := ReadMinimalBinary(got, bound)
				wv, werr := refReadMinimalBinary(want, bound)
				agree(t, fmt.Sprintf("ReadMinimalBinary(%d)", bound), buf, nBits, from, got, want, gv, wv, gerr, werr)
			default:
				n, bound := rng.Intn(12), uint64(1+rng.Intn(1<<uint(1+rng.Intn(20))))
				gl, gerr := ReadBoundedGapList(got, n, bound, nil)
				wl, werr := refReadBoundedGapList(want, n, bound, nil)
				agree(t, fmt.Sprintf("ReadBoundedGapList(%d, %d)", n, bound), buf, nBits, from, got, want, uint64(len(gl)), uint64(len(wl)), gerr, werr)
				for i := range gl {
					if gl[i] != wl[i] {
						t.Fatalf("ReadBoundedGapList(%d, %d) from bit %d (buffer % x): %v, the reference %v", n, bound, from, buf, gl, wl)
					}
				}
			}
			if got.Remaining() == 0 && rng.Intn(2) == 0 {
				break
			}
		}
	}
}

// TestGammaAtTheEdgesOfTheWindow walks the cases the one-window path
// turns on. A word with z leading zeros is 2z+1 bits: z = 28 is the
// longest that fits the 57 bits a window guarantees, so 27, 28 and 29
// straddle the switch to the split path; 56 and 57 zeros fill the
// window before the one; 63 is the longest valid word and 64 and more
// are no word at all. Each is placed at every bit alignment, with the
// stream ending exactly at the word's last bit, one bit short of it
// (which cuts mid-byte for most alignments), and well past it, and with
// set garbage after the end of the stream.
func TestGammaAtTheEdgesOfTheWindow(t *testing.T) {
	for _, zeros := range []int{0, 1, 7, 27, 28, 29, 56, 57, 63, 64, 65, 100, 130} {
		for align := 0; align < 8; align++ {
			wordBits := 2*zeros + 1
			total := align + wordBits + 16
			buf := make([]byte, (total+7)/8+9)
			set := func(i int) { buf[i>>3] |= 1 << (7 - uint(i&7)) }
			for i := 0; i < align; i++ {
				set(i) // so the zero prefix starts at align, not before
			}
			set(align + zeros)
			for i := align + zeros + 1; i < align+wordBits; i += 2 {
				set(i) // low bits 1010…
			}
			for _, nBits := range []int{align + wordBits, align + wordBits - 1, align + zeros + 1, align + zeros, total} {
				if nBits < align {
					continue
				}
				for _, garbage := range []bool{false, true} {
					b := append([]byte(nil), buf...)
					if garbage {
						for i := nBits; i < len(b)*8; i++ {
							b[i>>3] |= 1 << (7 - uint(i&7))
						}
					}
					got, want := twin(t, b, nBits, align)
					gv, gerr := ReadGamma(got)
					wv, werr := refReadGamma(want)
					agree(t, fmt.Sprintf("ReadGamma of a %d-zero word, garbage=%v,", zeros, garbage), b, nBits, align, got, want, gv, wv, gerr, werr)
					if zeros <= 63 && nBits >= align+wordBits && gerr != nil {
						t.Fatalf("%d zeros at bit %d of %d: a whole word failed with %v", zeros, align, nBits, gerr)
					}
					if zeros <= 63 && nBits < align+wordBits && gerr != bitio.ErrOverrun {
						t.Fatalf("%d zeros at bit %d, stream cut at %d: %v, want ErrOverrun", zeros, align, nBits, gerr)
					}
				}
			}
		}
	}
}

// TestHuffmanWindowDecodeMatchesBitwise compares Decode with the
// bit-at-a-time loop it used to be, which it keeps for the words a
// window does not hold: over random alphabets (skewed ones have code
// words longer than a window guarantees), the one-symbol alphabet, and
// streams that are valid, truncated at every length, or noise.
func TestHuffmanWindowDecodeMatchesBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(59) // 59 skewed symbols reach maxHuffmanLen
		if trial%10 == 0 {
			n = 1
		}
		freqs := make([]int64, n)
		for i := range freqs {
			switch trial % 3 {
			case 0:
				freqs[i] = int64(1 + rng.Intn(1000))
			case 1: // Fibonacci-like skew: the deepest tree n symbols allow
				freqs[i] = int64(1) << uint(min(i, 62))
			default:
				freqs[i] = int64(rng.Intn(3)) // zeros become ones
			}
		}
		h, err := NewHuffman(freqs)
		if err != nil {
			t.Fatal(err)
		}
		w := bitio.NewWriter(0)
		for i := 0; i < 30; i++ {
			h.Encode(w, int32(rng.Intn(n)))
		}
		valid, validBits := w.Bytes(), w.BitLen()
		noise := make([]byte, 24)
		rng.Read(noise)
		check := func(buf []byte, nBits int) {
			got, want := twin(t, buf, nBits, 0)
			for {
				from := got.Pos()
				gs, gerr := h.Decode(got)
				ws, werr := h.decodeBitwise(want)
				agree(t, fmt.Sprintf("Huffman.Decode over %d symbols (longest word %d bits)", n, h.maxLen),
					buf, nBits, from, got, want, uint64(gs), uint64(ws), gerr, werr)
				if gerr != nil {
					return
				}
			}
		}
		for cut := validBits; cut >= 0; cut -= 1 + rng.Intn(3) {
			check(valid, cut)
		}
		check(noise, len(noise)*8)
		check(noise, len(noise)*8-3)
	}
}

// The two benchmarks below decode what benchmark/layers.go's
// coding.gamma_decode_ns and coding.gaplist_decode_ns_per_edge rows
// decode — gamma codes of the gap sizes a Web graph has, mostly small
// with a few large, and gap lists over them — so a kernel change can be
// read with go test -bench before the suite is run.

func BenchmarkReadGamma(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	w := bitio.NewWriter(1 << 16)
	vals := 0
	for w.BitLen() < 1<<19 {
		WriteGamma(w, uint64(1+rng.Intn(1<<uint(rng.Intn(12)))))
		vals++
	}
	buf, nBits := w.Bytes(), w.BitLen()
	r := bitio.NewReader(buf, nBits)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%vals == 0 {
			r.Reset(buf, nBits)
		}
		if _, err := ReadGamma(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadBoundedGapList(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const bound, listLen = 1 << 20, 12
	w := bitio.NewWriter(1 << 16)
	lists := 0
	for w.BitLen() < 1<<19 {
		ids := make([]int32, listLen)
		cur := int32(rng.Intn(1 << 10))
		for k := range ids {
			ids[k] = cur
			cur += int32(1 + rng.Intn(1<<uint(rng.Intn(12))))
		}
		WriteBoundedGapList(w, ids, bound)
		lists++
	}
	buf, nBits := w.Bytes(), w.BitLen()
	r := bitio.NewReader(buf, nBits)
	var dst []int32
	b.ResetTimer()
	for i := 0; i < b.N; i += listLen { // b.N counts IDs
		if (i/listLen)%lists == 0 {
			r.Reset(buf, nBits)
		}
		var err error
		if dst, err = ReadBoundedGapList(r, listLen, bound, dst[:0]); err != nil {
			b.Fatal(err)
		}
	}
}
