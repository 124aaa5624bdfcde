// Package coding implements the bit-level integer codes used throughout
// the S-Node representation and its baselines: Elias gamma and delta
// codes, run-length-encoded bit vectors, gap encoding of sorted ID lists
// (as in Witten, Moffat & Bell, "Managing Gigabytes"), and canonical
// Huffman coding.
package coding

import (
	"errors"
	"math/bits"

	"snode/internal/bitio"
)

// ErrBadCode is returned when a decoder encounters an invalid code word.
var ErrBadCode = errors.New("coding: invalid code word")

// WriteGamma appends the Elias gamma code of v (v >= 1): the unary length
// of v's binary representation followed by its low-order bits.
func WriteGamma(w *bitio.Writer, v uint64) {
	if v == 0 {
		panic("coding: gamma code requires v >= 1")
	}
	n := uint(bits.Len64(v)) // number of significant bits
	w.WriteUnary(uint64(n - 1))
	if n > 1 {
		w.WriteBits(v&(1<<(n-1)-1), n-1)
	}
}

// ReadGamma decodes an Elias gamma code. A code word of z zeros, a one
// and z more bits is 2z+1 bits long and, read as a number, is its own
// value, so a word that lies inside one window of the reader is one
// load, one leading-zero count and a shift. Words that do not — longer
// than bitio.WindowBits, or cut by the end of the stream — take
// readGammaSplit, which reports what is wrong with them.
func ReadGamma(r *bitio.Reader) (uint64, error) {
	w := r.Window()
	if n := 2*bits.LeadingZeros64(w) + 1; r.Consume(n) {
		return w >> (uint(64-n) & 63), nil // n is in [1, WindowBits]: the mask only spares the shift its range check
	}
	return readGammaSplit(r)
}

// readGammaSplit decodes a gamma code as its two fields: the unary
// length, then the low-order bits.
func readGammaSplit(r *bitio.Reader) (uint64, error) {
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

// GammaLen reports the length in bits of the gamma code of v (v >= 1).
func GammaLen(v uint64) int {
	n := bits.Len64(v)
	return 2*n - 1
}

// WriteGamma0 encodes a non-negative value by shifting it to v+1.
func WriteGamma0(w *bitio.Writer, v uint64) { WriteGamma(w, v+1) }

// ReadGamma0 decodes a value written by WriteGamma0.
func ReadGamma0(r *bitio.Reader) (uint64, error) {
	v, err := ReadGamma(r)
	if err != nil {
		return 0, err
	}
	return v - 1, nil
}

// Gamma0Len reports the bit length of the gamma0 code of v (v >= 0).
func Gamma0Len(v uint64) int { return GammaLen(v + 1) }

// WriteDelta appends the Elias delta code of v (v >= 1): the gamma code
// of the bit length of v followed by v's low-order bits.
func WriteDelta(w *bitio.Writer, v uint64) {
	if v == 0 {
		panic("coding: delta code requires v >= 1")
	}
	n := uint(bits.Len64(v))
	WriteGamma(w, uint64(n))
	if n > 1 {
		w.WriteBits(v&(1<<(n-1)-1), n-1)
	}
}

// ReadDelta decodes an Elias delta code.
func ReadDelta(r *bitio.Reader) (uint64, error) {
	n, err := ReadGamma(r)
	if err != nil {
		return 0, err
	}
	if n == 0 || n > 64 {
		return 0, ErrBadCode
	}
	if n == 1 {
		return 1, nil
	}
	low, err := r.ReadBits(uint(n - 1))
	if err != nil {
		return 0, err
	}
	return 1<<(n-1) | low, nil
}

// DeltaLen reports the length in bits of the delta code of v (v >= 1).
func DeltaLen(v uint64) int {
	n := uint64(bits.Len64(v))
	return GammaLen(n) + int(n) - 1
}

// WriteMinimalBinary writes v (0 <= v < bound) using a minimal binary
// (truncated binary) code for the given bound.
func WriteMinimalBinary(w *bitio.Writer, v, bound uint64) {
	if bound == 0 || v >= bound {
		panic("coding: minimal binary value out of range")
	}
	if bound == 1 {
		return // zero bits needed
	}
	k := uint(bits.Len64(bound - 1)) // ceil(log2(bound))
	u := uint64(1)<<k - bound        // number of short code words
	if v < u {
		w.WriteBits(v, k-1)
	} else {
		w.WriteBits(v+u, k)
	}
}

// ReadMinimalBinary decodes a value written by WriteMinimalBinary with
// the same bound.
func ReadMinimalBinary(r *bitio.Reader, bound uint64) (uint64, error) {
	if bound == 0 {
		return 0, ErrBadCode
	}
	if bound == 1 {
		return 0, nil
	}
	k := uint(bits.Len64(bound - 1))
	u := uint64(1)<<k - bound
	// The first k-1 bits say whether the word is short; both lengths come
	// off one window unless the word is too wide for it or the stream
	// ends inside it.
	w := r.Window()
	if v := w >> (65 - k); v < u {
		if r.Consume(int(k - 1)) {
			return v, nil
		}
	} else if r.Consume(int(k)) {
		return w>>(64-k) - u, nil
	}
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
	full := v<<1 | uint64(b)
	return full - u, nil
}

// MinimalBinaryLen reports the bit length of the minimal binary code of
// v under the given bound.
func MinimalBinaryLen(v, bound uint64) int {
	if bound <= 1 {
		return 0
	}
	k := uint(bits.Len64(bound - 1))
	u := uint64(1)<<k - bound
	if v < u {
		return int(k - 1)
	}
	return int(k)
}
