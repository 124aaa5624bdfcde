package coding

import (
	"snode/internal/bitio"
)

// WriteGapList encodes a strictly increasing list of non-negative int32
// IDs as a gamma-coded first value (shifted by one) followed by
// gamma-coded successive differences. The length is NOT encoded; callers
// encode it separately (typically with WriteGamma0) because many formats
// already know the length from other fields.
func WriteGapList(w *bitio.Writer, ids []int32) {
	if len(ids) == 0 {
		return
	}
	WriteGamma(w, uint64(ids[0])+1)
	for i := 1; i < len(ids); i++ {
		d := ids[i] - ids[i-1]
		if d <= 0 {
			panic("coding: gap list must be strictly increasing")
		}
		WriteGamma(w, uint64(d))
	}
}

// ReadGapList decodes n IDs written by WriteGapList, appending them to
// dst and returning the extended slice.
func ReadGapList(r *bitio.Reader, n int, dst []int32) ([]int32, error) {
	if n == 0 {
		return dst, nil
	}
	v, err := ReadGamma(r)
	if err != nil {
		return dst, err
	}
	cur := int32(v - 1)
	dst = append(dst, cur)
	for i := 1; i < n; i++ {
		d, err := ReadGamma(r)
		if err != nil {
			return dst, err
		}
		cur += int32(d)
		dst = append(dst, cur)
	}
	return dst, nil
}

// GapListLen reports the encoded bit length of ids under WriteGapList.
func GapListLen(ids []int32) int {
	if len(ids) == 0 {
		return 0
	}
	n := GammaLen(uint64(ids[0]) + 1)
	for i := 1; i < len(ids); i++ {
		n += GammaLen(uint64(ids[i] - ids[i-1]))
	}
	return n
}

// WriteBoundedGapList encodes a strictly increasing list whose values
// lie in [0, bound): the first value in minimal binary, then gamma
// gaps. Cheaper than WriteGapList for small known ID spaces.
func WriteBoundedGapList(w *bitio.Writer, ids []int32, bound uint64) {
	if len(ids) == 0 {
		return
	}
	WriteMinimalBinary(w, uint64(ids[0]), bound)
	for i := 1; i < len(ids); i++ {
		d := ids[i] - ids[i-1]
		if d <= 0 {
			panic("coding: gap list must be strictly increasing")
		}
		WriteGamma(w, uint64(d))
	}
}

// ReadBoundedGapList decodes n IDs written by WriteBoundedGapList. Every
// decoded value is validated against [0, bound) as it is produced — the
// minimal binary first value cannot escape, but corrupt gamma gaps can
// push the running sum past the bound, and the fused check spares
// callers a second pass over the decoded list.
func ReadBoundedGapList(r *bitio.Reader, n int, bound uint64, dst []int32) ([]int32, error) {
	if n == 0 {
		return dst, nil
	}
	v, err := ReadMinimalBinary(r, bound)
	if err != nil {
		return dst, err
	}
	cur := int32(v)
	dst = append(dst, cur)
	for i := 1; i < n; i++ {
		d, err := ReadGamma(r)
		if err != nil {
			return dst, err
		}
		// d spans the full uint64 range, so int64(d) can be negative or
		// wrap the sum past MaxInt64 (which lands negative, since cur is
		// non-negative); nv < 0 || nv >= bound rejects every corrupt gap.
		nv := int64(cur) + int64(d)
		if nv < 0 || nv >= int64(bound) {
			return dst, ErrBadCode
		}
		cur = int32(nv)
		dst = append(dst, cur)
	}
	return dst, nil
}

// WriteRLEBits encodes a bit vector as its first bit followed by
// gamma-coded run lengths of alternating bit values. The number of bits
// is not stored; decoders pass it to ReadRLEBits. Empty vectors write
// nothing.
func WriteRLEBits(w *bitio.Writer, bitVec []bool) {
	if len(bitVec) == 0 {
		return
	}
	w.WriteBool(bitVec[0])
	run := uint64(1)
	for i := 1; i < len(bitVec); i++ {
		if bitVec[i] == bitVec[i-1] {
			run++
			continue
		}
		WriteGamma(w, run)
		run = 1
	}
	WriteGamma(w, run)
}

// ReadRLEBits decodes n bits written by WriteRLEBits into dst (which is
// truncated and reused if large enough, and grown by doubling if not, so
// a caller that passes its last result back allocates O(log n) times).
func ReadRLEBits(r *bitio.Reader, n int, dst []bool) ([]bool, error) {
	dst = dst[:0]
	if n == 0 {
		return dst, nil
	}
	cur, err := r.ReadBool()
	if err != nil {
		return dst, err
	}
	if cap(dst) < n {
		dst = make([]bool, 0, max(n, 2*cap(dst)))
	}
	for len(dst) < n {
		run, err := ReadGamma(r)
		if err != nil {
			return dst, err
		}
		if run > uint64(n-len(dst)) {
			return dst, ErrBadCode
		}
		filled := len(dst)
		dst = dst[:filled+int(run)]
		for j := filled; j < len(dst); j++ {
			dst[j] = cur
		}
		cur = !cur
	}
	return dst, nil
}

// RLEBitsLen reports the encoded bit length of bitVec under
// WriteRLEBits.
func RLEBitsLen(bitVec []bool) int {
	if len(bitVec) == 0 {
		return 0
	}
	n := 1
	run := uint64(1)
	for i := 1; i < len(bitVec); i++ {
		if bitVec[i] == bitVec[i-1] {
			run++
			continue
		}
		n += GammaLen(run)
		run = 1
	}
	n += GammaLen(run)
	return n
}
