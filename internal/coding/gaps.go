package coding

import (
	"math/bits"

	"snode/internal/bitio"
)

// WriteBoundedGapList encodes a strictly increasing list whose values
// lie in [0, bound): the first value in minimal binary, then gamma
// gaps. The length is NOT encoded; callers encode it separately
// (typically with WriteGamma0) because many formats already know the
// length from other fields.
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

// ReadBoundedGapList decodes n IDs written by WriteBoundedGapList,
// appending them to dst. Every decoded value is validated against
// [0, bound) as it is produced — the minimal binary first value cannot
// escape, but corrupt gamma gaps can push the running sum past the
// bound, and the fused check spares callers a second pass over the
// decoded list. This loop is where a cold lookup spends its decode
// time, so the gamma word is taken from the window here rather than
// through a call to ReadGamma.
func ReadBoundedGapList(r *bitio.Reader, n int, bound uint64, dst []int32) ([]int32, error) {
	if n == 0 {
		return dst, nil
	}
	v, err := ReadMinimalBinary(r, bound)
	if err != nil {
		return dst, err
	}
	cur := int64(int32(v))
	dst = append(dst, int32(cur))
	for i := 1; i < n; i++ {
		var d uint64
		w := r.Window()
		if k := 2*bits.LeadingZeros64(w) + 1; r.Consume(k) {
			d = w >> (uint(64-k) & 63)
		} else if d, err = readGammaSplit(r); err != nil {
			return dst, err
		}
		// d spans the full uint64 range, so int64(d) can be negative or
		// wrap the sum past MaxInt64 (which lands negative, since cur is
		// non-negative); cur < 0 || cur >= bound rejects every corrupt gap.
		cur += int64(d)
		if cur < 0 || cur >= int64(bound) {
			return dst, ErrBadCode
		}
		dst = append(dst, int32(cur))
	}
	return dst, nil
}

// StepGap is the one checked step of a strictly ascending gap-coded run
// whose values lie in [0, bound): it returns last+gap, or last and false
// when the gap is zero (a repeat) or carries the value to bound or
// beyond. last is the run's previous value, -1 before the first, so it
// lies in [-1, bound). The gap is compared with the room left before it is
// added: a gap read from hostile bytes spans the whole uint64 range, and
// adding first would let int64(gap) step backwards or wrap the sum.
func StepGap(last int64, gap uint64, bound int64) (int64, bool) {
	if gap == 0 || gap >= uint64(bound-last) {
		return last, false
	}
	return last + int64(gap), true
}

// WriteRLEBits encodes a bit vector as its first bit followed by
// gamma-coded run lengths of alternating bit values. The number of bits
// is not stored; decoders pass it to ReadRLERuns. Empty vectors write
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

// ReadRLERuns decodes n bits written by WriteRLEBits as the runs of set
// bits among them: dst, truncated and reused, receives for each such
// run the index of its first bit and the index after its last. A
// decoder that copies what the set bits select then copies a run at a
// time and never looks at the clear bits at all.
func ReadRLERuns(r *bitio.Reader, n int, dst []int32) ([]int32, error) {
	dst = dst[:0]
	if n == 0 {
		return dst, nil
	}
	set, err := r.ReadBool()
	if err != nil {
		return dst, err
	}
	for at := 0; at < n; set = !set {
		run, err := ReadGamma(r)
		if err != nil {
			return dst, err
		}
		if run > uint64(n-at) {
			return dst, ErrBadCode
		}
		if set {
			dst = append(dst, int32(at), int32(at+int(run)))
		}
		at += int(run)
	}
	return dst, nil
}
