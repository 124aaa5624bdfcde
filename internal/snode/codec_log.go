package snode

import (
	"fmt"
	"math/bits"

	"snode/internal/bitio"
	"snode/internal/coding"
	"snode/internal/refenc"
)

// logCodec is a Log(Graph)-style succinct coder after Besta et al.:
// every ID is bit-packed at the logarithmized width of its value space
// instead of entropy-coded. A list's first value takes exactly
// ceil(log2(bound)) bits (bound is the local ID space, so supernode
// locality makes this small), and its gaps are a fixed-width array at
// the width of the list's largest gap. Decode is a fixed-width bit
// gather — no unary scans, no code tables — so it wins on the small
// dense lists supernode-local ID spaces produce.
//
// Wire format per list (k = bits.Len(bound-1); both first-value and
// width-field widths are derived from bound and deg, so the decoder
// computes them before reading — no self-describing overhead):
//
//	gamma0 deg        list length
//	f bits  first     first value at f = width(bound-deg+1): a strictly
//	                  increasing run of deg values cannot start above
//	                  bound-deg, and a full run (deg == bound) costs
//	                  zero bits
//	len(k) bits  w    gap width in [0, k], present when deg > 1
//	(deg-1) × w bits  gap-1 residuals; value = prev + residual + 1,
//	                  validated < bound as accumulated
//
// A superPos payload's sources are one such run over [0, niSize) without
// the gamma0 length (the directory knows numSrcs).
type logCodec struct{}

func (logCodec) ID() uint8    { return codecIDLog }
func (logCodec) Name() string { return CodecLog }

// logWidth is the bit width of IDs in [0, bound).
func logWidth(bound int64) uint {
	if bound <= 1 {
		return 0
	}
	return uint(bits.Len64(uint64(bound - 1)))
}

// writeRun writes one sorted run over [0, bound): the first value at its
// residual width, then the gap width and fixed-width gap-1 residuals.
func (logCodec) writeRun(w *bitio.Writer, list []int32, bound int32) {
	if len(list) == 0 {
		return
	}
	w.WriteBits(uint64(list[0]), logWidth(int64(bound)-int64(len(list))+1))
	if len(list) == 1 {
		return
	}
	var maxResid uint64
	for i := 1; i < len(list); i++ {
		if r := uint64(list[i]-list[i-1]) - 1; r > maxResid {
			maxResid = r
		}
	}
	gw := uint(bits.Len64(maxResid))
	w.WriteBits(uint64(gw), uint(bits.Len(logWidth(int64(bound)))))
	for i := 1; i < len(list); i++ {
		w.WriteBits(uint64(list[i]-list[i-1])-1, gw)
	}
}

// logReadRun appends the n values of one run to vals, validating
// every value against [0, bound). A hostile n cannot make the widths
// misbehave: n > bound gives a zero-width first value and the
// strictly-increasing accumulation errors before `bound` appends.
func logReadRun(r *bitio.Reader, n int, bound int64, vals []int32) ([]int32, error) {
	if n == 0 {
		return vals, nil
	}
	first, err := r.ReadBits(logWidth(bound - int64(n) + 1))
	if err != nil {
		return vals, err
	}
	if int64(first) >= bound {
		return vals, fmt.Errorf("snode/log: local id %d outside [0,%d)", first, bound)
	}
	cur := int64(first)
	vals = append(vals, int32(cur))
	if n == 1 {
		return vals, nil
	}
	gw, err := r.ReadBits(uint(bits.Len(logWidth(bound))))
	if err != nil {
		return vals, err
	}
	for i := 1; i < n; i++ {
		resid, err := r.ReadBits(uint(gw))
		if err != nil {
			return vals, err
		}
		cur += int64(resid) + 1
		if cur >= bound {
			return vals, fmt.Errorf("snode/log: local id %d outside [0,%d)", cur, bound)
		}
		vals = append(vals, int32(cur))
	}
	return vals, nil
}

func (logCodec) readRun(buf []byte, n int, bound int32, dst []int32) ([]int32, encodedLists, error) {
	r := bitio.NewByteReader(buf)
	dst, err := logReadRun(r, n, int64(bound), dst)
	return dst, listsAfter(buf, r), err
}

func (c logCodec) encodeLists(w *bitio.Writer, lists [][]int32, bound int32, _ refenc.Options) error {
	for _, l := range lists {
		coding.WriteGamma0(w, uint64(len(l)))
		c.writeRun(w, l, bound)
	}
	return nil
}

// logReadDegree reads the length of list i, refusing one that bound
// cannot hold: values ascend strictly below bound.
func logReadDegree(r *bitio.Reader, i int, bound int32) (int, error) {
	deg, err := coding.ReadGamma0(r)
	if err != nil {
		return 0, err
	}
	if deg > uint64(bound) {
		return 0, fmt.Errorf("snode/log: list %d claims %d values", i, deg)
	}
	return int(deg), nil
}

func (logCodec) decodeLists(enc encodedLists, numLists int, bound int32) (refenc.Lists, error) {
	r := enc.reader()
	b := refenc.NewBuilder(numLists)
	for i := 0; i < numLists; i++ {
		deg, err := logReadDegree(r, i, bound)
		if err != nil {
			return refenc.Lists{}, err
		}
		if b.IDs, err = logReadRun(r, deg, int64(bound), b.IDs); err != nil {
			return refenc.Lists{}, err
		}
		if err := b.End(); err != nil {
			return refenc.Lists{}, err
		}
	}
	return b.Lists(), nil
}

// decodeList decodes lists 0..k into dst, keeping only list k: every
// list before it is checked as the whole decode checks it, then
// dropped.
func (logCodec) decodeList(enc encodedLists, numLists int, bound int32, k int, dst []int32) ([]int32, int, error) {
	if k < 0 || k >= numLists {
		return dst, 0, fmt.Errorf("snode/log: list %d of %d", k, numLists)
	}
	r := enc.reader()
	from, n := len(dst), 0
	for i := 0; i <= k; i++ {
		dst = dst[:from]
		deg, err := logReadDegree(r, i, bound)
		if err != nil {
			return dst, 0, err
		}
		if dst, err = logReadRun(r, deg, int64(bound), dst); err != nil {
			return dst[:from], 0, err
		}
		n += deg
	}
	return dst, n, nil
}
