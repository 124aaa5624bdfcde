package snode

import (
	"fmt"
	"math/bits"
	"sync"

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
// superPos payloads prepend the sources as one such run over
// [0, niSize) without the gamma0 length (the directory knows numSrcs),
// then the target lists over [0, njSize).
type logCodec struct{}

func (logCodec) ID() uint8    { return codecIDLog }
func (logCodec) Name() string { return CodecLog }

var logWriters = sync.Pool{New: func() any { return bitio.NewWriter(1 << 16) }}

// logWidth is the bit width of IDs in [0, bound).
func logWidth(bound int64) uint {
	if bound <= 1 {
		return 0
	}
	return uint(bits.Len64(uint64(bound - 1)))
}

// logWriteRun writes one sorted run over [0, bound): the first value
// at its residual width, then the gap width and fixed-width gap-1
// residuals.
func logWriteRun(w *bitio.Writer, list []int32, bound int64) {
	w.WriteBits(uint64(list[0]), logWidth(bound-int64(len(list))+1))
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
	w.WriteBits(uint64(gw), uint(bits.Len(logWidth(bound))))
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

func logEncodeLists(w *bitio.Writer, lists [][]int32, bound int64) {
	for _, l := range lists {
		coding.WriteGamma0(w, uint64(len(l)))
		if len(l) > 0 {
			logWriteRun(w, l, bound)
		}
	}
}

// logDecodeLists decodes numLists lists under bound from r.
func logDecodeLists(r *bitio.Reader, numLists int, bound int64) (refenc.Lists, error) {
	b := refenc.NewBuilder(numLists)
	for i := 0; i < numLists; i++ {
		deg, err := coding.ReadGamma0(r)
		if err != nil {
			return refenc.Lists{}, err
		}
		if deg > uint64(maxMetaElems) {
			return refenc.Lists{}, fmt.Errorf("snode/log: list %d claims %d values", i, deg)
		}
		// A hostile degree cannot run away even at gap width 0: values
		// are strictly increasing and validated < bound, so the run loop
		// errors after at most `bound` appends.
		if b.IDs, err = logReadRun(r, int(deg), bound, b.IDs); err != nil {
			return refenc.Lists{}, err
		}
		if err := b.End(); err != nil {
			return refenc.Lists{}, err
		}
	}
	return b.Lists(), nil
}

func logEncode(dst []byte, fill func(w *bitio.Writer)) []byte {
	w := logWriters.Get().(*bitio.Writer)
	w.Reset()
	fill(w)
	dst = w.AppendTo(dst)
	logWriters.Put(w)
	return dst
}

func (logCodec) EncodeIntra(dst []byte, lists [][]int32, _ refenc.Options) ([]byte, error) {
	return logEncode(dst, func(w *bitio.Writer) {
		logEncodeLists(w, lists, int64(len(lists)))
	}), nil
}

func (logCodec) DecodeIntra(buf []byte, numLists int) (*decodedIntra, error) {
	r := bitio.NewByteReader(buf)
	lists, err := logDecodeLists(r, numLists, int64(numLists))
	if err != nil {
		return nil, fmt.Errorf("snode: intranode decode: %w", err)
	}
	return &decodedIntra{lists: lists}, nil
}

func (logCodec) EncodeSuperPos(dst []byte, srcs []int32, lists [][]int32, niSize, njSize int32, _ refenc.Options) ([]byte, error) {
	if len(srcs) != len(lists) {
		return dst, fmt.Errorf("snode: superPos %d sources but %d lists", len(srcs), len(lists))
	}
	return logEncode(dst, func(w *bitio.Writer) {
		if len(srcs) > 0 {
			logWriteRun(w, srcs, int64(niSize))
		}
		logEncodeLists(w, lists, int64(njSize))
	}), nil
}

func (logCodec) DecodeSuperPosSources(buf []byte, numSrcs int, niSize int32) ([]int32, encodedLists, error) {
	r := bitio.NewByteReader(buf)
	srcs, err := logReadRun(r, numSrcs, int64(niSize), make([]int32, 0, min(numSrcs, int(niSize))))
	if err != nil {
		return nil, encodedLists{}, fmt.Errorf("snode: superPos sources: %w", err)
	}
	return srcs, listsAfter(buf, r), nil
}

func (logCodec) DecodeSuperPosLists(enc encodedLists, numSrcs int, njSize int32) (refenc.Lists, error) {
	lists, err := logDecodeLists(enc.reader(), numSrcs, int64(njSize))
	if err != nil {
		return refenc.Lists{}, fmt.Errorf("snode: superPos lists: %w", err)
	}
	return lists, nil
}

func (logCodec) EncodeSuperNeg(dst []byte, complements [][]int32, njSize int32, _ refenc.Options) ([]byte, error) {
	return logEncode(dst, func(w *bitio.Writer) {
		logEncodeLists(w, complements, int64(njSize))
	}), nil
}

func (logCodec) DecodeSuperNeg(buf []byte, numLists int, njSize int32) (*decodedSuperNeg, error) {
	r := bitio.NewByteReader(buf)
	lists, err := logDecodeLists(r, numLists, int64(njSize))
	if err != nil {
		return nil, fmt.Errorf("snode: superNeg decode: %w", err)
	}
	return &decodedSuperNeg{njSize: njSize, lists: lists}, nil
}
