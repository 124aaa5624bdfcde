package snode

import (
	"encoding/binary"
	"fmt"

	"snode/internal/coding"
	"snode/internal/refenc"
)

// lzCodec is an LZ-style ordered-list coder after Grabowski & Bieniecki
// ("Tight and simple Web graph compression"): each sorted adjacency
// list is a common-prefix copy from the immediately preceding list plus
// a literal run of gap residuals. Everything is byte-aligned uvarints —
// decode is a straight-line varint loop with no bit extraction, which
// is the point: it trades a little density against refenc for a much
// cheaper cache-miss decode.
//
// Wire format per list, relative to the previously decoded list `prev`:
//
//	uvarint p        length of the copied prefix (p <= len(prev))
//	uvarint l        number of literal values following the prefix
//	l × uvarint g    gap residuals, g >= 1; value = last + g where
//	                 last is prev[p-1] after the copy, or -1 when p==0
//	                 (so the first literal of an uncopied list encodes
//	                 value+1)
//
// Lists are strictly increasing, so every literal of a prefix-copied
// list exceeds the prefix's last value and gaps are always >= 1; a zero
// gap on the wire is corruption. Decoders validate p against the
// previous list and every accumulated value against the local ID bound
// in the same loop that produces it.
//
// superPos payloads prepend the source IDs as one literal gap run over
// [0, niSize) (count known from the directory), then the target lists.
type lzCodec struct{}

func (lzCodec) ID() uint8    { return codecIDLZ }
func (lzCodec) Name() string { return CodecLZ }

// lzAppendList appends one list given its predecessor.
func lzAppendList(dst []byte, prev, list []int32) []byte {
	p := 0
	for p < len(list) && p < len(prev) && list[p] == prev[p] {
		p++
	}
	dst = binary.AppendUvarint(dst, uint64(p))
	dst = binary.AppendUvarint(dst, uint64(len(list)-p))
	last := int64(-1)
	if p > 0 {
		last = int64(list[p-1])
	}
	for _, v := range list[p:] {
		dst = binary.AppendUvarint(dst, uint64(int64(v)-last))
		last = int64(v)
	}
	return dst
}

// lzAppendRun appends a single sorted list as one literal gap run with
// no prefix copy (used for superPos sources).
func lzAppendRun(dst []byte, list []int32) []byte {
	last := int64(-1)
	for _, v := range list {
		dst = binary.AppendUvarint(dst, uint64(int64(v)-last))
		last = int64(v)
	}
	return dst
}

func lzEncodeLists(dst []byte, lists [][]int32) []byte {
	var prev []int32
	for _, l := range lists {
		dst = lzAppendList(dst, prev, l)
		if len(l) > 0 {
			prev = l
		}
	}
	return dst
}

// lzDecoder reads uvarints off a payload.
type lzDecoder struct {
	buf []byte
	pos int
}

func (d *lzDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("snode/lz: truncated or overlong uvarint at byte %d", d.pos)
	}
	d.pos += n
	return v, nil
}

// run appends to vals n gap-decoded values starting after last, each
// validated against [0, bound).
func (d *lzDecoder) run(vals []int32, n int, last int64, bound int64) ([]int32, error) {
	for ; n > 0; n-- {
		g, err := d.uvarint()
		if err != nil {
			return vals, err
		}
		if g == 0 {
			return vals, fmt.Errorf("snode/lz: zero gap at byte %d", d.pos)
		}
		var ok bool
		if last, ok = coding.StepGap(last, g, bound); !ok {
			return vals, fmt.Errorf("snode/lz: gap %d at byte %d escapes [0,%d)", g, d.pos, bound)
		}
		vals = append(vals, int32(last))
	}
	return vals, nil
}

// lists decodes numLists lists under bound.
func (d *lzDecoder) lists(numLists int, bound int64) (refenc.Lists, error) {
	b := refenc.NewBuilder(numLists)
	var prev []int32 // the last non-empty list
	for i := 0; i < numLists; i++ {
		p, err := d.uvarint()
		if err != nil {
			return refenc.Lists{}, err
		}
		if p > uint64(len(prev)) {
			return refenc.Lists{}, fmt.Errorf("snode/lz: list %d copies %d of a %d-entry prefix", i, p, len(prev))
		}
		l, err := d.uvarint()
		if err != nil {
			return refenc.Lists{}, err
		}
		if l > uint64(maxMetaElems) {
			return refenc.Lists{}, fmt.Errorf("snode/lz: list %d claims %d values", i, l)
		}
		start := len(b.IDs)
		b.IDs = append(b.IDs, prev[:p]...)
		last := int64(-1)
		if p > 0 {
			last = int64(prev[p-1])
		}
		if b.IDs, err = d.run(b.IDs, int(l), last, bound); err != nil {
			return refenc.Lists{}, err
		}
		if len(b.IDs) > start {
			prev = b.IDs[start:]
		}
		if err := b.End(); err != nil {
			return refenc.Lists{}, err
		}
	}
	return b.Lists(), nil
}

func (lzCodec) EncodeIntra(dst []byte, lists [][]int32, _ refenc.Options) ([]byte, error) {
	return lzEncodeLists(dst, lists), nil
}

func (lzCodec) DecodeIntra(buf []byte, numLists int) (*decodedIntra, error) {
	d := lzDecoder{buf: buf}
	lists, err := d.lists(numLists, int64(numLists))
	if err != nil {
		return nil, fmt.Errorf("snode: intranode decode: %w", err)
	}
	return &decodedIntra{lists: lists}, nil
}

func (lzCodec) EncodeSuperPos(dst []byte, srcs []int32, lists [][]int32, niSize, njSize int32, _ refenc.Options) ([]byte, error) {
	if len(srcs) != len(lists) {
		return dst, fmt.Errorf("snode: superPos %d sources but %d lists", len(srcs), len(lists))
	}
	dst = lzAppendRun(dst, srcs)
	return lzEncodeLists(dst, lists), nil
}

func (lzCodec) DecodeSuperPosSources(buf []byte, numSrcs int, niSize int32) ([]int32, encodedLists, error) {
	d := lzDecoder{buf: buf}
	srcs, err := d.run(make([]int32, 0, min(numSrcs, int(niSize))), numSrcs, -1, int64(niSize))
	if err != nil {
		return nil, encodedLists{}, fmt.Errorf("snode: superPos sources: %w", err)
	}
	return srcs, encodedLists{buf: buf[d.pos:]}, nil
}

func (lzCodec) DecodeSuperPosLists(enc encodedLists, numSrcs int, njSize int32) (refenc.Lists, error) {
	d := lzDecoder{buf: enc.buf}
	lists, err := d.lists(numSrcs, int64(njSize))
	if err != nil {
		return refenc.Lists{}, fmt.Errorf("snode: superPos lists: %w", err)
	}
	return lists, nil
}

func (lzCodec) EncodeSuperNeg(dst []byte, complements [][]int32, njSize int32, _ refenc.Options) ([]byte, error) {
	return lzEncodeLists(dst, complements), nil
}

func (lzCodec) DecodeSuperNeg(buf []byte, numLists int, njSize int32) (*decodedSuperNeg, error) {
	d := lzDecoder{buf: buf}
	lists, err := d.lists(numLists, int64(njSize))
	if err != nil {
		return nil, fmt.Errorf("snode: superNeg decode: %w", err)
	}
	return &decodedSuperNeg{njSize: njSize, lists: lists}, nil
}
