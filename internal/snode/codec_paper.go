package snode

import (
	"fmt"
	"sync"

	"snode/internal/bitio"
	"snode/internal/coding"
	"snode/internal/refenc"
)

// paperCodec is the wire format of paper §3: refenc reference-encoded
// lists (Huffman/Elias/zeta gap codes) with gap-coded superPos sources.
// It is codec ID 0 — the format of every artifact built before codecs
// were pluggable — and the byte layout here must never change.
//
//	intranode:  refenc lists, one per page of Ni
//	superPos:   bounded gap-coded source local IDs, then refenc lists,
//	            one per source
//	superNeg:   refenc lists (complements), one per page of Ni
type paperCodec struct{}

func (paperCodec) ID() uint8    { return codecIDPaper }
func (paperCodec) Name() string { return CodecPaper }

// paperWriters pools bit writers across encode calls; encoding fans out
// across build workers and each finished blob is copied out of the
// writer before release.
var paperWriters = sync.Pool{New: func() any { return bitio.NewWriter(1 << 16) }}

func paperEncode(dst []byte, fill func(w *bitio.Writer) error) ([]byte, error) {
	w := paperWriters.Get().(*bitio.Writer)
	w.Reset()
	if err := fill(w); err != nil {
		paperWriters.Put(w)
		return dst, err
	}
	dst = w.AppendTo(dst)
	paperWriters.Put(w)
	return dst, nil
}

func (paperCodec) EncodeIntra(dst []byte, lists [][]int32, opt refenc.Options) ([]byte, error) {
	return paperEncode(dst, func(w *bitio.Writer) error {
		opt.TargetBound = uint64(len(lists)) // local IDs within Ni
		_, err := refenc.EncodeLists(w, lists, opt)
		return err
	})
}

func (paperCodec) DecodeIntra(buf []byte, numLists int) (*decodedIntra, error) {
	r := bitio.NewByteReader(buf)
	lists, err := refenc.DecodeListsBounded(r, numLists, uint64(numLists))
	if err != nil {
		return nil, fmt.Errorf("snode: intranode decode: %w", err)
	}
	return &decodedIntra{lists: lists}, nil
}

func (paperCodec) EncodeSuperPos(dst []byte, srcs []int32, lists [][]int32, niSize, njSize int32, opt refenc.Options) ([]byte, error) {
	if len(srcs) != len(lists) {
		return dst, fmt.Errorf("snode: superPos %d sources but %d lists", len(srcs), len(lists))
	}
	return paperEncode(dst, func(w *bitio.Writer) error {
		coding.WriteBoundedGapList(w, srcs, uint64(niSize))
		opt.TargetBound = uint64(njSize)
		_, err := refenc.EncodeLists(w, lists, opt)
		return err
	})
}

func (paperCodec) DecodeSuperPosSources(buf []byte, numSrcs int, niSize int32) ([]int32, encodedLists, error) {
	r := bitio.NewByteReader(buf)
	srcs, err := coding.ReadBoundedGapList(r, numSrcs, uint64(niSize), make([]int32, 0, min(numSrcs, int(niSize))))
	if err != nil {
		return nil, encodedLists{}, fmt.Errorf("snode: superPos sources: %w", err)
	}
	return srcs, listsAfter(buf, r), nil
}

func (paperCodec) DecodeSuperPosLists(enc encodedLists, numSrcs int, njSize int32) (refenc.Lists, error) {
	lists, err := refenc.DecodeListsBounded(enc.reader(), numSrcs, uint64(njSize))
	if err != nil {
		return refenc.Lists{}, fmt.Errorf("snode: superPos lists: %w", err)
	}
	return lists, nil
}

func (paperCodec) EncodeSuperNeg(dst []byte, complements [][]int32, njSize int32, opt refenc.Options) ([]byte, error) {
	return paperEncode(dst, func(w *bitio.Writer) error {
		opt.TargetBound = uint64(njSize)
		_, err := refenc.EncodeLists(w, complements, opt)
		return err
	})
}

func (paperCodec) DecodeSuperNeg(buf []byte, numLists int, njSize int32) (*decodedSuperNeg, error) {
	r := bitio.NewByteReader(buf)
	lists, err := refenc.DecodeListsBounded(r, numLists, uint64(njSize))
	if err != nil {
		return nil, fmt.Errorf("snode: superNeg decode: %w", err)
	}
	return &decodedSuperNeg{njSize: njSize, lists: lists}, nil
}
