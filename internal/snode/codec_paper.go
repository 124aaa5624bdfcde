package snode

import (
	"snode/internal/bitio"
	"snode/internal/coding"
	"snode/internal/refenc"
)

// paperCodec is the wire format of paper §3: refenc reference-encoded
// lists (Huffman/Elias/zeta gap codes) and bounded gap-coded superPos
// sources. It is codec ID 0 — the format of every artifact built before
// codecs were pluggable — and the byte layout here must never change.
type paperCodec struct{}

func (paperCodec) ID() uint8    { return codecIDPaper }
func (paperCodec) Name() string { return CodecPaper }

func (paperCodec) writeRun(w *bitio.Writer, run []int32, bound int32) {
	coding.WriteBoundedGapList(w, run, uint64(bound))
}

func (paperCodec) readRun(buf []byte, n int, bound int32, dst []int32) ([]int32, encodedLists, error) {
	r := bitio.NewByteReader(buf)
	dst, err := coding.ReadBoundedGapList(r, n, uint64(bound), dst)
	return dst, listsAfter(buf, r), err
}

func (paperCodec) encodeLists(w *bitio.Writer, lists [][]int32, bound int32, opt refenc.Options) error {
	opt.TargetBound = uint64(bound)
	_, err := refenc.EncodeLists(w, lists, opt)
	return err
}

func (paperCodec) decodeLists(enc encodedLists, numLists int, bound int32) (refenc.Lists, error) {
	return refenc.DecodeListsBounded(enc.reader(), numLists, uint64(bound))
}

func (paperCodec) decodeList(enc encodedLists, numLists int, bound int32, k int, dst []int32) ([]int32, int, error) {
	return refenc.DecodeList(enc.reader(), numLists, k, uint64(bound), dst)
}
