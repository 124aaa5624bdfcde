package snode

import (
	"fmt"
	"sync"

	"snode/internal/bitio"
	"snode/internal/coding"
	"snode/internal/refenc"
)

// Graph wire formats. Every graph starts byte-aligned in an index file;
// NumLists and NumBytes live in the directory entry.
//
//	intranode:  adjacency lists, one per page of Ni (local target IDs)
//	superPos:   source local IDs within Ni, then one target list per
//	            source (local IDs within Nj)
//	superNeg:   complement lists over Nj's local ID space, one per page
//	            of Ni
//
// Every payload is coded as paper §3 codes it, over a local ID space
// [0, bound): a superPos graph's sources are one bounded gap-coded run
// (coding.WriteBoundedGapList; the directory knows their count), and a
// list sequence is refenc's reference encoding. The framing is written
// once, here (encodePayload, and graph's sources-then-lists split, which
// the serving path and the whole decode share). Decoders validate every
// local ID against its bound and refuse corrupt input with an error,
// never a panic; a list sequence decodes into one refenc.Lists,
// immutable once returned (it is shared through the graph cache).

// bitWriters pools bit writers across encode calls; encoding fans out
// across build workers and each finished blob is copied out of the
// writer before release.
var bitWriters = sync.Pool{New: func() any { return bitio.NewWriter(1 << 16) }}

// encodePayload appends one graph's payload to dst, growing it at most
// once. An intranode graph's lists[k] is the local adjacency of Ni's
// k-th page restricted to Ni, so its ID space is len(lists). A positive
// superedge graph is its sources — the local (within Ni) IDs of the
// pages with at least one link into Nj, strictly increasing — then their
// targets as local Nj IDs, one list per source. A negative one is, per
// page of Ni, the COMPLEMENT of its targets within Nj (so a page with no
// links into Nj stores all of Nj). srcs and niSize are consulted for
// kindSuperPos only, njSize for the superedge kinds.
func encodePayload(dst []byte, kind uint8, srcs []int32, lists [][]int32, niSize, njSize int32, opt refenc.Options) ([]byte, error) {
	if kind == kindSuperPos && len(srcs) != len(lists) {
		return dst, fmt.Errorf("snode: superPos %d sources but %d lists", len(srcs), len(lists))
	}
	w := bitWriters.Get().(*bitio.Writer)
	defer bitWriters.Put(w)
	w.Reset()
	bound := njSize
	switch kind {
	case kindIntra:
		bound = int32(len(lists))
	case kindSuperPos:
		coding.WriteBoundedGapList(w, srcs, uint64(niSize))
	}
	opt.TargetBound = uint64(bound)
	if _, err := refenc.EncodeLists(w, lists, opt); err != nil {
		return dst, err
	}
	// One allocation, of exactly the blob's padded bytes, where appending
	// the stream and then its last partial byte could allocate twice.
	if n := (w.BitLen() + 7) / 8; cap(dst)-len(dst) < n {
		dst = append(make([]byte, 0, len(dst)+n), dst...)
	}
	return w.AppendTo(dst), nil
}

// decodeSuperPosSources appends to dst the source IDs that open a
// superPos payload and returns them with the bit position in buf at
// which its lists start. Sources are strictly increasing in [0, niSize),
// so a nil dst is allocated at the smaller of numSrcs and niSize.
func decodeSuperPosSources(buf []byte, numSrcs int, niSize int32, dst []int32) ([]int32, int, error) {
	if dst == nil {
		dst = make([]int32, 0, min(numSrcs, int(niSize)))
	}
	r := bitio.NewByteReader(buf)
	srcs, err := coding.ReadBoundedGapList(r, numSrcs, uint64(niSize), dst)
	if err != nil {
		return nil, 0, fmt.Errorf("snode: superPos sources: %w", err)
	}
	return srcs, r.Pos(), nil
}

// seek returns the index of the first of the ascending IDs xs, from
// index from on, that is at least v (len(xs) when none is): one step of
// a merge walk of a group's local IDs against a positive superedge
// graph's sources, on either side. Galloping from from, a walk that
// takes k steps through n IDs costs O(k log(n/k)) comparisons; without,
// a step is a binary search, which is what a lone page's walk wants.
func seek(xs []int32, from int, v int32, gallop bool) int {
	lo, hi := from, len(xs)
	for step := 1; gallop && lo+step < hi; step *= 2 {
		if xs[lo+step] >= v {
			hi = lo + step
			break
		}
		lo += step
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if xs[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// graph is one lower-level graph in memory, in the first or the second
// of the two states every graph takes in the cache. Encoded, its lists
// are still encoded: a cache miss inserts this state, because a lookup
// needs one list of the graph, and of most positive superedge graphs not
// even that. It holds a private copy of the payload's list section (the
// payload itself sits in a pooled read buffer) and, for a positive
// superedge graph, the decoded sources that open the payload. The lookup
// that loaded it decodes only the list it wants (appendList); one that
// finds it in the cache decodes every list into a new, whole graph
// (materialize), which holds the lists instead and which the cache holds
// in its place. Like every cached graph it is immutable once admitted.
type graph struct {
	cacheNode
	srcs     []int32      // sorted local Ni IDs; a positive superedge graph's only
	buf      []byte       // encoded: the list section, from the byte holding its first bit
	lists    refenc.Lists // whole: the lists, which for a negative superedge graph are complements
	bitOff   uint8        // encoded: that first bit's offset within buf[0] (0 unless sources precede it)
	kind     uint8
	whole    bool
	numLists int32
	bound    int32 // the lists' local ID space: numLists for an intranode graph, Nj's size otherwise
}

// newGraph makes the encoded state of a payload of any kind, copying
// its list section out of buf.
func newGraph(kind uint8, buf []byte, numLists int, niSize, njSize int32) (*graph, error) {
	g := new(graph)
	if err := g.init(kind, buf, numLists, niSize, njSize, nil); err != nil {
		return nil, err
	}
	g.buf = append([]byte(nil), g.buf...)
	return g, nil
}

// init points g at the payload in buf, decoding a positive superedge
// graph's sources into srcs (allocated at their size when nil): niSize
// and njSize are consulted for the superedge kinds only.
func (g *graph) init(kind uint8, buf []byte, numLists int, niSize, njSize int32, srcs []int32) error {
	g.buf, g.kind, g.numLists, g.bound, g.srcs, g.bitOff = buf, kind, int32(numLists), njSize, nil, 0
	switch kind {
	case kindIntra:
		g.bound = g.numLists
	case kindSuperPos:
		srcs, pos, err := decodeSuperPosSources(buf, numLists, niSize, srcs)
		g.srcs, g.buf, g.bitOff = srcs, buf[pos>>3:], uint8(pos&7)
		return err
	case kindSuperNeg:
	default:
		return fmt.Errorf("snode: graph has unknown kind %d", kind)
	}
	return nil
}

// listReader positions a bit reader at the list section's first bit.
func (g *graph) listReader() *bitio.Reader {
	r := bitio.NewByteReader(g.buf)
	_ = r.Seek(int(g.bitOff)) // cannot fail: bitOff > 0 only inside a byte of buf
	return r
}

// edgeCount reports the list entries g holds decoded (positive links, or
// complement entries for a negative graph): none while it is encoded.
// The cache counts a graph's edges when it is materialized, and the
// entries a lookup decodes out of the encoded state as it decodes them.
func (g *graph) edgeCount() int64 { return int64(len(g.lists.IDs)) }

// memSize is what the cache charges for g: the capacity of its arrays,
// which for everything a decoder returns is their length, plus a literal
// 64 bytes while it is encoded and 8 for a whole negative superedge
// graph — the charges the cache's admissions, evictions and pinned
// counters were recorded under, not the 160-byte struct itself.
func (g *graph) memSize() int64 {
	switch {
	case !g.whole:
		return int64(cap(g.srcs))*4 + int64(cap(g.buf)) + 64
	case g.kind == kindSuperNeg:
		return g.lists.MemSize() + 8
	}
	return int64(cap(g.srcs))*4 + g.lists.MemSize()
}

// materialize decodes every list of the encoded graph g into a new,
// whole graph, sharing g's sources.
func (g *graph) materialize() (*graph, error) {
	lists, err := refenc.DecodeListsBounded(g.listReader(), int(g.numLists), uint64(g.bound))
	if err != nil {
		return nil, g.listErr(err)
	}
	return &graph{srcs: g.srcs, lists: lists, kind: g.kind, whole: true, numLists: g.numLists, bound: g.bound}, nil
}

// appendList appends to dst the local targets of list k of the encoded
// graph g (a page's, by listOf), decoding no list after it, and reports
// the list entries decoded: refenc.DecodeList decodes lists 0..k (an
// exact-strategy stream, which stores lists out of order, whole),
// allocating nothing beyond dst, and refuses list k when the whole
// decode refuses a list at or before it. A negative superedge graph's
// list is a complement: it is decoded into dst and replaced there by the
// targets.
func (g *graph) appendList(k int, dst []int32) ([]int32, int, error) {
	from := len(dst)
	dst, n, err := refenc.DecodeList(g.listReader(), int(g.numLists), k, uint64(g.bound), dst)
	if err != nil {
		return dst[:from], 0, g.listErr(err)
	}
	if g.kind == kindSuperNeg {
		mid := len(dst)
		dst = appendComplement(dst, dst[from:mid], g.bound)
		dst = append(dst[:from], dst[mid:]...)
	}
	return dst, n, nil
}

// listErr names the list section a decode of g failed in.
func (g *graph) listErr(err error) error {
	switch g.kind {
	case kindIntra:
		return fmt.Errorf("snode: intranode decode: %w", err)
	case kindSuperPos:
		return fmt.Errorf("snode: superPos lists: %w", err)
	}
	return fmt.Errorf("snode: superNeg decode: %w", err)
}

// appendComplement appends [0,n) \ list to dst (list sorted strictly
// increasing).
func appendComplement(dst, list []int32, n int32) []int32 {
	next := int32(0)
	for _, v := range list {
		for ; next < v; next++ {
			dst = append(dst, next)
		}
		next = v + 1
	}
	for ; next < n; next++ {
		dst = append(dst, next)
	}
	return dst
}

// complement returns [0,n) \ list (list sorted strictly increasing).
func complement(list []int32, n int32) []int32 {
	return appendComplement(make([]int32, 0, int(n)-len(list)), list, n)
}
