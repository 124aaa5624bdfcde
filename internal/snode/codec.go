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
// once, here (encodePayload, decodeGraph, and the sources-then-lists
// split the serving path uses). Decoders validate every local ID against
// its bound and refuse corrupt input with an error, never a panic; a
// list sequence decodes into one refenc.Lists, immutable once returned
// (it is shared through the graph cache).

// Codec wire IDs. Each directory entry and the codec-stats section of
// meta.bin still carry one, and every build writes codecIDPaper; the
// other IDs name coders that are gone and are never reused.
const (
	codecIDPaper uint8 = 0
	codecIDLZ    uint8 = 1 // retired
	codecIDLog   uint8 = 2 // removed
	codecPaper         = "paper"
)

// checkCodecID accepts the paper codec's wire ID and refuses the rest,
// naming the coder an artifact from an older build was written with.
func checkCodecID(id uint8) error {
	switch id {
	case codecIDPaper:
		return nil
	case codecIDLZ:
		return fmt.Errorf("snode: codec ID %d is the lz codec, which was retired: rebuild the dataset", id)
	case codecIDLog:
		return fmt.Errorf("snode: codec ID %d is the log codec, which was removed: rebuild the dataset", id)
	}
	return fmt.Errorf("snode: unknown codec ID %d (artifact from a newer version?)", id)
}

// bitWriters pools bit writers across encode calls; encoding fans out
// across build workers and each finished blob is copied out of the
// writer before release.
var bitWriters = sync.Pool{New: func() any { return bitio.NewWriter(1 << 16) }}

// encodePayload appends one graph's payload to dst. An intranode
// graph's lists[k] is the local adjacency of Ni's k-th page restricted
// to Ni, so its ID space is len(lists). A positive superedge graph is
// its sources — the local (within Ni) IDs of the pages with at least one
// link into Nj, strictly increasing — then their targets as local Nj
// IDs, one list per source. A negative one is, per page of Ni, the
// COMPLEMENT of its targets within Nj (so a page with no links into Nj
// stores all of Nj). srcs and niSize are consulted for kindSuperPos
// only, njSize for the superedge kinds.
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
	return w.AppendTo(dst), nil
}

// decodeGraph is the whole decode of one payload — no hooks, no metrics.
// An intranode graph's ID space is its list count; niSize and njSize are
// consulted for the superedge kinds only.
func decodeGraph(kind uint8, buf []byte, numLists int, niSize, njSize int32) (decodedGraph, error) {
	var g encodedGraph // a view of buf: nothing is copied, and it does not outlive the call
	if err := g.init(kind, buf, numLists, niSize, njSize); err != nil {
		return nil, err
	}
	return g.materialize()
}

// decodeSuperPosSources reads the source IDs that open a superPos
// payload and returns them with the bit position in buf at which its
// lists start. Sources are strictly increasing in [0, niSize), so their
// slice is sized by the smaller of numSrcs and niSize.
func decodeSuperPosSources(buf []byte, numSrcs int, niSize int32) ([]int32, int, error) {
	r := bitio.NewByteReader(buf)
	srcs, err := coding.ReadBoundedGapList(r, numSrcs, uint64(niSize), make([]int32, 0, min(numSrcs, int(niSize))))
	if err != nil {
		return nil, 0, fmt.Errorf("snode: superPos sources: %w", err)
	}
	return srcs, r.Pos(), nil
}

// decodedIntra is the in-memory form of an intranode graph.
type decodedIntra struct {
	cacheNode
	lists refenc.Lists
}

func (g *decodedIntra) edgeCount() int64 { return int64(len(g.lists.IDs)) }

// memSize, here and below, is what the graph's arrays occupy — their
// capacity, which for everything a decoder returns is their length.
func (g *decodedIntra) memSize() int64 { return g.lists.MemSize() }

// findSource returns the index of srcLocal in the sorted source IDs of
// a positive superedge graph, or -1 when the page has no link through
// it.
func findSource(srcs []int32, srcLocal int32) int {
	lo, hi := 0, len(srcs)
	for lo < hi {
		mid := (lo + hi) / 2
		if srcs[mid] < srcLocal {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(srcs) && srcs[lo] == srcLocal {
		return lo
	}
	return -1
}

// decodedSuperPos is the in-memory form of a positive superedge graph.
type decodedSuperPos struct {
	cacheNode
	srcs  []int32 // sorted local Ni IDs
	lists refenc.Lists
}

func (g *decodedSuperPos) edgeCount() int64 { return int64(len(g.lists.IDs)) }

func (g *decodedSuperPos) memSize() int64 {
	return int64(cap(g.srcs))*4 + g.lists.MemSize()
}

// encodedGraph is the first of the two states every graph takes in the
// cache: its lists still encoded. A cache miss inserts this, because a
// lookup needs one list of the graph, and of most positive superedge
// graphs not even that: it holds a private copy of the payload's list
// section (the payload itself sits in a pooled read buffer) and, for a
// positive superedge graph, the decoded sources that open the payload.
// The lookup that loaded it decodes only the list it wants
// (appendList); one that finds it in the cache decodes every list, and
// the cache replaces this entry with the whole graph (materialize).
// Like every cached graph it is immutable once admitted.
type encodedGraph struct {
	cacheNode
	srcs     []int32 // sorted local Ni IDs; a positive superedge graph's only
	buf      []byte  // the list section, from the byte holding its first bit
	bitOff   uint8   // that bit's offset within the byte (0 unless sources precede it)
	kind     uint8
	numLists int32
	bound    int32 // the lists' local ID space: numLists for an intranode graph, Nj's size otherwise
}

// lists positions a bit reader at the list section's first bit.
func (g *encodedGraph) lists() *bitio.Reader {
	r := bitio.NewByteReader(g.buf)
	_ = r.Seek(int(g.bitOff)) // cannot fail: bitOff > 0 only inside a byte of buf
	return r
}

// newEncodedGraph makes the encoded state of a payload of any kind,
// copying its list section out of buf.
func newEncodedGraph(kind uint8, buf []byte, numLists int, niSize, njSize int32) (*encodedGraph, error) {
	g := new(encodedGraph)
	if err := g.init(kind, buf, numLists, niSize, njSize); err != nil {
		return nil, err
	}
	g.buf = append([]byte(nil), g.buf...)
	return g, nil
}

// init points g at the payload in buf, decoding a positive superedge
// graph's sources: niSize and njSize are consulted for the superedge
// kinds only.
func (g *encodedGraph) init(kind uint8, buf []byte, numLists int, niSize, njSize int32) error {
	g.buf, g.kind, g.numLists, g.bound = buf, kind, int32(numLists), njSize
	switch kind {
	case kindIntra:
		g.bound = g.numLists
	case kindSuperPos:
		srcs, pos, err := decodeSuperPosSources(buf, numLists, niSize)
		g.srcs, g.buf, g.bitOff = srcs, buf[pos>>3:], uint8(pos&7)
		return err
	case kindSuperNeg:
	default:
		return fmt.Errorf("snode: graph has unknown kind %d", kind)
	}
	return nil
}

// edgeCount is zero: no list entry has been decoded. The cache counts
// the graph's edges when it is materialized, and the entries a lookup
// decodes out of it as it decodes them.
func (g *encodedGraph) edgeCount() int64 { return 0 }

func (g *encodedGraph) memSize() int64 {
	// + the struct's own 64 bytes: not the cache node it embeds, which no
	// graph form is charged for.
	return int64(cap(g.srcs))*4 + int64(cap(g.buf)) + 64
}

// listOf returns the index of the list that holds the links of the page
// with local ID local (within Ni), or -1 when the graph holds none.
func (g *encodedGraph) listOf(local int32) int {
	if g.kind == kindSuperPos {
		return findSource(g.srcs, local)
	}
	return int(local)
}

// materialize decodes every list: the whole graph, sharing g's sources.
func (g *encodedGraph) materialize() (decodedGraph, error) {
	lists, err := refenc.DecodeListsBounded(g.lists(), int(g.numLists), uint64(g.bound))
	if err != nil {
		return nil, g.listErr(err)
	}
	switch g.kind {
	case kindIntra:
		return &decodedIntra{lists: lists}, nil
	case kindSuperPos:
		return &decodedSuperPos{srcs: g.srcs, lists: lists}, nil
	}
	return &decodedSuperNeg{njSize: g.bound, lists: lists}, nil
}

// appendList appends to dst the local targets of list k (a page's, by
// listOf), decoding no list after it, and reports the list entries
// decoded: refenc.DecodeList decodes lists 0..k (an exact-strategy
// stream, which stores lists out of order, whole), allocating nothing
// beyond dst, and refuses list k when the whole decode refuses a list at
// or before it. A negative superedge graph's list is a complement: it is
// decoded into dst and replaced there by the targets.
func (g *encodedGraph) appendList(k int, dst []int32) ([]int32, int, error) {
	from := len(dst)
	dst, n, err := refenc.DecodeList(g.lists(), int(g.numLists), k, uint64(g.bound), dst)
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
func (g *encodedGraph) listErr(err error) error {
	switch g.kind {
	case kindIntra:
		return fmt.Errorf("snode: intranode decode: %w", err)
	case kindSuperPos:
		return fmt.Errorf("snode: superPos lists: %w", err)
	}
	return fmt.Errorf("snode: superNeg decode: %w", err)
}

// decodedSuperNeg keeps the complement form; positive adjacency is
// materialized lazily so dense blocks never explode the cache.
type decodedSuperNeg struct {
	cacheNode
	njSize int32
	lists  refenc.Lists // complements, one per page of Ni
}

func (g *decodedSuperNeg) edgeCount() int64 { return int64(len(g.lists.IDs)) }

func (g *decodedSuperNeg) memSize() int64 { return g.lists.MemSize() + 8 }

// appendTargets appends to dst the local targets of the page with local
// ID local out of a whole graph: its intranode list, its list as a
// source of a positive superedge graph (none unless it is one), or every
// local Nj ID its complement list in a negative one leaves out.
func appendTargets(g decodedGraph, local int32, dst []int32) ([]int32, error) {
	switch sg := g.(type) {
	case *decodedIntra:
		return append(dst, sg.lists.At(int(local))...), nil
	case *decodedSuperPos:
		if k := findSource(sg.srcs, local); k >= 0 {
			dst = append(dst, sg.lists.At(k)...)
		}
		return dst, nil
	case *decodedSuperNeg:
		return appendComplement(dst, sg.lists.At(int(local)), sg.njSize), nil
	}
	return dst, fmt.Errorf("snode: graph is a %T", g)
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
