package snode

import (
	"fmt"
	"sync"

	"snode/internal/bitio"
	"snode/internal/refenc"
)

// Graph wire formats. Every graph starts byte-aligned in an index file;
// NumLists, NumBytes, and the codec ID live in the directory entry.
//
//	intranode:  adjacency lists, one per page of Ni (local target IDs)
//	superPos:   source local IDs within Ni, then one target list per
//	            source (local IDs within Nj)
//	superNeg:   complement lists over Nj's local ID space, one per page
//	            of Ni
//
// That framing is written once, here (encodePayload, decodeGraph, and
// the sources-then-lists split the serving path uses). What a Codec owns
// is how one run of sources and one sequence of lists are coded: the
// paper's refenc scheme is codec/paper (ID 0, the default and the format
// of every artifact built before codecs existed); codec/log is a
// Log(Graph)-style succinct coder (IDs bit-packed at ceil(log2(bound))
// width with per-list logarithmized gap arrays, after Besta et al.). A
// build uses one codec (Config.Codec) and records it per directory entry,
// so the reader dispatches per payload.

// Codec codes the two things a payload is made of, over a local ID space
// [0, bound): one strictly increasing run whose length the directory
// knows (a superPos graph's sources), and a sequence of strictly
// increasing lists. Both codecs kept are bit-level, so the writers share
// a bit writer; the readers take the payload bytes and make their bit
// reader themselves, where it stays on the stack (one handed through the
// interface would escape: an allocation per graph loaded). Decoders must
// validate that every produced local ID lies inside its bound and reject
// corrupt input with an error (never panic). A list sequence decodes
// into one refenc.Lists — an offsets array and an ID array, nothing per
// list — and decode results are immutable once returned (they are shared
// through the graph cache).
type Codec interface {
	// ID is the codec's wire identifier, recorded per directory entry.
	ID() uint8
	// Name is the codec's stable human-readable name ("paper", ...).
	Name() string

	// writeRun appends a strictly increasing run over [0, bound); its
	// length is not coded. An empty run writes nothing.
	writeRun(w *bitio.Writer, run []int32, bound int32)
	// readRun appends the n values of the run that opens buf to dst and
	// returns the rest of buf, still encoded.
	readRun(buf []byte, n int, bound int32, dst []int32) ([]int32, encodedLists, error)

	// encodeLists appends the lists, each strictly increasing in
	// [0, bound). Only codec/paper consults opt (reference window, gap
	// code); decoding takes no options — every wire format is
	// self-describing.
	encodeLists(w *bitio.Writer, lists [][]int32, bound int32, opt refenc.Options) error
	decodeLists(enc encodedLists, numLists int, bound int32) (refenc.Lists, error)
	// decodeList appends list k of the sequence to dst and reports how
	// many list entries it decoded to get there. It decodes lists 0..k
	// and no more (an exact-strategy refenc stream, which stores lists
	// out of order, whole), allocates nothing beyond dst for the formats
	// a build writes (dst may grow to the longest of those lists),
	// accepts whatever the whole decode accepts, with list k equal to
	// that decode's, and refuses list k when the whole decode refuses a
	// list at or before it.
	decodeList(enc encodedLists, numLists int, bound int32, k int, dst []int32) ([]int32, int, error)
}

// Codec IDs. The ID is a wire value (directory entries reference it);
// never renumber. ID 1 was codec/lz, retired (behind codec/log on size
// and on a cold lookup, EXPERIMENTS.md): it is
// never reused, artifacts that name it are refused at Open, and
// numCodecs stays 3 so that 2 keeps meaning codec/log.
const (
	codecIDPaper uint8 = 0
	codecIDLZ    uint8 = 1 // retired
	codecIDLog   uint8 = 2
	numCodecs          = 3
)

// Codec names accepted by Config.Codec and the -codec flags.
const (
	CodecPaper = "paper"
	CodecLog   = "log"
)

// codecTable maps codec IDs to implementations. Indexed by wire ID; the
// retired ID's entry is nil, which Open never lets a directory reach.
var codecTable = [numCodecs]Codec{
	codecIDPaper: paperCodec{},
	codecIDLog:   logCodec{},
}

// codecByID returns the codec for a wire ID, or an error for the retired
// ID and for IDs from a future format version.
func codecByID(id uint8) (Codec, error) {
	if id == codecIDLZ {
		return nil, fmt.Errorf("snode: codec ID %d is the lz codec, which was retired: rebuild the dataset with -codec %s or %s", id, CodecPaper, CodecLog)
	}
	if int(id) >= len(codecTable) {
		return nil, fmt.Errorf("snode: unknown codec ID %d (artifact from a newer version?)", id)
	}
	return codecTable[id], nil
}

// codecByName resolves a Config.Codec / -codec string. The empty string
// means the paper codec.
func codecByName(name string) (Codec, error) {
	switch name {
	case "", CodecPaper:
		return codecTable[codecIDPaper], nil
	case CodecLog:
		return codecTable[codecIDLog], nil
	default:
		return nil, fmt.Errorf("snode: unknown codec %q: want %s or %s (lz and auto were removed)", name, CodecPaper, CodecLog)
	}
}

// CodecNames lists the codec names in wire-ID order — the accepted
// values for -codec flags.
func CodecNames() []string { return []string{CodecPaper, CodecLog} }

// bitWriters pools bit writers across encode calls; encoding fans out
// across build workers and each finished blob is copied out of the
// writer before release.
var bitWriters = sync.Pool{New: func() any { return bitio.NewWriter(1 << 16) }}

// encodePayload appends one graph's payload to dst in cd's format. An
// intranode graph's lists[k] is the local adjacency of Ni's k-th page
// restricted to Ni, so its ID space is len(lists). A positive superedge
// graph is its sources — the local (within Ni) IDs of the pages with at
// least one link into Nj, strictly increasing — then their targets as
// local Nj IDs, one list per source. A negative one is, per page of Ni,
// the COMPLEMENT of its targets within Nj (so a page with no links into
// Nj stores all of Nj). srcs and niSize are consulted for kindSuperPos
// only, njSize for the superedge kinds.
func encodePayload(cd Codec, dst []byte, kind uint8, srcs []int32, lists [][]int32, niSize, njSize int32, opt refenc.Options) ([]byte, error) {
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
		cd.writeRun(w, srcs, niSize)
	}
	if err := cd.encodeLists(w, lists, bound, opt); err != nil {
		return dst, err
	}
	return w.AppendTo(dst), nil
}

// decodeGraph is the whole decode of one payload — no hooks, no metrics.
// An intranode graph's ID space is its list count; niSize and njSize are
// consulted for the superedge kinds only.
func decodeGraph(cd Codec, kind uint8, buf []byte, numLists int, niSize, njSize int32) (decodedGraph, error) {
	var g encodedGraph // a view of buf: nothing is copied, and it does not outlive the call
	if err := g.init(cd, kind, buf, numLists, niSize, njSize); err != nil {
		return nil, err
	}
	return g.materialize()
}

// decodeSuperPosSources reads the source IDs that open a superPos
// payload and returns the rest of it, still encoded, as a tail of buf.
// Sources are strictly increasing in [0, niSize), so their slice is
// sized by the smaller of numSrcs and niSize.
func decodeSuperPosSources(cd Codec, buf []byte, numSrcs int, niSize int32) ([]int32, encodedLists, error) {
	srcs, enc, err := cd.readRun(buf, numSrcs, niSize, make([]int32, 0, min(numSrcs, int(niSize))))
	if err != nil {
		return nil, encodedLists{}, fmt.Errorf("snode: superPos sources: %w", err)
	}
	return srcs, enc, nil
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

// encodedLists is a still-encoded list sequence: the payload from the
// byte holding the sequence's first bit, and that bit's offset within the
// byte (0 for a whole payload).
type encodedLists struct {
	buf    []byte
	bitOff uint8
}

// listsAfter is the list section left once r has read the sources off
// the front of buf.
func listsAfter(buf []byte, r *bitio.Reader) encodedLists {
	pos := r.Pos()
	return encodedLists{buf: buf[pos>>3:], bitOff: uint8(pos & 7)}
}

// reader positions a bit reader at the sequence's first bit.
func (enc encodedLists) reader() *bitio.Reader {
	r := bitio.NewByteReader(enc.buf)
	_ = r.Seek(int(enc.bitOff)) // cannot fail: bitOff > 0 only inside a byte of buf
	return r
}

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
	buf      []byte  // the list section (encodedLists, unpacked to keep the struct at 128 bytes)
	bitOff   uint8
	codec    uint8 // wire ID
	kind     uint8
	numLists int32
	bound    int32 // the lists' local ID space: numLists for an intranode graph, Nj's size otherwise
}

// lists is the list section, still encoded.
func (g *encodedGraph) lists() encodedLists { return encodedLists{buf: g.buf, bitOff: g.bitOff} }

// newEncodedGraph makes the encoded state of a payload of any kind,
// copying its list section out of buf.
func newEncodedGraph(cd Codec, kind uint8, buf []byte, numLists int, niSize, njSize int32) (*encodedGraph, error) {
	g := new(encodedGraph)
	if err := g.init(cd, kind, buf, numLists, niSize, njSize); err != nil {
		return nil, err
	}
	g.buf = append([]byte(nil), g.buf...)
	return g, nil
}

// init points g at the payload in buf, decoding a positive superedge
// graph's sources: niSize and njSize are consulted for the superedge
// kinds only.
func (g *encodedGraph) init(cd Codec, kind uint8, buf []byte, numLists int, niSize, njSize int32) error {
	g.buf, g.codec, g.kind, g.numLists, g.bound = buf, cd.ID(), kind, int32(numLists), njSize
	switch kind {
	case kindIntra:
		g.bound = g.numLists
	case kindSuperPos:
		srcs, enc, err := decodeSuperPosSources(cd, buf, numLists, niSize)
		g.srcs, g.buf, g.bitOff = srcs, enc.buf, enc.bitOff
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
	lists, err := codecTable[g.codec].decodeLists(g.lists(), int(g.numLists), g.bound)
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
// decoded. A negative superedge graph's list is a complement: it is
// decoded into dst and replaced there by the targets.
func (g *encodedGraph) appendList(k int, dst []int32) ([]int32, int, error) {
	from := len(dst)
	dst, n, err := codecTable[g.codec].decodeList(g.lists(), int(g.numLists), g.bound, k, dst)
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
