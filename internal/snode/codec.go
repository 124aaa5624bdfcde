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
	switch kind {
	case kindIntra:
		lists, err := cd.decodeLists(encodedLists{buf: buf}, numLists, int32(numLists))
		if err != nil {
			return nil, fmt.Errorf("snode: intranode decode: %w", err)
		}
		return &decodedIntra{lists: lists}, nil
	case kindSuperPos:
		srcs, enc, err := decodeSuperPosSources(cd, buf, numLists, niSize)
		if err != nil {
			return nil, err
		}
		lists, err := decodeSuperPosLists(cd, enc, numLists, njSize)
		if err != nil {
			return nil, err
		}
		return &decodedSuperPos{srcs: srcs, lists: lists}, nil
	case kindSuperNeg:
		lists, err := cd.decodeLists(encodedLists{buf: buf}, numLists, njSize)
		if err != nil {
			return nil, fmt.Errorf("snode: superNeg decode: %w", err)
		}
		return &decodedSuperNeg{njSize: njSize, lists: lists}, nil
	default:
		return nil, fmt.Errorf("snode: graph has unknown kind %d", kind)
	}
}

// A superPos payload decodes in two steps, because a lookup's page is a
// source in only a few of the superedge graphs it consults:
// decodeSuperPosSources reads the source IDs that open the payload and
// returns the rest of it, still encoded, as a tail of buf;
// decodeSuperPosLists decodes that tail into one target list per source.
// Sources are strictly increasing in [0, niSize), so their slice is
// sized by the smaller of numSrcs and niSize.
func decodeSuperPosSources(cd Codec, buf []byte, numSrcs int, niSize int32) ([]int32, encodedLists, error) {
	srcs, enc, err := cd.readRun(buf, numSrcs, niSize, make([]int32, 0, min(numSrcs, int(niSize))))
	if err != nil {
		return nil, encodedLists{}, fmt.Errorf("snode: superPos sources: %w", err)
	}
	return srcs, enc, nil
}

func decodeSuperPosLists(cd Codec, enc encodedLists, numSrcs int, njSize int32) (refenc.Lists, error) {
	lists, err := cd.decodeLists(enc, numSrcs, njSize)
	if err != nil {
		return refenc.Lists{}, fmt.Errorf("snode: superPos lists: %w", err)
	}
	return lists, nil
}

// decodedIntra is the in-memory form of an intranode graph.
type decodedIntra struct {
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
	srcs  []int32 // sorted local Ni IDs
	lists refenc.Lists
}

func (g *decodedSuperPos) edgeCount() int64 { return int64(len(g.lists.IDs)) }

func (g *decodedSuperPos) memSize() int64 {
	return int64(cap(g.srcs))*4 + g.lists.MemSize()
}

// targetsOf returns the local Nj targets of the given local Ni source
// (nil if the source has none).
func (g *decodedSuperPos) targetsOf(srcLocal int32) []int32 {
	if k := findSource(g.srcs, srcLocal); k >= 0 {
		return g.lists.At(k)
	}
	return nil
}

// superPosSources is the first of the two states a positive superedge
// graph takes in the cache: its source IDs decoded, its lists still
// encoded. A cache miss inserts this, because all a lookup needs from
// most superedge graphs is that its page is not among the sources; the
// first lookup whose page is decodes the lists and the cache replaces
// this entry with the decodedSuperPos (materialize). Like every cached
// graph it is immutable, and it owns enc — a copy, since the payload it
// was cut from sits in a pooled read buffer.
type superPosSources struct {
	srcs   []int32 // sorted local Ni IDs
	enc    encodedLists
	codec  Codec
	njSize int32
}

// newSuperPosSources decodes the sources of a superPos payload and
// copies its list section out of buf.
func newSuperPosSources(cd Codec, buf []byte, numSrcs int, niSize, njSize int32) (*superPosSources, error) {
	srcs, enc, err := decodeSuperPosSources(cd, buf, numSrcs, niSize)
	if err != nil {
		return nil, err
	}
	own := make([]byte, len(enc.buf))
	copy(own, enc.buf)
	enc.buf = own
	return &superPosSources{srcs: srcs, enc: enc, codec: cd, njSize: njSize}, nil
}

// edgeCount is zero: no list entry has been decoded yet. The cache
// counts the graph's edges when it is materialized.
func (g *superPosSources) edgeCount() int64 { return 0 }

func (g *superPosSources) memSize() int64 {
	return int64(cap(g.srcs))*4 + int64(cap(g.enc.buf)) + 64 // + the struct itself
}

// materialize decodes the lists. The result shares g's sources.
func (g *superPosSources) materialize() (*decodedSuperPos, error) {
	lists, err := decodeSuperPosLists(g.codec, g.enc, len(g.srcs), g.njSize)
	if err != nil {
		return nil, err
	}
	return &decodedSuperPos{srcs: g.srcs, lists: lists}, nil
}

// decodedSuperNeg keeps the complement form; positive adjacency is
// materialized lazily so dense blocks never explode the cache.
type decodedSuperNeg struct {
	njSize int32
	lists  refenc.Lists // complements, one per page of Ni
}

func (g *decodedSuperNeg) edgeCount() int64 { return int64(len(g.lists.IDs)) }

func (g *decodedSuperNeg) memSize() int64 { return g.lists.MemSize() + 8 }

// appendTargets appends the positive local Nj targets of the given Ni
// local source to dst: every local ID in [0, njSize) not present in the
// complement list.
func (g *decodedSuperNeg) appendTargets(srcLocal int32, dst []int32) []int32 {
	comp := g.lists.At(int(srcLocal))
	next := int32(0)
	for _, c := range comp {
		for ; next < c; next++ {
			dst = append(dst, next)
		}
		next = c + 1
	}
	for ; next < g.njSize; next++ {
		dst = append(dst, next)
	}
	return dst
}

// complement returns [0,n) \ list (list sorted strictly increasing).
func complement(list []int32, n int32) []int32 {
	out := make([]int32, 0, int(n)-len(list))
	next := int32(0)
	for _, v := range list {
		for ; next < v; next++ {
			out = append(out, next)
		}
		next = v + 1
	}
	for ; next < n; next++ {
		out = append(out, next)
	}
	return out
}
