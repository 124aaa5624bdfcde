package snode

import (
	"fmt"

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
// The concrete byte layout is owned by a Codec. The paper's refenc
// scheme is codec/paper (ID 0, the default and the format of every
// artifact built before codecs existed); codec/lz is an LZ-style
// ordered-list coder (common-prefix copy + byte-aligned gap residuals,
// after Grabowski & Bieniecki); codec/log is a Log(Graph)-style
// succinct coder (IDs bit-packed at ceil(log2(bound)) width with
// per-list logarithmized gap arrays, after Besta et al.). The builder
// picks one codec per supernode (fixed by Config.Codec, or per-supernode
// by the "auto" bake-off) and records it in the directory so the reader
// dispatches per payload.

// Codec encodes and decodes the three payload kinds over local ID
// spaces. Encoders append to dst and return the extended slice; decoders
// must validate that every produced local ID lies inside its bound and
// reject corrupt input with an error (never panic). Every decoder
// returns its lists as one refenc.Lists — an offsets array and an ID
// array, nothing per list — and decode results are immutable once
// returned (they are shared through the graph cache).
//
// Encode methods take the build's refenc.Options; only codec/paper
// consults it (reference window, gap code), the others ignore it. Decode
// takes no options — every codec's wire format is self-describing.
type Codec interface {
	// ID is the codec's wire identifier, recorded per directory entry.
	ID() uint8
	// Name is the codec's stable human-readable name ("paper", ...).
	Name() string

	// EncodeIntra appends an intranode graph: lists[k] is the local
	// adjacency of Ni's k-th page restricted to Ni (strictly increasing
	// values in [0, len(lists))).
	EncodeIntra(dst []byte, lists [][]int32, opt refenc.Options) ([]byte, error)
	DecodeIntra(buf []byte, numLists int) (*decodedIntra, error)

	// EncodeSuperPos appends a positive superedge graph. srcs are the
	// local (within Ni) IDs of pages with at least one link into Nj,
	// strictly increasing; lists are their targets as local Nj IDs.
	EncodeSuperPos(dst []byte, srcs []int32, lists [][]int32, niSize, njSize int32, opt refenc.Options) ([]byte, error)
	// A superPos payload decodes in two steps, because a lookup's page
	// is a source in only a few of the superedge graphs it consults:
	// DecodeSuperPosSources reads the source IDs that open the payload
	// and returns the rest of it, still encoded, as a tail of buf;
	// DecodeSuperPosLists decodes that tail into one target list per
	// source. decodeSuperPos composes them into the whole graph. Sources
	// are strictly increasing in [0, niSize), so a decoder sizes their
	// slice by the smaller of numSrcs and niSize.
	DecodeSuperPosSources(buf []byte, numSrcs int, niSize int32) ([]int32, encodedLists, error)
	DecodeSuperPosLists(enc encodedLists, numSrcs int, njSize int32) (refenc.Lists, error)

	// EncodeSuperNeg appends a negative superedge graph: lists[k] is the
	// COMPLEMENT of the k-th Ni page's targets within Nj (so a page with
	// no links into Nj stores all of Nj).
	EncodeSuperNeg(dst []byte, complements [][]int32, njSize int32, opt refenc.Options) ([]byte, error)
	DecodeSuperNeg(buf []byte, numLists int, njSize int32) (*decodedSuperNeg, error)
}

// Codec IDs. The ID is a wire value (directory entries reference it);
// never renumber. codec/paper must stay 0: pre-codec artifacts carry no
// codec field and read back as zero.
const (
	codecIDPaper uint8 = 0
	codecIDLZ    uint8 = 1
	codecIDLog   uint8 = 2
	numCodecs          = 3
)

// Codec names accepted by Config.Codec and the -codec flags.
const (
	CodecPaper = "paper"
	CodecLZ    = "lz"
	CodecLog   = "log"
	// CodecAuto is not a codec: it asks the builder to run the
	// per-supernode bake-off over every registered codec.
	CodecAuto = "auto"
)

// codecTable maps codec IDs to implementations. Indexed by wire ID.
var codecTable = [numCodecs]Codec{
	codecIDPaper: paperCodec{},
	codecIDLZ:    lzCodec{},
	codecIDLog:   logCodec{},
}

// codecByID returns the codec for a wire ID, or an error for IDs from a
// future format version.
func codecByID(id uint8) (Codec, error) {
	if int(id) >= len(codecTable) {
		return nil, fmt.Errorf("snode: unknown codec ID %d (artifact from a newer version?)", id)
	}
	return codecTable[id], nil
}

// codecByName resolves a Config.Codec / -codec string. The empty string
// means the paper codec. CodecAuto is rejected here: it is a builder
// policy, not a codec.
func codecByName(name string) (Codec, error) {
	switch name {
	case "", CodecPaper:
		return codecTable[codecIDPaper], nil
	case CodecLZ:
		return codecTable[codecIDLZ], nil
	case CodecLog:
		return codecTable[codecIDLog], nil
	default:
		return nil, fmt.Errorf("snode: unknown codec %q (want %s, %s, %s, or %s)",
			name, CodecPaper, CodecLZ, CodecLog, CodecAuto)
	}
}

// CodecNames lists the registered codec names in wire-ID order, plus
// the "auto" policy — the accepted values for -codec flags.
func CodecNames() []string {
	names := make([]string, 0, numCodecs+1)
	for _, c := range codecTable {
		names = append(names, c.Name())
	}
	return append(names, CodecAuto)
}

// decodedIntra is the in-memory form of an intranode graph.
type decodedIntra struct {
	lists refenc.Lists
}

func (g *decodedIntra) edgeCount() int64 { return int64(len(g.lists.IDs)) }

// memSize, here and below, is what the graph's arrays occupy — their
// capacity, which for everything a decoder returns is their length.
func (g *decodedIntra) memSize() int64 { return g.lists.MemSize() }

// encodedLists is the still-encoded list section of a superPos payload:
// the payload from the byte holding the section's first bit, and that
// bit's offset within the byte (0 for a byte-aligned codec).
type encodedLists struct {
	buf    []byte
	bitOff uint8
}

// listsAfter is the list section a bit-level codec returns once r has
// read the sources off the front of buf.
func listsAfter(buf []byte, r *bitio.Reader) encodedLists {
	pos := r.Pos()
	return encodedLists{buf: buf[pos>>3:], bitOff: uint8(pos & 7)}
}

// reader positions a bit reader at the section's first bit.
func (enc encodedLists) reader() *bitio.Reader {
	r := bitio.NewByteReader(enc.buf)
	_ = r.Seek(int(enc.bitOff)) // cannot fail: bitOff > 0 only inside a byte of buf
	return r
}

// decodeSuperPos is the full decode of a superPos payload: its sources,
// then its lists.
func decodeSuperPos(cd Codec, buf []byte, numSrcs int, niSize, njSize int32) (*decodedSuperPos, error) {
	srcs, enc, err := cd.DecodeSuperPosSources(buf, numSrcs, niSize)
	if err != nil {
		return nil, err
	}
	lists, err := cd.DecodeSuperPosLists(enc, numSrcs, njSize)
	if err != nil {
		return nil, err
	}
	return &decodedSuperPos{srcs: srcs, lists: lists}, nil
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
	srcs, enc, err := cd.DecodeSuperPosSources(buf, numSrcs, niSize)
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
	lists, err := g.codec.DecodeSuperPosLists(g.enc, len(g.srcs), g.njSize)
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

// checkLocalIDs rejects lists whose entries escape the local ID space.
// Production decode paths validate inline (fused into each codec's
// decode loop); this remains as the oracle the fuzz and corruption
// tests compare the fused checks against.
func checkLocalIDs(ids []int32, bound int32) error {
	for _, v := range ids {
		if v < 0 || v >= bound {
			return fmt.Errorf("local id %d outside [0,%d)", v, bound)
		}
	}
	return nil
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
