package snode

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"time"
)

// meta.bin format: a small custom binary format (magic, version, then
// length-prefixed sections) rather than gob, so the layout is stable,
// inspectable, and independent of Go type details.

const (
	metaMagic = 0x534E4F44 // "SNOD"
	// metaVersion 2 added per-directory-entry codec IDs and the
	// per-codec stats section. Version 1 artifacts predate pluggable
	// codecs and are still read: every payload is codec/paper (ID 0).
	metaVersion  = 2
	metaVersion1 = 1
)

type metaWriter struct {
	w   *bufio.Writer
	buf [binary.MaxVarintLen64]byte
	err error
}

func (mw *metaWriter) uvarint(v uint64) {
	if mw.err != nil {
		return
	}
	n := binary.PutUvarint(mw.buf[:], v)
	_, mw.err = mw.w.Write(mw.buf[:n])
}

func (mw *metaWriter) varint(v int64) {
	if mw.err != nil {
		return
	}
	n := binary.PutVarint(mw.buf[:], v)
	_, mw.err = mw.w.Write(mw.buf[:n])
}

func (mw *metaWriter) str(s string) {
	mw.uvarint(uint64(len(s)))
	if mw.err != nil {
		return
	}
	_, mw.err = mw.w.WriteString(s)
}

func (mw *metaWriter) i32s(xs []int32) {
	mw.uvarint(uint64(len(xs)))
	for _, x := range xs {
		mw.varint(int64(x))
	}
}

func (mw *metaWriter) i64s(xs []int64) {
	mw.uvarint(uint64(len(xs)))
	for _, x := range xs {
		mw.varint(x)
	}
}

// maxMetaElems bounds any length prefix read from meta.bin; a corrupt
// varint must not trigger a giant allocation.
const maxMetaElems = 1 << 27

type metaReader struct {
	r   *bufio.Reader
	err error
}

func (mr *metaReader) uvarint() uint64 {
	if mr.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(mr.r)
	mr.err = err
	return v
}

func (mr *metaReader) varint() int64 {
	if mr.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(mr.r)
	mr.err = err
	return v
}

func (mr *metaReader) str() string {
	n := mr.uvarint()
	if mr.err != nil {
		return ""
	}
	if n > maxMetaElems {
		mr.err = fmt.Errorf("implausible string length %d", n)
		return ""
	}
	b := make([]byte, n)
	_, mr.err = io.ReadFull(mr.r, b)
	return string(b)
}

func (mr *metaReader) i32s() []int32 {
	n := mr.uvarint()
	if mr.err != nil {
		return nil
	}
	if n > maxMetaElems {
		mr.err = fmt.Errorf("implausible slice length %d", n)
		return nil
	}
	xs := make([]int32, n)
	for i := range xs {
		xs[i] = int32(mr.varint())
	}
	return xs
}

func (mr *metaReader) i64s() []int64 {
	n := mr.uvarint()
	if mr.err != nil {
		return nil
	}
	if n > maxMetaElems {
		mr.err = fmt.Errorf("implausible slice length %d", n)
		return nil
	}
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = mr.varint()
	}
	return xs
}

func writeMeta(path string, m *meta) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	mw := &metaWriter{w: bufio.NewWriterSize(f, 1<<20)}
	mw.uvarint(metaMagic)
	mw.uvarint(metaVersion)
	mw.varint(int64(m.NumPages))
	mw.varint(m.NumEdges)
	mw.i32s(m.Perm)
	mw.i32s(m.Inv)
	mw.i32s(m.SnBase)
	mw.uvarint(uint64(len(m.Domains)))
	for _, d := range m.Domains {
		mw.str(d)
	}
	mw.i32s(m.DomFirstSN)
	mw.i64s(m.SuperOff)
	mw.i32s(m.SuperAdj)
	mw.i32s(m.SuperGID)
	mw.i32s(m.IntraGID)
	mw.uvarint(uint64(len(m.Directory)))
	for _, e := range m.Directory {
		mw.uvarint(uint64(e.Kind))
		mw.varint(int64(e.I))
		mw.varint(int64(e.J))
		mw.varint(int64(e.File))
		mw.varint(e.Offset)
		mw.varint(int64(e.NumBytes))
		mw.varint(int64(e.NumLists))
		mw.uvarint(uint64(e.Codec)) // v2
	}
	mw.i64s(m.FileSizes)
	st := &m.Stats
	mw.varint(int64(st.Supernodes))
	mw.varint(st.Superedges)
	mw.varint(st.SupernodeGraphBytes)
	mw.varint(st.IndexFileBytes)
	mw.varint(st.PageIDIndexBytes)
	mw.varint(st.DomainIndexBytes)
	mw.varint(st.PositiveSuperedges)
	mw.varint(st.NegativeSuperedges)
	mw.varint(int64(st.URLSplits))
	mw.varint(int64(st.ClusteredSplits))
	mw.varint(int64(st.BuildTime))
	mw.uvarint(uint64(len(st.Codecs))) // v2
	for _, cs := range st.Codecs {
		mw.uvarint(uint64(cs.ID))
		mw.varint(cs.Supernodes)
		mw.varint(cs.Graphs)
		mw.varint(cs.Bytes)
		mw.varint(cs.Edges)
	}
	if mw.err != nil {
		f.Close()
		return fmt.Errorf("snode: write meta: %w", mw.err)
	}
	if err := mw.w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readMeta(path string) (*meta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	mr := &metaReader{r: bufio.NewReaderSize(f, 1<<20)}
	if mr.uvarint() != metaMagic {
		return nil, fmt.Errorf("snode: %s: bad magic", path)
	}
	v := mr.uvarint()
	if v != metaVersion && v != metaVersion1 {
		return nil, fmt.Errorf("snode: %s: unsupported version %d", path, v)
	}
	m := &meta{}
	m.NumPages = int32(mr.varint())
	m.NumEdges = mr.varint()
	m.Perm = mr.i32s()
	m.Inv = mr.i32s()
	m.SnBase = mr.i32s()
	nd := mr.uvarint()
	if mr.err == nil && nd > maxMetaElems {
		return nil, fmt.Errorf("snode: %s: implausible domain count %d", path, nd)
	}
	m.Domains = make([]string, nd)
	for i := range m.Domains {
		m.Domains[i] = mr.str()
	}
	m.DomFirstSN = mr.i32s()
	m.SuperOff = mr.i64s()
	m.SuperAdj = mr.i32s()
	m.SuperGID = mr.i32s()
	m.IntraGID = mr.i32s()
	ne := mr.uvarint()
	if mr.err == nil && ne > maxMetaElems {
		return nil, fmt.Errorf("snode: %s: implausible directory size %d", path, ne)
	}
	if mr.err == nil {
		m.Directory = make([]dirEntry, ne)
		for i := range m.Directory {
			e := &m.Directory[i]
			e.Kind = uint8(mr.uvarint())
			e.I = int32(mr.varint())
			e.J = int32(mr.varint())
			e.File = int32(mr.varint())
			e.Offset = mr.varint()
			e.NumBytes = int32(mr.varint())
			e.NumLists = int32(mr.varint())
			if v >= metaVersion {
				e.Codec = uint8(mr.uvarint())
			}
			// v1 entries predate codecs: Codec stays 0 = codec/paper.
		}
	}
	m.FileSizes = mr.i64s()
	st := &m.Stats
	st.Supernodes = int(mr.varint())
	st.Superedges = mr.varint()
	st.SupernodeGraphBytes = mr.varint()
	st.IndexFileBytes = mr.varint()
	st.PageIDIndexBytes = mr.varint()
	st.DomainIndexBytes = mr.varint()
	st.PositiveSuperedges = mr.varint()
	st.NegativeSuperedges = mr.varint()
	st.URLSplits = int(mr.varint())
	st.ClusteredSplits = int(mr.varint())
	st.BuildTime = time.Duration(mr.varint())
	if v >= metaVersion {
		nc := mr.uvarint()
		if mr.err == nil && nc > numCodecs {
			return nil, fmt.Errorf("snode: %s: implausible codec stat count %d", path, nc)
		}
		if mr.err == nil {
			st.Codecs = make([]CodecBuildStat, nc)
			for i := range st.Codecs {
				cs := &st.Codecs[i]
				cs.ID = uint8(mr.uvarint())
				cs.Supernodes = mr.varint()
				cs.Graphs = mr.varint()
				cs.Bytes = mr.varint()
				cs.Edges = mr.varint()
				c, err := codecByID(cs.ID)
				if err != nil {
					return nil, fmt.Errorf("snode: %s: codec stats: %w", path, err)
				}
				cs.Name = c.Name()
			}
		}
	}
	if mr.err != nil {
		return nil, fmt.Errorf("snode: read meta: %w", mr.err)
	}
	if err := m.validate(); err != nil {
		return nil, fmt.Errorf("snode: %s: %w", path, err)
	}
	if v == metaVersion1 {
		// Pre-codec artifact: every payload is codec/paper. Synthesize
		// the composition record so Codecs() and the per-codec metrics
		// behave uniformly (stored edge counts were not recorded then
		// and stay zero).
		var payloadBytes int64
		for i := range m.Directory {
			payloadBytes += int64(m.Directory[i].NumBytes)
		}
		m.Stats.Codecs = []CodecBuildStat{{
			ID:         codecIDPaper,
			Name:       CodecPaper,
			Supernodes: int64(m.Stats.Supernodes),
			Graphs:     int64(len(m.Directory)),
			Bytes:      payloadBytes,
		}}
	}
	return m, nil
}

// validate checks the structural invariants every accessor relies on,
// so a corrupt meta.bin that still parses is rejected at Open rather
// than faulting during navigation.
func (m *meta) validate() error {
	n := m.NumPages
	if n < 0 {
		return fmt.Errorf("negative page count %d", n)
	}
	if len(m.Perm) != int(n) || len(m.Inv) != int(n) {
		return fmt.Errorf("permutation length %d/%d for %d pages", len(m.Perm), len(m.Inv), n)
	}
	for ext, internal := range m.Perm {
		if internal < 0 || internal >= n {
			return fmt.Errorf("perm[%d] = %d out of range", ext, internal)
		}
		if m.Inv[internal] != int32(ext) {
			return fmt.Errorf("perm/inv disagree at page %d", ext)
		}
	}
	nSN := m.Stats.Supernodes
	if len(m.SnBase) != nSN+1 || (nSN > 0 && (m.SnBase[0] != 0 || m.SnBase[nSN] != n)) {
		return fmt.Errorf("page-ID index does not cover [0,%d)", n)
	}
	for s := 0; s < nSN; s++ {
		if m.SnBase[s] >= m.SnBase[s+1] {
			return fmt.Errorf("supernode %d has empty or inverted range", s)
		}
	}
	if len(m.DomFirstSN) != len(m.Domains)+1 {
		return fmt.Errorf("domain index length mismatch")
	}
	for k := 0; k+1 < len(m.DomFirstSN); k++ {
		if m.DomFirstSN[k] >= m.DomFirstSN[k+1] || m.DomFirstSN[k] < 0 {
			return fmt.Errorf("domain %d has invalid supernode range", k)
		}
	}
	if len(m.DomFirstSN) > 0 && int(m.DomFirstSN[len(m.DomFirstSN)-1]) != nSN {
		return fmt.Errorf("domain index does not cover all supernodes")
	}
	if len(m.IntraGID) != nSN || len(m.SuperOff) != nSN+1 {
		return fmt.Errorf("supernode graph arrays sized %d/%d for %d supernodes",
			len(m.IntraGID), len(m.SuperOff), nSN)
	}
	if len(m.SuperAdj) != len(m.SuperGID) {
		return fmt.Errorf("superedge arrays disagree")
	}
	nG := int64(len(m.Directory))
	checkGID := func(g GraphID) error {
		if g < 0 || int64(g) >= nG {
			return fmt.Errorf("graph id %d outside directory of %d", g, nG)
		}
		return nil
	}
	for s := 0; s < nSN; s++ {
		if m.SuperOff[s] < 0 || m.SuperOff[s] > m.SuperOff[s+1] ||
			m.SuperOff[s+1] > int64(len(m.SuperAdj)) {
			return fmt.Errorf("supernode %d superedge range invalid", s)
		}
		if err := checkGID(m.IntraGID[s]); err != nil {
			return err
		}
	}
	for k, j := range m.SuperAdj {
		if j < 0 || int(j) >= nSN {
			return fmt.Errorf("superedge %d targets supernode %d of %d", k, j, nSN)
		}
		if err := checkGID(m.SuperGID[k]); err != nil {
			return err
		}
	}
	for gi := range m.Directory {
		e := &m.Directory[gi]
		if int(e.File) < 0 || int(e.File) >= len(m.FileSizes) {
			return fmt.Errorf("graph %d in unknown file %d", gi, e.File)
		}
		if e.NumBytes < 0 || e.Offset < 0 ||
			e.Offset+int64(e.NumBytes) > m.FileSizes[e.File] {
			return fmt.Errorf("graph %d extends past file %d", gi, e.File)
		}
		if e.NumLists < 0 {
			return fmt.Errorf("graph %d has negative list count", gi)
		}
		switch e.Kind {
		case kindIntra, kindSuperPos, kindSuperNeg:
		default:
			return fmt.Errorf("graph %d has unknown kind %d", gi, e.Kind)
		}
		if _, err := codecByID(e.Codec); err != nil {
			return fmt.Errorf("graph %d: %w", gi, err)
		}
		if e.Kind != kindIntra {
			if e.I < 0 || int(e.I) >= nSN || e.J < 0 || int(e.J) >= nSN {
				return fmt.Errorf("graph %d references bad supernodes (%d,%d)", gi, e.I, e.J)
			}
		}
	}
	// The supernode graph and the directory must say the same thing of
	// every graph a lookup can reach: a pointer that resolves to another
	// supernode's graph, or to one of the wrong shape, would be decoded
	// and indexed under the wrong sizes.
	for s := int32(0); int(s) < nSN; s++ {
		size := m.SnBase[s+1] - m.SnBase[s]
		gid := m.IntraGID[s]
		if e := &m.Directory[gid]; e.Kind != kindIntra || e.I != s || e.NumLists != size {
			return fmt.Errorf("supernode %d (%d pages): intranode pointer is graph %d: kind %d, labelled %d, %d lists", s, size, gid, e.Kind, e.I, e.NumLists)
		}
		prev := int32(-1)
		for k := m.SuperOff[s]; k < m.SuperOff[s+1]; k++ {
			j, gid := m.SuperAdj[k], m.SuperGID[k]
			e := &m.Directory[gid]
			if j <= prev {
				return fmt.Errorf("supernode %d: superedge targets do not ascend (%d after %d, graph %d)", s, j, prev, gid)
			}
			if e.Kind == kindIntra || e.I != s || e.J != j ||
				e.NumLists < 1 || e.NumLists > size || (e.Kind == kindSuperNeg && e.NumLists != size) {
				return fmt.Errorf("supernode %d (%d pages): superedge to %d is graph %d: kind %d, labelled (%d,%d), %d lists", s, size, j, gid, e.Kind, e.I, e.J, e.NumLists)
			}
			prev = j
		}
	}
	return nil
}
