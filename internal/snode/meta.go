package snode

import (
	"fmt"
	"math"

	"snode/internal/coding"
)

// meta.bin format: a small custom binary format (magic, version, then
// length-prefixed sections) rather than gob, so the layout is stable,
// inspectable, and independent of Go type details.

const (
	metaMagic = 0x534E4F44 // "SNOD"
	// metaVersion is the only version read: any other is refused, and
	// the dataset rebuilt.
	metaVersion = 3
)

func writeInts[T int32 | int64](w *coding.Writer, xs []T) {
	w.Uvarint(uint64(len(xs)))
	for _, x := range xs {
		w.Varint(int64(x))
	}
}

// readInts reads what writeInts wrote, each value through read: r.Int32,
// which refuses what does not fit, or r.Varint.
func readInts[T int32 | int64](r *coding.Reader, read func() T) []T {
	xs := make([]T, r.Count(math.MaxInt32, 1))
	for i := range xs {
		xs[i] = read()
	}
	return xs
}

func writeMeta(path string, m *meta) error {
	return coding.WriteFile(path, func(w *coding.Writer) error {
		w.Uvarint(metaMagic)
		w.Uvarint(metaVersion)
		w.Varint(int64(m.NumPages))
		w.Varint(m.NumEdges)
		writeInts(w, m.Perm)
		writeInts(w, m.Inv)
		writeInts(w, m.SnBase)
		w.Uvarint(uint64(len(m.Domains)))
		for _, d := range m.Domains {
			w.Str(d)
		}
		writeInts(w, m.DomFirstSN)
		writeInts(w, m.SuperOff)
		writeInts(w, m.SuperAdj)
		writeInts(w, m.SuperGID)
		writeInts(w, m.IntraGID)
		w.Uvarint(uint64(len(m.Directory)))
		for _, e := range m.Directory {
			w.Uvarint(uint64(e.Kind))
			w.Varint(int64(e.I))
			w.Varint(int64(e.J))
			w.Varint(int64(e.File))
			w.Varint(e.Offset)
			w.Varint(int64(e.NumBytes))
			w.Varint(int64(e.NumLists))
		}
		writeInts(w, m.FileSizes)
		st := &m.Stats
		w.Varint(int64(st.Supernodes))
		w.Varint(st.Superedges)
		w.Varint(st.SupernodeGraphBytes)
		w.Varint(st.IndexFileBytes)
		w.Varint(st.PageIDIndexBytes)
		w.Varint(st.DomainIndexBytes)
		w.Varint(st.PositiveSuperedges)
		w.Varint(st.NegativeSuperedges)
		w.Varint(int64(st.URLSplits))
		w.Varint(int64(st.ClusteredSplits))
		return nil
	})
}

// readMeta loads what writeMeta wrote. A length prefix is held against
// the bytes the file has left before it sizes anything, a value too wide
// for its field is refused rather than narrowed, and nothing may follow
// the last field.
func readMeta(path string) (*meta, error) {
	r, err := coding.OpenFile(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	if r.Uvarint() != metaMagic {
		return nil, fmt.Errorf("snode: %s: bad magic", path)
	}
	if v := r.Uvarint(); v != metaVersion {
		return nil, fmt.Errorf("snode: %s: unsupported version %d, not %d: rebuild the dataset", path, v, metaVersion)
	}
	m := &meta{}
	m.NumPages = r.Int32()
	m.NumEdges = r.Varint()
	m.Perm = readInts(r, r.Int32)
	m.Inv = readInts(r, r.Int32)
	m.SnBase = readInts(r, r.Int32)
	m.Domains = make([]string, r.Count(math.MaxInt32, 1))
	for i := range m.Domains {
		m.Domains[i] = r.Str()
	}
	m.DomFirstSN = readInts(r, r.Int32)
	m.SuperOff = readInts(r, r.Varint)
	m.SuperAdj = readInts(r, r.Int32)
	m.SuperGID = readInts(r, r.Int32)
	m.IntraGID = readInts(r, r.Int32)
	m.Directory = make([]dirEntry, r.Count(math.MaxInt32, 7))
	for i := range m.Directory {
		e := &m.Directory[i]
		e.Kind = r.Uint8()
		e.I = r.Int32()
		e.J = r.Int32()
		e.File = r.Int32()
		e.Offset = r.Varint()
		e.NumBytes = r.Int32()
		e.NumLists = r.Int32()
	}
	m.FileSizes = readInts(r, r.Varint)
	st := &m.Stats
	st.Supernodes = int(r.Varint())
	st.Superedges = r.Varint()
	st.SupernodeGraphBytes = r.Varint()
	st.IndexFileBytes = r.Varint()
	st.PageIDIndexBytes = r.Varint()
	st.DomainIndexBytes = r.Varint()
	st.PositiveSuperedges = r.Varint()
	st.NegativeSuperedges = r.Varint()
	st.URLSplits = int(r.Varint())
	st.ClusteredSplits = int(r.Varint())
	if r.End(); r.Err() != nil {
		return nil, fmt.Errorf("snode: read meta: %s: %w", path, r.Err())
	}
	if err := m.validate(); err != nil {
		return nil, fmt.Errorf("snode: %s: %w", path, err)
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
