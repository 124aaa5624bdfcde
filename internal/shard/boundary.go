package shard

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"

	"snode/internal/coding"
	"snode/internal/webgraph"
)

// boundaryMagic / boundaryVersion head every boundary file.
const (
	boundaryMagic   = "SNBD"
	boundaryVersion = 1
)

// Boundary is a shard's cross-shard edge store: a sparse adjacency map
// over GLOBAL page IDs, loaded fully in memory (the locality argument
// is precisely that this stays small — a few percent of the edges).
// For a fwd boundary the keys are owned sources and the values remote
// targets; for a rev boundary the keys are owned targets and the
// values remote sources. Lists are sorted ascending and duplicate-free.
// Safe for concurrent readers after Open/NewBoundary.
type Boundary struct {
	adj   map[webgraph.PageID][]webgraph.PageID
	edges int64
}

// NewBoundary wraps an adjacency map (retained, not copied); each list
// must be sorted ascending without duplicates.
func NewBoundary(adj map[webgraph.PageID][]webgraph.PageID) *Boundary {
	b := &Boundary{adj: adj}
	for _, l := range adj {
		b.edges += int64(len(l))
	}
	return b
}

// Out returns p's boundary adjacency (nil when p has no cross-shard
// edges). The slice aliases the store and must not be modified.
func (b *Boundary) Out(p webgraph.PageID) []webgraph.PageID { return b.adj[p] }

// NumEdges reports the total cross-shard edge count.
func (b *Boundary) NumEdges() int64 { return b.edges }

// NumSources reports how many pages have at least one boundary edge.
func (b *Boundary) NumSources() int { return len(b.adj) }

// WriteBoundary serializes the store: magic, version, source count,
// then per source (ascending) a gap-coded source ID, degree, and
// gap-coded target list — the same uvarint+gap idiom as corpusio.
func WriteBoundary(path string, adj map[webgraph.PageID][]webgraph.PageID) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if _, err := w.WriteString(boundaryMagic); err != nil {
		f.Close()
		return err
	}
	var scratch [binary.MaxVarintLen64]byte
	put := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := w.Write(scratch[:n])
		return err
	}
	srcs := make([]webgraph.PageID, 0, len(adj))
	for p := range adj {
		srcs = append(srcs, p)
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
	if err := put(boundaryVersion); err != nil {
		f.Close()
		return err
	}
	if err := put(uint64(len(srcs))); err != nil {
		f.Close()
		return err
	}
	prevSrc := int64(-1)
	for _, p := range srcs {
		if err := put(uint64(int64(p) - prevSrc)); err != nil {
			f.Close()
			return err
		}
		prevSrc = int64(p)
		lst := adj[p]
		if err := put(uint64(len(lst))); err != nil {
			f.Close()
			return err
		}
		prevT := int64(-1)
		for _, t := range lst {
			if err := put(uint64(int64(t) - prevT)); err != nil {
				f.Close()
				return err
			}
			prevT = int64(t)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// OpenBoundary loads a store written by WriteBoundary. numPages is the
// manifest's NumPages: the source count, every degree and every ID are
// held below it and sources and targets must ascend strictly, so
// hostile bytes end in ErrCorrupt, not in an allocation sized by the
// file or a list no build could have written.
func OpenBoundary(path string, numPages int) (*Boundary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	corrupt := func(format string, args ...any) (*Boundary, error) {
		return nil, fmt.Errorf("%w: %s: %s", ErrCorrupt, path, fmt.Sprintf(format, args...))
	}
	magic := make([]byte, len(boundaryMagic))
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != boundaryMagic {
		return corrupt("not a boundary file")
	}
	if ver, err := binary.ReadUvarint(r); err != nil || ver != boundaryVersion {
		return corrupt("boundary format %d, want %d", ver, boundaryVersion)
	}
	// next reads one gap and steps *id over it, to an ID strictly above
	// the last and below numPages.
	next := func(id *int64) bool {
		d, err := binary.ReadUvarint(r)
		if err != nil {
			return false
		}
		var ok bool
		*id, ok = coding.StepGap(*id, d, int64(numPages))
		return ok
	}
	// count reads a source count or a degree: at most one per page.
	count := func() (uint64, bool) {
		n, err := binary.ReadUvarint(r)
		return n, err == nil && n <= uint64(numPages)
	}
	nsrc, ok := count()
	if !ok {
		return corrupt("source count %d truncated or beyond %d pages", nsrc, numPages)
	}
	adj := make(map[webgraph.PageID][]webgraph.PageID, nsrc)
	src := int64(-1)
	for i := uint64(0); i < nsrc; i++ {
		if !next(&src) {
			return corrupt("source %d of %d: truncated, not ascending or outside [0,%d)", i, nsrc, numPages)
		}
		deg, ok := count()
		if !ok {
			return corrupt("source %d: degree %d truncated or beyond %d pages", src, deg, numPages)
		}
		lst := make([]webgraph.PageID, deg)
		t := int64(-1)
		for j := range lst {
			if !next(&t) {
				return corrupt("source %d: list truncated, not ascending or outside [0,%d)", src, numPages)
			}
			lst[j] = webgraph.PageID(t)
		}
		adj[webgraph.PageID(src)] = lst
	}
	if _, err := r.ReadByte(); err != io.EOF {
		return corrupt("bytes after the last source")
	}
	return NewBoundary(adj), nil
}
