package shard

import (
	"fmt"
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
	srcs := make([]webgraph.PageID, 0, len(adj))
	for p := range adj {
		srcs = append(srcs, p)
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
	return coding.WriteFile(path, func(w *coding.Writer) error {
		w.Write([]byte(boundaryMagic))
		w.Uvarint(boundaryVersion)
		w.Uvarint(uint64(len(srcs)))
		prevSrc := int64(-1)
		for _, p := range srcs {
			w.Uvarint(uint64(int64(p) - prevSrc))
			prevSrc = int64(p)
			lst := adj[p]
			w.Uvarint(uint64(len(lst)))
			prevT := int64(-1)
			for _, t := range lst {
				w.Uvarint(uint64(int64(t) - prevT))
				prevT = int64(t)
			}
		}
		return nil
	})
}

// OpenBoundary loads a store written by WriteBoundary. numPages is the
// manifest's NumPages: the source count, every degree and every ID are
// held below it and sources and targets must ascend strictly, so
// hostile bytes end in ErrCorrupt, not in an allocation sized by the
// file or a list no build could have written.
func OpenBoundary(path string, numPages int) (*Boundary, error) {
	r, err := coding.OpenFile(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	corrupt := func(format string, args ...any) (*Boundary, error) {
		return nil, fmt.Errorf("%w: %s: %s", ErrCorrupt, path, fmt.Sprintf(format, args...))
	}
	if r.Raw(len(boundaryMagic)) != boundaryMagic {
		return corrupt("not a boundary file")
	}
	if ver := r.Uvarint(); r.Err() != nil || ver != boundaryVersion {
		return corrupt("boundary format %d, want %d", ver, boundaryVersion)
	}
	// A source count or a degree is at most one per page; a source costs
	// its gap and its degree.
	nsrc := r.Count(numPages, 2)
	adj := make(map[webgraph.PageID][]webgraph.PageID, nsrc)
	src := int64(-1)
	for i := 0; i < nsrc && r.Step(&src, int64(numPages)); i++ {
		lst := make([]webgraph.PageID, r.Count(numPages, 1))
		t := int64(-1)
		for j := 0; j < len(lst) && r.Step(&t, int64(numPages)); j++ {
			lst[j] = webgraph.PageID(t)
		}
		adj[webgraph.PageID(src)] = lst
	}
	if r.End(); r.Err() != nil {
		return corrupt("%v", r.Err())
	}
	return NewBoundary(adj), nil
}
