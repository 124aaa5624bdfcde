package shard

import (
	"fmt"
	"math"

	"snode/internal/coding"
	"snode/internal/webgraph"
)

// boundaryMagic / boundaryVersion head every boundary file.
const (
	boundaryMagic   = "SNBD"
	boundaryVersion = 1
)

// Boundary is a shard's cross-shard edge store over GLOBAL page IDs,
// loaded fully in memory (the locality argument is precisely that this
// stays small — a few percent of the edges) as compressed sparse rows:
// page p's list is dst[off[p]:off[p+1]]. For a fwd boundary the rows are
// owned sources and the values remote targets; for a rev boundary the
// rows are owned targets and the values remote sources. Lists are sorted
// ascending and duplicate-free. Safe for concurrent readers.
type Boundary struct {
	off     []int32
	dst     []webgraph.PageID
	sources int // rows written
}

// Out returns p's boundary adjacency (nil when p has no cross-shard
// edges). The slice aliases the store and must not be modified.
func (b *Boundary) Out(p webgraph.PageID) []webgraph.PageID {
	if p < 0 || int(p) >= len(b.off)-1 || b.off[p] == b.off[p+1] {
		return nil
	}
	return b.dst[b.off[p]:b.off[p+1]:b.off[p+1]]
}

// NumEdges reports the total cross-shard edge count.
func (b *Boundary) NumEdges() int64 { return int64(len(b.dst)) }

// NumSources reports how many pages have at least one boundary edge.
func (b *Boundary) NumSources() int { return b.sources }

// WriteBoundary serializes the non-empty rows of adj: magic, version,
// row count, then per row (ascending) a gap-coded source ID, degree, and
// gap-coded target list — the same uvarint+gap idiom as corpusio.
func WriteBoundary(path string, adj *webgraph.Graph) error {
	rows := 0
	for p := range webgraph.PageID(adj.NumPages()) {
		rows += min(adj.OutDegree(p), 1)
	}
	return coding.WriteFile(path, func(w *coding.Writer) error {
		w.Write([]byte(boundaryMagic))
		w.Uvarint(boundaryVersion)
		w.Uvarint(uint64(rows))
		prevSrc := int64(-1)
		for p := range webgraph.PageID(adj.NumPages()) {
			lst := adj.Out(p)
			if len(lst) == 0 {
				continue
			}
			w.Uvarint(uint64(int64(p) - prevSrc))
			prevSrc = int64(p)
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
	// its gap and its degree. A page without a row ends where its predecessor does.
	b := &Boundary{off: make([]int32, numPages+1), sources: r.Count(numPages, 2)}
	src := int64(-1)
	for i := 0; i < b.sources && r.Step(&src, int64(numPages)); i++ {
		t := int64(-1)
		for j, deg := 0, r.Count(numPages, 1); j < deg && r.Step(&t, int64(numPages)); j++ {
			b.dst = append(b.dst, webgraph.PageID(t))
		}
		b.off[src+1] = int32(len(b.dst))
	}
	if r.End(); r.Err() != nil {
		return corrupt("%v", r.Err())
	} else if len(b.dst) > math.MaxInt32 {
		return corrupt("%d edges, more than a row offset holds", len(b.dst))
	}
	for p := 1; p <= numPages; p++ {
		b.off[p] = max(b.off[p], b.off[p-1])
	}
	return b, nil
}
