package shard

import (
	"context"

	"snode/internal/snode"
	"snode/internal/store"
	"snode/internal/webgraph"
)

// MergedStore overlays a shard's boundary edges on its S-Node base
// store, so navigation from an OWNED page sees the page's complete
// adjacency: the intra-shard part from the compressed representation,
// the cross-shard part from the in-memory boundary rows. The shard's
// mining engine runs over two of these (fwd and rev), which is what
// makes its partial-query results exact.
//
// The overlay is free of duplicates by construction — an edge is intra
// or boundary, never both — and costs no modeled I/O (the boundary rows
// are resident, like the domain and page-ID indexes the §4 setup keeps
// in memory for every scheme). Serving knobs (cache reset, pacing) and
// stats pass through to the base store.
type MergedStore struct {
	base     *snode.Representation
	boundary *Boundary
}

// NewMergedStore overlays boundary on base.
func NewMergedStore(base *snode.Representation, b *Boundary) *MergedStore {
	return &MergedStore{base: base, boundary: b}
}

// Name returns the base scheme's name.
func (m *MergedStore) Name() string { return m.base.Name() }

// NumPages reports the base store's page count (global ID space).
func (m *MergedStore) NumPages() int { return m.base.NumPages() }

// mergedBufs is the free list of the lists Neighbors joins a page's
// two parts in, so a warm call allocates none for the pages that have
// boundary rows. It is a bounded channel, not a sync.Pool, which under
// the race detector drops a quarter of what is put back and would make
// the allocation count vary from run to run. It keeps at most 16 lists,
// the bound snode's navScratches keeps: a list is held only by a
// Neighbors call in flight, and admission runs GOMAXPROCS of those by
// default. It keeps none that outgrew maxMergedIDs.
var mergedBufs = make(chan []webgraph.PageID, 16)

const maxMergedIDs = 1 << 20

// Neighbors is the base store's Neighbors with each page's boundary
// targets that pass f appended to its list.
func (m *MergedStore) Neighbors(ctx context.Context, pages []webgraph.PageID, f *store.Filter, visit func(p webgraph.PageID, out []webgraph.PageID) error) error {
	var buf []webgraph.PageID
	select {
	case buf = <-mergedBufs:
	default:
	}
	defer func() {
		if cap(buf) > 0 && cap(buf) <= maxMergedIDs {
			select {
			case mergedBufs <- buf:
			default:
			}
		}
	}()
	return m.base.Neighbors(ctx, pages, f, func(p webgraph.PageID, out []webgraph.PageID) error {
		row := m.boundary.Out(p)
		if len(row) == 0 {
			return visit(p, out)
		}
		buf = append(buf[:0], out...)
		for _, t := range row {
			if f.Accepts(t) {
				buf = append(buf, t)
			}
		}
		return visit(p, buf)
	})
}

// Out, OutFiltered and OutFilteredCtx are one-page Neighbors calls.
func (m *MergedStore) Out(p webgraph.PageID, buf []webgraph.PageID) ([]webgraph.PageID, error) {
	return m.OutFilteredCtx(context.Background(), p, nil, buf)
}

func (m *MergedStore) OutFiltered(p webgraph.PageID, f *store.Filter, buf []webgraph.PageID) ([]webgraph.PageID, error) {
	return m.OutFilteredCtx(context.Background(), p, f, buf)
}

func (m *MergedStore) OutFilteredCtx(ctx context.Context, p webgraph.PageID, f *store.Filter, buf []webgraph.PageID) ([]webgraph.PageID, error) {
	err := m.Neighbors(ctx, []webgraph.PageID{p}, f, func(_ webgraph.PageID, out []webgraph.PageID) error {
		buf = append(buf, out...)
		return nil
	})
	return buf, err
}

// Stats reports the base store's access statistics (boundary reads are
// resident-memory lookups, like the in-memory indexes: no modeled I/O).
func (m *MergedStore) Stats() store.AccessStats { return m.base.Stats() }

// ResetStats zeroes the base store's statistics.
func (m *MergedStore) ResetStats() { m.base.ResetStats() }

// Close closes the base store.
func (m *MergedStore) Close() error { return m.base.Close() }

// ResetCache forwards to the base store.
func (m *MergedStore) ResetCache(budget int64) { m.base.ResetCache(budget) }

// SetPace forwards to the base store.
func (m *MergedStore) SetPace(scale float64) { m.base.SetPace(scale) }

// SizeBytes reports the base representation size plus the boundary
// store's resident footprint (8 bytes per entry key + 4 per edge).
func (m *MergedStore) SizeBytes() int64 {
	return m.base.SizeBytes() + int64(m.boundary.NumSources())*8 + m.boundary.NumEdges()*4
}
