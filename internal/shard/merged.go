package shard

import (
	"context"

	"snode/internal/store"
	"snode/internal/webgraph"
)

// MergedStore overlays a shard's boundary edges on its S-Node base
// store, so navigation from an OWNED page sees the page's complete
// adjacency: the intra-shard part from the compressed representation,
// the cross-shard part from the in-memory boundary map. The shard's
// mining engine runs over two of these (fwd and rev), which is what
// makes its partial-query results exact.
//
// The overlay is free of duplicates by construction — an edge is intra
// or boundary, never both — and costs no modeled I/O (the boundary map
// is resident, like the domain and page-ID indexes the §4 setup keeps
// in memory for every scheme). Serving knobs (cache reset, pacing) and
// stats pass through to the base store.
type MergedStore struct {
	base     store.LinkStore
	baseCtx  store.ContextLinkStore // non-nil when base provides it
	boundary *Boundary
	domainOf func(webgraph.PageID) string
}

// NewMergedStore overlays boundary on base. domainOf supplies the
// metadata OutFiltered needs to filter boundary targets the same way
// the base store filters decoded lists.
func NewMergedStore(base store.LinkStore, b *Boundary, domainOf func(webgraph.PageID) string) *MergedStore {
	m := &MergedStore{base: base, boundary: b, domainOf: domainOf}
	m.baseCtx, _ = base.(store.ContextLinkStore)
	return m
}

// Name returns the base scheme's name.
func (m *MergedStore) Name() string { return m.base.Name() }

// NumPages reports the base store's page count (global ID space).
func (m *MergedStore) NumPages() int { return m.base.NumPages() }

// appendBoundary adds p's boundary targets passing f to buf.
func (m *MergedStore) appendBoundary(p webgraph.PageID, f *store.Filter, buf []webgraph.PageID) []webgraph.PageID {
	for _, t := range m.boundary.Out(p) {
		if store.FilterAccepts(f, t, m.domainOf) {
			buf = append(buf, t)
		}
	}
	return buf
}

// Out appends p's complete adjacency: intra from the base store, then
// cross-shard from the boundary.
func (m *MergedStore) Out(p webgraph.PageID, buf []webgraph.PageID) ([]webgraph.PageID, error) {
	buf, err := m.base.Out(p, buf)
	if err != nil {
		return buf, err
	}
	return append(buf, m.boundary.Out(p)...), nil
}

// OutFiltered applies f to both halves.
func (m *MergedStore) OutFiltered(p webgraph.PageID, f *store.Filter, buf []webgraph.PageID) ([]webgraph.PageID, error) {
	buf, err := m.base.OutFiltered(p, f, buf)
	if err != nil {
		return buf, err
	}
	return m.appendBoundary(p, f, buf), nil
}

// OutFilteredCtx is the context-aware read path: the base access
// carries ctx (traces, cancellation) when the base store supports it.
func (m *MergedStore) OutFilteredCtx(ctx context.Context, p webgraph.PageID, f *store.Filter, buf []webgraph.PageID) ([]webgraph.PageID, error) {
	var err error
	if m.baseCtx != nil {
		buf, err = m.baseCtx.OutFilteredCtx(ctx, p, f, buf)
	} else if f == nil {
		buf, err = m.base.Out(p, buf)
	} else {
		buf, err = m.base.OutFiltered(p, f, buf)
	}
	if err != nil {
		return buf, err
	}
	return m.appendBoundary(p, f, buf), nil
}

// Stats reports the base store's access statistics (boundary reads are
// resident-memory lookups, like the in-memory indexes: no modeled I/O).
func (m *MergedStore) Stats() store.AccessStats { return m.base.Stats() }

// ResetStats zeroes the base store's statistics.
func (m *MergedStore) ResetStats() { m.base.ResetStats() }

// Close closes the base store.
func (m *MergedStore) Close() error { return m.base.Close() }

// ResetCache forwards to the base store when it supports it.
func (m *MergedStore) ResetCache(budget int64) {
	if c, ok := m.base.(store.CacheResetter); ok {
		c.ResetCache(budget)
	}
}

// SetPace forwards to the base store when it supports it.
func (m *MergedStore) SetPace(scale float64) {
	if p, ok := m.base.(store.Pacer); ok {
		p.SetPace(scale)
	}
}

// SizeBytes reports the base representation size plus the boundary
// store's resident footprint (8 bytes per entry key + 4 per edge).
func (m *MergedStore) SizeBytes() int64 {
	var n int64
	if s, ok := m.base.(store.Sized); ok {
		n = s.SizeBytes()
	}
	return n + int64(m.boundary.NumSources())*8 + m.boundary.NumEdges()*4
}
