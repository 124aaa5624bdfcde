package shard

import (
	"fmt"
	"path/filepath"

	"snode/internal/corpusio"
	"snode/internal/iosim"
	"snode/internal/repo"
	"snode/internal/snode"
	"snode/internal/store"
	"snode/internal/textindex"
	"snode/internal/webgraph"
)

// ServingShard is one opened shard, ready to serve: a boundary-merged
// repository for the mining engine (complete adjacency for owned
// pages), an intra-only repository for /out (the router resolves
// cross-shard /out edges itself, from the boundary files), and the
// ownership predicate the partial-query engine restricts to.
//
// The shard holds the crawl's page metadata once (corpusio.Read): a
// domain's pages share one Domain string and every URL is a substring
// of one block. The text index is the only reader of the pages' terms,
// so once it holds them they are dropped, and with them the block
// corpusio.Read cut them from: a serving shard's Corpus.Pages[].Terms
// is "". Its links are the stores', and its
// Corpus.Graph is nil: no shard path reads it.
type ServingShard struct {
	ID       int
	Manifest *Manifest
	// Repo serves the mining engine: S-Node stores overlaid with this
	// shard's fwd and rev boundaries, global text index, global
	// PageRank, global domain index.
	Repo *repo.Repository
	// NavRepo shares every index with Repo but keeps the bare
	// intra-shard stores: /out answers with the edges this shard owns
	// and the router appends the cross-shard rest.
	NavRepo *repo.Repository
}

// Owns reports whether this shard owns page p.
func (s *ServingShard) Owns(p webgraph.PageID) bool {
	return s.Manifest.ShardOf(p) == s.ID
}

// Close releases the shard's stores (base stores are shared between
// Repo and NavRepo and closed once, via Repo).
func (s *ServingShard) Close() error { return s.Repo.Close() }

// OpenServing opens shard id under root: global metadata and PageRank
// from the root artifacts, S-Node stores from the shard directory,
// boundaries overlaid. The result's indexes are bit-identical to a
// single-node repository over the same crawl — that is what makes the
// router's merged answers row-identical.
func OpenServing(root string, id int, cacheBudget int64, model iosim.Model) (*ServingShard, error) {
	m, err := LoadManifest(root)
	if err != nil {
		return nil, err
	}
	if id < 0 || id >= m.NumShards {
		return nil, fmt.Errorf("shard: id %d out of range [0,%d)", id, m.NumShards)
	}
	pages, err := corpusio.Read(filepath.Join(root, m.Meta))
	if err != nil {
		return nil, err
	}
	if len(pages) != m.NumPages {
		return nil, fmt.Errorf("shard: metadata has %d pages, manifest %d", len(pages), m.NumPages)
	}
	pr, err := readPageRank(filepath.Join(root, m.PageRank), m.NumPages)
	if err != nil {
		return nil, err
	}
	// The boundaries first: they hold nothing to release if a later
	// open fails.
	entry := m.Shards[id]
	bfwd, err := OpenBoundary(filepath.Join(root, entry.BoundaryFwd), m.NumPages)
	if err != nil {
		return nil, err
	}
	brev, err := OpenBoundary(filepath.Join(root, entry.BoundaryRev), m.NumPages)
	if err != nil {
		return nil, err
	}
	fwdBase, err := snode.Open(filepath.Join(root, entry.Dir, snode.FwdDir), cacheBudget, model)
	if err != nil {
		return nil, err
	}
	revBase, err := snode.Open(filepath.Join(root, entry.Dir, snode.RevDir), cacheBudget, model)
	if err != nil {
		fwdBase.Close()
		return nil, err
	}
	text := textindex.Build(pages)
	for i := range pages {
		pages[i].Terms = ""
	}
	nav := &repo.Repository{
		Corpus:   &webgraph.Corpus{Pages: pages},
		Text:     text,
		PageRank: pr,
		Domains:  store.NewDomainRanges(pages),
		Model:    model,
		Fwd:      map[string]store.LinkStore{repo.SchemeSNode: fwdBase},
		Rev:      map[string]store.LinkStore{repo.SchemeSNode: revBase},
	}
	merged := nav.WithStores(repo.SchemeSNode,
		NewMergedStore(fwdBase, bfwd),
		NewMergedStore(revBase, brev))
	return &ServingShard{ID: id, Manifest: m, Repo: merged, NavRepo: nav}, nil
}

// LoadFwdBoundaries loads every shard's forward boundary store — the
// router's side of the split: it resolves cross-shard /out edges
// itself instead of asking another shard.
func LoadFwdBoundaries(root string, m *Manifest) ([]*Boundary, error) {
	out := make([]*Boundary, m.NumShards)
	for i, e := range m.Shards {
		b, err := OpenBoundary(filepath.Join(root, e.BoundaryFwd), m.NumPages)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}
