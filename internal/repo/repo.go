// Package repo assembles a complete Web repository in the paper's
// sense: a corpus (pages + Web graph), the basic indexes (text index,
// PageRank, domain index), and one or more graph representations of WG
// and its transpose WGT, each built on disk under a workspace
// directory. The benchmark harness and the example programs drive
// everything through this facade.
package repo

import (
	"fmt"
	"os"
	"path/filepath"

	"snode/internal/dbstore"
	"snode/internal/flatfile"
	"snode/internal/huffgraph"
	"snode/internal/iosim"
	"snode/internal/link3"
	"snode/internal/pagerank"
	"snode/internal/snode"
	"snode/internal/store"
	"snode/internal/textindex"
	"snode/internal/webgraph"
)

// Scheme names accepted in Options.Schemes.
const (
	SchemeSNode   = "snode"
	SchemeHuffman = "huffman"
	SchemeLink3   = "link3"
	SchemeDB      = "db"
	SchemeFiles   = "files"
)

// AllSchemes lists every representation, in the paper's Figure 11
// display order plus the in-memory Huffman baseline.
func AllSchemes() []string {
	return []string{SchemeFiles, SchemeDB, SchemeLink3, SchemeSNode, SchemeHuffman}
}

// Options controls repository construction.
type Options struct {
	// Dir is the workspace; subdirectories are created per scheme.
	Dir string
	// Schemes selects which representations to build (nil = all).
	Schemes []string
	// CacheBudget is the per-representation memory budget (the paper's
	// 325 MB, scaled down).
	CacheBudget int64
	// Model is the simulated disk.
	Model iosim.Model
	// SNode configures the S-Node build.
	SNode snode.Config
	// Transpose also builds every scheme over WGT (needed by queries
	// with in-neighborhood navigation and by Table 1's WGT column).
	Transpose bool
	// Layout is the physical storage order for the flat schemes
	// (uncompressed files and the relational heap) — the crawl order,
	// in a real repository. nil stores in page-ID order, which would
	// unrealistically gift those schemes the S-Node clustering
	// property.
	Layout []webgraph.PageID
}

// DefaultOptions returns standard settings rooted at dir.
func DefaultOptions(dir string) Options {
	return Options{
		Dir:         dir,
		CacheBudget: 16 << 20,
		Model:       iosim.Model2002(),
		SNode:       snode.DefaultConfig(),
		Transpose:   true,
	}
}

// Repository is a fully built, queryable Web repository.
type Repository struct {
	Corpus   *webgraph.Corpus
	Text     *textindex.Index
	PageRank []float64 // normalized to max 1
	Domains  store.DomainRanges
	Model    iosim.Model

	// Fwd and Rev map scheme name → representation of WG and WGT.
	Fwd map[string]store.LinkStore
	Rev map[string]store.LinkStore

	// SNodeStats carries the S-Node build statistics when built.
	SNodeStats *snode.BuildStats
}

// Build constructs the repository.
func Build(c *webgraph.Corpus, opt Options) (*Repository, error) {
	if opt.Dir == "" {
		return nil, fmt.Errorf("repo: Options.Dir required")
	}
	schemes := opt.Schemes
	if schemes == nil {
		schemes = AllSchemes()
	}
	r := &Repository{
		Corpus:   c,
		Text:     textindex.Build(c.Pages),
		PageRank: pagerank.Normalize(pagerank.Compute(c.Graph, pagerank.DefaultConfig())),
		Domains:  store.NewDomainRanges(c.Pages),
		Model:    opt.Model,
		Fwd:      map[string]store.LinkStore{},
		Rev:      map[string]store.LinkStore{},
	}
	var rev *webgraph.Corpus
	if opt.Transpose {
		rev = &webgraph.Corpus{Graph: c.Graph.Transpose(), Pages: c.Pages}
	}
	for _, scheme := range schemes {
		if scheme == SchemeSNode {
			st, err := snode.BuildPair(c, rev, opt.SNode, opt.Dir)
			if err != nil {
				r.Close()
				return nil, fmt.Errorf("repo: build %s: %w", scheme, err)
			}
			r.SNodeStats = st
		}
		s, err := buildOne(c, scheme, filepath.Join(opt.Dir, scheme+".fwd"), opt)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("repo: build %s: %w", scheme, err)
		}
		r.Fwd[scheme] = s
		if rev != nil {
			s, err := buildOne(rev, scheme, filepath.Join(opt.Dir, scheme+".rev"), opt)
			if err != nil {
				r.Close()
				return nil, fmt.Errorf("repo: build %s transpose: %w", scheme, err)
			}
			r.Rev[scheme] = s
		}
	}
	return r, nil
}

// buildOne builds and opens one representation of the given corpus in
// dir. S-Node's is only opened: snode.BuildPair has written both
// directions, in snode.FwdDir and snode.RevDir under Options.Dir.
func buildOne(c *webgraph.Corpus, scheme, dir string, opt Options) (store.LinkStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	switch scheme {
	case SchemeSNode:
		return snode.Open(dir, opt.CacheBudget, opt.Model)
	case SchemeHuffman:
		return huffgraph.Build(c)
	case SchemeLink3:
		if err := link3.Build(c, dir); err != nil {
			return nil, err
		}
		return link3.Open(c, dir, opt.CacheBudget, opt.Model)
	case SchemeDB:
		if err := dbstore.Build(c, dir, opt.Layout); err != nil {
			return nil, err
		}
		return dbstore.Open(c, dir, opt.CacheBudget, opt.Model)
	case SchemeFiles:
		if err := flatfile.Build(c, dir, opt.Layout); err != nil {
			return nil, err
		}
		return flatfile.Open(c, dir, opt.Layout, opt.CacheBudget, opt.Model)
	}
	return nil, fmt.Errorf("repo: unknown scheme %q", scheme)
}

// Close releases every representation.
func (r *Repository) Close() error {
	var first error
	for _, m := range []map[string]store.LinkStore{r.Fwd, r.Rev} {
		for _, s := range m {
			if err := s.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// WithStores returns a copy of r that shares its corpus and indexes but
// reads scheme's links through fwd and rev: the same pages behind
// another store, as a shard's boundary-merged view or a live overlay
// is. Closing it closes fwd and rev, not r's own stores.
func (r *Repository) WithStores(scheme string, fwd, rev store.LinkStore) *Repository {
	c := *r
	c.Fwd = map[string]store.LinkStore{scheme: fwd}
	c.Rev = map[string]store.LinkStore{scheme: rev}
	return &c
}

// DomainOf returns a page's registered domain.
func (r *Repository) DomainOf(p webgraph.PageID) string {
	return r.Corpus.Pages[p].Domain
}

// EduDomains lists the ".edu" domains in the corpus (Query 1's target
// set), optionally excluding one.
func (r *Repository) EduDomains(exclude string) map[string]bool {
	out := map[string]bool{}
	for d := range r.Domains {
		if d != exclude && len(d) > 4 && d[len(d)-4:] == ".edu" {
			out[d] = true
		}
	}
	return out
}
