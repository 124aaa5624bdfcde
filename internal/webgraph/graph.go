// Package webgraph defines the in-memory Web graph model shared by every
// representation scheme in this repository: page identifiers, per-page
// metadata (URL, domain, terms), and a compressed-sparse-row directed
// graph with its transpose (the "backlink" graph WGT of the paper).
//
// All representation schemes are built FROM a *Graph and must reproduce
// its adjacency lists exactly; the test suites use that as their central
// cross-representation invariant.
package webgraph

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// PageID identifies a page. IDs are dense in [0, NumPages).
type PageID = int32

// Graph is an immutable directed graph in CSR (compressed sparse row)
// form. Adjacency lists are sorted by target ID and contain no
// duplicates.
type Graph struct {
	offsets []int64  // len = n+1
	targets []PageID // len = m
}

// NewGraphCSR wraps pre-built CSR arrays. offsets must have length n+1
// with offsets[0]==0 and be non-decreasing; each adjacency list must be
// strictly increasing. The arrays are retained, not copied.
func NewGraphCSR(offsets []int64, targets []PageID) (*Graph, error) {
	if len(offsets) == 0 || offsets[0] != 0 {
		return nil, errors.New("webgraph: offsets must start at 0")
	}
	if offsets[len(offsets)-1] != int64(len(targets)) {
		return nil, errors.New("webgraph: offsets end mismatch")
	}
	n := int32(len(offsets) - 1)
	for i := 1; i < len(offsets); i++ {
		if offsets[i] < offsets[i-1] {
			return nil, errors.New("webgraph: offsets decrease")
		}
	}
	g := &Graph{offsets: offsets, targets: targets}
	for p := PageID(0); p < n; p++ {
		adj := g.Out(p)
		for i := 1; i < len(adj); i++ {
			if adj[i] <= adj[i-1] {
				return nil, fmt.Errorf("webgraph: page %d adjacency not strictly increasing", p)
			}
		}
		for _, t := range adj {
			if t < 0 || t >= n {
				return nil, fmt.Errorf("webgraph: page %d has out-of-range target %d", p, t)
			}
		}
	}
	return g, nil
}

// NumPages reports the number of vertices.
func (g *Graph) NumPages() int { return len(g.offsets) - 1 }

// NumEdges reports the number of directed edges (hyperlinks).
func (g *Graph) NumEdges() int64 { return int64(len(g.targets)) }

// Out returns page p's adjacency list. The returned slice aliases the
// graph's storage and must not be modified.
func (g *Graph) Out(p PageID) []PageID {
	return g.targets[g.offsets[p]:g.offsets[p+1]]
}

// OutDegree reports the out-degree of p.
func (g *Graph) OutDegree(p PageID) int {
	return int(g.offsets[p+1] - g.offsets[p])
}

// HasEdge reports whether the edge p→q exists.
func (g *Graph) HasEdge(p, q PageID) bool {
	adj := g.Out(p)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= q })
	return i < len(adj) && adj[i] == q
}

// AvgOutDegree reports the mean out-degree (the paper measured 14 for
// the WebBase repository).
func (g *Graph) AvgOutDegree() float64 {
	n := g.NumPages()
	if n == 0 {
		return 0
	}
	return float64(g.NumEdges()) / float64(n)
}

// InDegrees computes the in-degree of every page in one pass.
func (g *Graph) InDegrees() []int32 {
	deg := make([]int32, g.NumPages())
	for _, t := range g.targets {
		deg[t]++
	}
	return deg
}

// Transpose returns the backlink graph WGT: edge q→p for every p→q.
func (g *Graph) Transpose() *Graph {
	n := g.NumPages()
	deg := g.InDegrees()
	offsets := make([]int64, n+1)
	for i := 0; i < n; i++ {
		offsets[i+1] = offsets[i] + int64(deg[i])
	}
	targets := make([]PageID, g.NumEdges())
	next := make([]int64, n)
	copy(next, offsets[:n])
	// Visiting sources in increasing order makes each transposed list
	// sorted automatically.
	for p := PageID(0); p < PageID(n); p++ {
		for _, q := range g.Out(p) {
			targets[next[q]] = p
			next[q]++
		}
	}
	t := &Graph{offsets: offsets, targets: targets}
	return t
}

// Equal reports whether two graphs have identical vertex/edge sets.
func (g *Graph) Equal(o *Graph) bool {
	if g.NumPages() != o.NumPages() || g.NumEdges() != o.NumEdges() {
		return false
	}
	for i := range g.offsets {
		if g.offsets[i] != o.offsets[i] {
			return false
		}
	}
	for i := range g.targets {
		if g.targets[i] != o.targets[i] {
			return false
		}
	}
	return true
}

// Builder accumulates edges and produces an immutable Graph. Duplicate
// edges are coalesced; self-loops are allowed (they occur on the Web).
type Builder struct {
	n   int
	adj [][]PageID
}

// NewBuilder creates a builder for a graph over n pages.
func NewBuilder(n int) *Builder {
	return &Builder{n: n, adj: make([][]PageID, n)}
}

// AddEdge records the link p→q. Out-of-range vertices panic: the caller
// controls ID assignment and a bad ID is a programming error.
func (b *Builder) AddEdge(p, q PageID) {
	if p < 0 || int(p) >= b.n || q < 0 || int(q) >= b.n {
		panic(fmt.Sprintf("webgraph: edge (%d,%d) out of range [0,%d)", p, q, b.n))
	}
	b.adj[p] = append(b.adj[p], q)
}

// OutDegree reports the current (pre-dedup) out-degree of p.
func (b *Builder) OutDegree(p PageID) int { return len(b.adj[p]) }

// Build sorts and deduplicates adjacency lists and returns the graph.
// The builder must not be used afterwards.
func (b *Builder) Build() *Graph {
	offsets := make([]int64, b.n+1)
	var m int64
	for p := 0; p < b.n; p++ {
		lst := b.adj[p]
		slices.Sort(lst)
		// Deduplicate in place.
		k := 0
		for i := range lst {
			if i == 0 || lst[i] != lst[i-1] {
				lst[k] = lst[i]
				k++
			}
		}
		b.adj[p] = lst[:k]
		m += int64(k)
		offsets[p+1] = m
	}
	targets := make([]PageID, m)
	var pos int64
	for p := 0; p < b.n; p++ {
		pos += int64(copy(targets[pos:], b.adj[p]))
		b.adj[p] = nil
	}
	return &Graph{offsets: offsets, targets: targets}
}

// PageMeta is the per-page metadata the indexes and the partitioner
// need. Terms hold normalized tokens (single words and phrase tokens).
type PageMeta struct {
	URL    string
	Domain string // registered domain, e.g. "stanford.edu"
	Terms  []string
}

// Corpus bundles a graph with its page metadata; it is what the crawl
// generator produces and what every representation is built from.
type Corpus struct {
	Graph *Graph
	Pages []PageMeta // indexed by PageID
}

// Validate checks the corpus invariants: metadata length matches the
// graph, and the pages pass ValidatePages.
func (c *Corpus) Validate() error {
	if len(c.Pages) != c.Graph.NumPages() {
		return fmt.Errorf("webgraph: %d pages of metadata for %d-vertex graph",
			len(c.Pages), c.Graph.NumPages())
	}
	return ValidatePages(c.Pages)
}

// ValidatePages checks page metadata without a graph: every page has a
// URL and domain, and each domain's pages are one run of page IDs
// (errDomainReopened), which every reader that takes a domain to be one
// ID range relies on. It allocates per domain, not per page.
func ValidatePages(pages []PageMeta) error {
	lastOf := map[string]int{} // each closed run's domain → its last page
	for i, p := range pages {
		if p.URL == "" || p.Domain == "" {
			return fmt.Errorf("webgraph: page %d missing URL or domain", i)
		}
		if i == 0 || p.Domain == pages[i-1].Domain {
			continue
		}
		lastOf[pages[i-1].Domain] = i - 1
		if last, ok := lastOf[p.Domain]; ok {
			return fmt.Errorf("webgraph: page %d reopens %s, whose pages ended at page %d: %w", i, p.Domain, last, errDomainReopened)
		}
	}
	return nil
}

// errDomainReopened refuses pages in which some domain's pages resume
// after another domain's in page-ID order.
var errDomainReopened = errors.New("a domain's pages must be contiguous in page-ID order")
