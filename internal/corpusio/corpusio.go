// Package corpusio serializes a crawl (corpus + crawl order) to one
// file: a dataset's meta.bin, the page metadata every shard replicates,
// written edge-free by shard.Build and read back by shard.OpenServing.
//
// Format: uvarint page count; per page: URL, domain, term list
// (length-prefixed strings), gap-coded adjacency; then the crawl order.
//
// Read holds each piece of metadata once: one Domain string a domain,
// the URLs in one block, and the terms as substrings of the file until
// the text index has copied each distinct one (shard.OpenServing then
// drops them).
package corpusio

import (
	"fmt"
	"os"
	"strings"

	"snode/internal/coding"
	"snode/internal/synth"
	"snode/internal/webgraph"
)

// Write serializes a crawl to path.
func Write(c *synth.Crawl, path string) error {
	return coding.WriteFile(path, func(w *coding.Writer) error {
		g := c.Corpus.Graph
		n := g.NumPages()
		w.Uvarint(uint64(n))
		for pid := 0; pid < n; pid++ {
			pm := c.Corpus.Pages[pid]
			w.Str(pm.URL)
			w.Str(pm.Domain)
			w.Uvarint(uint64(len(pm.Terms)))
			for _, t := range pm.Terms {
				w.Str(t)
			}
			adj := g.Out(int32(pid))
			w.Uvarint(uint64(len(adj)))
			prev := int64(-1)
			for _, t := range adj {
				w.Uvarint(uint64(int64(t) - prev))
				prev = int64(t)
			}
		}
		for _, pid := range c.Order {
			w.Uvarint(uint64(pid))
		}
		return nil
	})
}

// minPageBytes is the least a page can occupy: empty URL, domain, term
// list and adjacency at a byte each, and its entry in the crawl order.
const minPageBytes = 5

// Read loads a crawl written by Write, and nothing else: a page count
// the file is too short to hold, an adjacency list that does not ascend
// strictly within [0, n), a crawl order that is not a permutation of the
// pages, and bytes after the order are all refused, before anything is
// sized or indexed by them.
//
// The file is read whole and parsed in memory. A domain's pages are one
// run, so only a change of domain copies a Domain string; the URLs are
// copied into one block; each page's terms are substrings of the file's
// bytes, which they keep alive until they are dropped. A read allocates
// per page and per domain, never per term.
func Read(path string) (*synth.Crawl, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := coding.NewReader(raw)
	n := r.Count(1<<30, minPageBytes)
	if r.Err() != nil {
		return nil, fmt.Errorf("corpusio: %s: page count: %w", path, r.Err())
	}
	if n == 0 {
		return nil, fmt.Errorf("corpusio: %s holds no pages", path)
	}
	pages := make([]webgraph.PageMeta, n)
	var urls []byte
	urlEnd := make([]int, n)
	b := webgraph.NewBuilder(n)
	for pid := 0; pid < n; pid++ {
		urls = append(urls, r.Str()...)
		urlEnd[pid] = len(urls)
		if d := r.Str(); pid > 0 && d == pages[pid-1].Domain {
			pages[pid].Domain = pages[pid-1].Domain
		} else {
			pages[pid].Domain = strings.Clone(d)
		}
		terms := make([]string, r.Count(1<<16, 1))
		for i := range terms {
			terms[i] = r.Str()
		}
		pages[pid].Terms = terms
		prev := int64(-1)
		for deg := r.Count(n, 1); deg > 0 && r.Step(&prev, int64(n)); deg-- {
			b.AddEdge(int32(pid), int32(prev))
		}
		if r.Err() != nil {
			return nil, fmt.Errorf("corpusio: %s: page %d: %w", path, pid, r.Err())
		}
	}
	block, start := string(urls), 0
	for pid, end := range urlEnd {
		pages[pid].URL = block[start:end]
		start = end
	}
	order := make([]int32, n)
	seen := make([]bool, n)
	for i := range order {
		p := r.Uvarint()
		if r.Err() != nil {
			return nil, fmt.Errorf("corpusio: %s: order: %w", path, r.Err())
		}
		if p >= uint64(n) || seen[p] {
			return nil, fmt.Errorf("corpusio: order entry %d names page %d: outside [0,%d) or already crawled", i, p, n)
		}
		seen[p] = true
		order[i] = int32(p)
	}
	if r.End(); r.Err() != nil {
		return nil, fmt.Errorf("corpusio: %s: %w", path, r.Err())
	}
	crawl := &synth.Crawl{
		Corpus: &webgraph.Corpus{Graph: b.Build(), Pages: pages},
		Order:  order,
	}
	if err := crawl.Corpus.Validate(); err != nil {
		return nil, err
	}
	return crawl, nil
}
