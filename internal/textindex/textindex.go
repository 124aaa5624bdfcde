// Package textindex provides the inverted text index complex queries
// resolve their page sets against (paper §4.3: "complex queries require
// access to other indexes such as a text-index"). Terms are normalized
// tokens; scenario phrases are single tokens (e.g. "mobile_networking"),
// matching the crawl generator's vocabulary. A posting list is the
// ascending IDs of the pages that contain its term, and a domain's pages
// are one contiguous ID range (store.DomainRanges), so a lookup inside a
// domain cuts its postings by binary search and reads nothing outside
// them: every lookup costs what it returns. Index access is not part of
// measured navigation time, exactly as in the paper.
package textindex

import (
	"slices"
	"sort"

	"snode/internal/webgraph"
)

// Index maps terms to sorted posting lists.
type Index struct {
	postings map[string][]webgraph.PageID
}

// Build indexes the corpus metadata.
func Build(pages []webgraph.PageMeta) *Index {
	idx := &Index{postings: map[string][]webgraph.PageID{}}
	for pid, pm := range pages {
		seen := map[string]bool{}
		for _, t := range pm.Terms {
			if seen[t] {
				continue
			}
			seen[t] = true
			idx.postings[t] = append(idx.postings[t], webgraph.PageID(pid))
		}
	}
	// Page IDs were appended in increasing order, so lists are sorted.
	return idx
}

// Lookup returns the pages containing term (nil if none). The returned
// slice is shared; callers must not modify it.
func (idx *Index) Lookup(term string) []webgraph.PageID {
	return idx.postings[term]
}

// NumTerms reports the vocabulary size.
func (idx *Index) NumTerms() int { return len(idx.postings) }

// PagesWithAtLeast returns, ascending, the pages in [lo, hi) that
// contain at least k of the given terms (a term named twice counts
// once) — the Query 2 predicate "at least two of the words in Cw",
// restricted to a domain's contiguous ID range. It is a counting merge
// of the terms' postings, each cut to the range by binary search: the
// work is the postings' pages inside the range, and the allocation the
// cut lists and the pages returned. A k of one or less returns the union.
func (idx *Index) PagesWithAtLeast(terms []string, k int, lo, hi webgraph.PageID) []webgraph.PageID {
	lists := make([][]webgraph.PageID, 0, len(terms))
	for i, t := range terms {
		if slices.Contains(terms[:i], t) {
			continue
		}
		if post := idx.LookupInRange(t, lo, hi); len(post) > 0 {
			lists = append(lists, post)
		}
	}
	var out []webgraph.PageID
	for len(lists) >= max(k, 1) {
		// The smallest head is the next page; it is in as many lists as
		// have it at their head, because each list is strictly ascending.
		p := lists[0][0]
		for _, l := range lists[1:] {
			p = min(p, l[0])
		}
		n := 0
		for i := 0; i < len(lists); {
			if lists[i][0] != p {
				i++
				continue
			}
			n++
			if lists[i] = lists[i][1:]; len(lists[i]) == 0 {
				lists[i] = lists[len(lists)-1]
				lists = lists[:len(lists)-1]
				continue
			}
			i++
		}
		if n >= k {
			out = append(out, p)
		}
	}
	return out
}

// LookupInRange returns the pages containing term whose IDs fall in
// [lo, hi) — term search restricted to a domain's contiguous ID range.
func (idx *Index) LookupInRange(term string, lo, hi webgraph.PageID) []webgraph.PageID {
	post := idx.postings[term]
	a := sort.Search(len(post), func(i int) bool { return post[i] >= lo })
	b := sort.Search(len(post), func(i int) bool { return post[i] >= hi })
	return post[a:b]
}

// SizeBytes estimates the index memory footprint.
func (idx *Index) SizeBytes() int64 {
	var n int64
	for t, post := range idx.postings {
		n += int64(len(t)) + 4*int64(len(post)) + 24
	}
	return n
}
