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
	"strings"

	"snode/internal/webgraph"
)

// Index maps terms to sorted posting lists.
type Index struct {
	ids   map[string]int32 // term → its list in lists
	lists [][]webgraph.PageID
}

// Build indexes the corpus metadata. It counts each term's pages
// first, then cuts every posting list from one array at its exact size
// (len == cap): nothing grows by append. A term a page lists twice
// counts once, found among the page's own few terms, with no set made
// per page. Each distinct term is copied once, when it is first seen,
// and the map is never assigned a key it holds (an assignment stores
// its key anew), so the index keeps nothing of the strings the pages'
// terms are cut from.
func Build(pages []webgraph.PageMeta) *Index {
	idx := &Index{ids: map[string]int32{}}
	var counts []int
	var seq []int32 // each posting's list, in page order
	for _, pm := range pages {
		for i, t := range pm.Terms {
			if slices.Contains(pm.Terms[:i], t) {
				continue
			}
			id, ok := idx.ids[t]
			if !ok {
				id = int32(len(counts))
				idx.ids[strings.Clone(t)] = id
				counts = append(counts, 0)
			}
			counts[id]++
			seq = append(seq, id)
		}
	}
	idx.lists = make([][]webgraph.PageID, len(counts))
	all := make([]webgraph.PageID, len(seq))
	for id, c := range counts {
		idx.lists[id], all = all[:0:c], all[c:]
	}
	for pid, pm := range pages {
		for i, t := range pm.Terms {
			if !slices.Contains(pm.Terms[:i], t) {
				id := seq[0]
				seq = seq[1:]
				idx.lists[id] = append(idx.lists[id], webgraph.PageID(pid))
			}
		}
	}
	// Page IDs were appended in increasing order, so lists are sorted.
	return idx
}

// Lookup returns the pages containing term (nil if none). The returned
// slice is shared; callers must not modify it.
func (idx *Index) Lookup(term string) []webgraph.PageID {
	if id, ok := idx.ids[term]; ok {
		return idx.lists[id]
	}
	return nil
}

// NumTerms reports the vocabulary size.
func (idx *Index) NumTerms() int { return len(idx.ids) }

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
	post := idx.Lookup(term)
	a := sort.Search(len(post), func(i int) bool { return post[i] >= lo })
	b := sort.Search(len(post), func(i int) bool { return post[i] >= hi })
	return post[a:b]
}

// SizeBytes is the index's memory from what it holds: each posting
// list at its capacity with its header, and each term's bytes, string
// header and list number (the map's own slots are not counted).
func (idx *Index) SizeBytes() int64 {
	var n int64
	for t := range idx.ids {
		n += int64(len(t)) + 16 + 4
	}
	for _, post := range idx.lists {
		n += 24 + 4*int64(cap(post))
	}
	return n
}
