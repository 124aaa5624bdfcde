// Package store defines the access interface every Web-graph
// representation in this repository implements — the S-Node scheme and
// the four baselines (plain Huffman, Link3, relational, uncompressed
// files). The query engine runs against this interface, so Figure 11's
// comparison exercises identical navigation plans over each scheme.
package store

import (
	"cmp"
	"context"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"snode/internal/iosim"
	"snode/internal/webgraph"
)

// Filter restricts which link targets a navigation step wants: the
// pages of a sorted list of disjoint ID ranges. A domain is one range
// (DomainRanges), so a domain filter is its domains' ranges and a page
// filter a range per page. Schemes that index their layout by domain or
// page grouping (S-Node) can skip whole graphs; flat schemes apply the
// filter to decoded lists. A nil *Filter accepts every page; a Filter
// with no ranges accepts none.
//
// A Filter is immutable: NewFilter is the only way to give it ranges,
// so a store may resolve it against its own layout once and reuse the
// result (Compiled). Pass filters by pointer.
type Filter struct {
	// ranges are the accepted pages: ascending, disjoint and
	// non-adjacent, none empty.
	ranges []DomainRange

	// compiled is the memo behind Compiled: one entry per store that
	// resolved this filter, newest first, unreachable once the filter
	// is. The atomic pointer carries a noCopy marker, so go vet's
	// copylocks check is what keeps a memo-carrying Filter from being
	// copied by value (a copy would share the entries but not later
	// ones, and nothing else would say so).
	compiled atomic.Pointer[compiledFilter]
}

// NewFilter returns the filter that accepts the pages of rs. The ranges
// may overlap, touch, come in any order or be empty (the zero range
// that DomainRanges gives for a domain the corpus lacks); they are
// sorted and joined here.
func NewFilter(rs ...DomainRange) *Filter {
	f := &Filter{}
	for _, r := range rs {
		if r.Lo < r.Hi {
			f.ranges = append(f.ranges, r)
		}
	}
	slices.SortFunc(f.ranges, func(a, b DomainRange) int { return cmp.Compare(a.Lo, b.Lo) })
	joined := f.ranges[:0]
	for _, r := range f.ranges {
		if n := len(joined); n > 0 && r.Lo <= joined[n-1].Hi {
			joined[n-1].Hi = max(joined[n-1].Hi, r.Hi)
			continue
		}
		joined = append(joined, r)
	}
	f.ranges = joined
	return f
}

// Accepts reports whether page p passes the filter: a binary search of
// its ranges. A nil filter accepts every page.
func (f *Filter) Accepts(p webgraph.PageID) bool {
	if f == nil {
		return true
	}
	k := sort.Search(len(f.ranges), func(k int) bool { return f.ranges[k].Hi > p })
	return k < len(f.ranges) && f.ranges[k].Lo <= p
}

// Ranges returns a copy of the filter's ranges, ascending, disjoint and
// non-adjacent, for a store that resolves the filter against its layout.
// f must not be nil.
func (f *Filter) Ranges() []DomainRange { return slices.Clone(f.ranges) }

// compiledFilter is one store's resolved form of a filter.
type compiledFilter struct {
	key, val any
	next     *compiledFilter
}

// Compiled returns the form of f that the store identified by key
// resolved it to, calling build the first time that store asks. It is
// safe for concurrent use and takes no lock: when several goroutines
// ask first at once each may run build, one result is published, and
// all of them return that one. The memo lives in the filter — a handful
// of entries at most (a step's filter meets one store per direction and
// shard) — and holds key and value only as long as the filter is
// reachable. f must not be nil.
func (f *Filter) Compiled(key any, build func() any) any {
	var val any
	built := false
	for {
		head := f.compiled.Load()
		for c := head; c != nil; c = c.next {
			if c.key == key {
				return c.val
			}
		}
		if !built {
			val, built = build(), true
		}
		if f.compiled.CompareAndSwap(head, &compiledFilter{key: key, val: val, next: head}) {
			return val
		}
	}
}

// AccessStats summarizes the I/O a store performed, for navigation-time
// accounting.
type AccessStats struct {
	IO iosim.Stats
	// GraphsLoaded counts representation-specific load units (S-Node
	// intranode/superedge graphs, Link3 blocks, DB pages, ...).
	GraphsLoaded int64
}

// ModeledTime converts the stats to simulated disk time under m.
func (s AccessStats) ModeledTime(m iosim.Model) time.Duration {
	return s.IO.ModeledTime(m)
}

// LinkStore is a queryable graph representation. Thread safety is per
// implementation: the S-Node representation is safe for concurrent use
// (its buffer manager is sharded and deduplicates concurrent decodes),
// and a Shared query engine requires that; the four baseline
// schemes remain single-threaded, like the paper's hand-crafted plans.
type LinkStore interface {
	// Name identifies the scheme ("snode", "link3", ...).
	Name() string
	// NumPages reports the number of pages represented.
	NumPages() int
	// Out appends page p's out-neighbours to buf and returns it. The
	// order is unspecified but deterministic; no duplicates.
	Out(p webgraph.PageID, buf []webgraph.PageID) ([]webgraph.PageID, error)
	// OutFiltered appends only the out-neighbours accepted by f.
	// Schemes exploit f to avoid loading irrelevant storage.
	OutFiltered(p webgraph.PageID, f *Filter, buf []webgraph.PageID) ([]webgraph.PageID, error)
	// Stats reports cumulative access statistics since ResetStats.
	Stats() AccessStats
	// ResetStats zeroes the access statistics.
	ResetStats()
	// Close releases files and caches.
	Close() error
}

// ContextLinkStore is implemented by stores whose read path accepts a
// context.Context carrying request-scoped state — execution traces
// (internal/trace) and cancellation. The query engine's one-page read
// (/out), delta.Overlay and the benchmark's tracedStore read through it;
// plan steps read through Neighbors. OutFilteredCtx with a background
// context must behave exactly like OutFiltered (and, with a nil filter,
// like Out).
type ContextLinkStore interface {
	LinkStore
	OutFilteredCtx(ctx context.Context, p webgraph.PageID, f *Filter, buf []webgraph.PageID) ([]webgraph.PageID, error)
}

// CacheResetter is implemented by disk-backed stores whose buffer can
// be emptied and re-budgeted — the Figure 12 sweep protocol (and cold
// starts generally).
type CacheResetter interface {
	ResetCache(budget int64)
}

// Pacer is implemented by stores that can replay their modeled disk
// cost as real per-read stalls (iosim pacing). The concurrent-serving
// experiments enable it so goroutines genuinely overlap modeled I/O
// waits; scale 0 disables.
type Pacer interface {
	SetPace(scale float64)
}

// Hedger is implemented by no store: hedged reads were removed, and a
// coalesced cache miss waits for its leader's decode. The one type
// assertion left, the benchmark harness's tracedStore.SetHedge
// forwarder, always fails. ROADMAP item 1(7) deletes this declaration
// together with that forwarder.
type Hedger interface {
	SetHedge(after time.Duration)
}

// Sized is implemented by stores that can report their total on-disk /
// in-memory representation size for the compression experiments.
type Sized interface {
	// SizeBytes is the total space of the representation, including its
	// internal indexes (page-ID and domain indexes), as in Table 1.
	SizeBytes() int64
}

// BitsPerEdge is the Table 1 metric.
func BitsPerEdge(s Sized, edges int64) float64 {
	if edges == 0 {
		return 0
	}
	return float64(s.SizeBytes()*8) / float64(edges)
}

// DomainRange is a contiguous external page-ID interval [Lo, Hi).
type DomainRange struct {
	Lo, Hi webgraph.PageID
}

// Contains reports whether p falls in the range. The zero range — what
// DomainRanges gives for a domain the corpus lacks — contains no page.
func (r DomainRange) Contains(p webgraph.PageID) bool { return p >= r.Lo && p < r.Hi }

// DomainRanges maps each domain to its page range: the domain index
// the flat baselines keep in memory (the §4 setup gives every scheme a
// domain and page-ID index), the form in which the query plans test a
// page's domain, and what their domain filters are built from
// (NewFilter). It is exact only because every corpus keeps a domain's
// pages contiguous in page-ID order: the crawl generator assigns IDs in
// (domain, URL) order, and webgraph.Corpus.Validate, which ingest and
// every corpus reader call, refuses pages in which a domain resumes
// after another domain's. NewDomainRanges does not check it; over pages
// that broke it, a domain would map to its last run alone.
type DomainRanges map[string]DomainRange

// NewDomainRanges builds the index from page metadata.
func NewDomainRanges(pages []webgraph.PageMeta) DomainRanges {
	out := DomainRanges{}
	for i := 0; i < len(pages); {
		j := i
		d := pages[i].Domain
		for j < len(pages) && pages[j].Domain == d {
			j++
		}
		out[d] = DomainRange{Lo: webgraph.PageID(i), Hi: webgraph.PageID(j)}
		i = j
	}
	return out
}

// SizeBytes reports the in-memory footprint of the index, for the
// Table 1 accounting.
func (dr DomainRanges) SizeBytes() int64 {
	var n int64
	for d := range dr {
		n += int64(len(d)) + 8
	}
	return n
}
