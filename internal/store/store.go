// Package store defines the access interface every Web-graph
// representation in this repository implements — the S-Node scheme and
// the four baselines (plain Huffman, Link3, relational, uncompressed
// files). The query engine runs against this interface, so Figure 11's
// comparison exercises identical navigation plans over each scheme.
package store

import (
	"context"
	"sync/atomic"
	"time"

	"snode/internal/iosim"
	"snode/internal/webgraph"
)

// Filter restricts which link targets a navigation step wants. Schemes
// that index their layout by domain or page grouping (S-Node) can skip
// whole graphs; flat schemes apply the filter to decoded lists. A zero
// Filter accepts everything.
//
// A Filter is immutable after first use: once it has been handed to a
// store its maps must not change, because a store may resolve it
// against its own layout once and reuse the result (Compiled). Build a
// new Filter for a new target set. Pass filters by pointer.
type Filter struct {
	// Domains accepts targets in any of these registered domains.
	Domains map[string]bool
	// Pages accepts exactly these target pages. When both fields are
	// set a target passes if it satisfies either.
	Pages map[webgraph.PageID]bool

	// compiled is the memo behind Compiled: one entry per store that
	// resolved this filter, newest first, unreachable once the filter
	// is. The atomic pointer carries a noCopy marker, so go vet's
	// copylocks check is what keeps a memo-carrying Filter from being
	// copied by value (a copy would share the entries but not later
	// ones, and nothing else would say so).
	compiled atomic.Pointer[compiledFilter]
}

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

// Empty reports whether the filter accepts everything.
func (f *Filter) Empty() bool {
	return f == nil || (f.Domains == nil && f.Pages == nil)
}

// AcceptsPage applies the page-set part; domain checks need metadata
// and are done by the caller or the store.
func (f *Filter) AcceptsPage(p webgraph.PageID) bool {
	return f.Pages != nil && f.Pages[p]
}

// AcceptsDomain applies the domain part.
func (f *Filter) AcceptsDomain(d string) bool {
	return f.Domains != nil && f.Domains[d]
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
// (internal/trace) and cancellation. The query engine routes accesses
// through it when the scheme provides it (S-Node); the flat baselines
// keep the plain path. OutFilteredCtx with a background context must
// behave exactly like OutFiltered (and, with a nil filter, like Out).
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

// DomainRanges computes each domain's page range. The crawl generator
// assigns IDs in (domain, URL) order, so every domain is contiguous;
// this is the domain index the flat baselines keep in memory (the §4
// setup gives every scheme a domain and page-ID index).
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

// FilterAccepts applies a filter to a concrete target given the page's
// domain (used by flat schemes that decode full lists).
func FilterAccepts(f *Filter, p webgraph.PageID, domainOf func(webgraph.PageID) string) bool {
	if f.Empty() {
		return true
	}
	if f.AcceptsPage(p) {
		return true
	}
	return f.Domains != nil && f.Domains[domainOf(p)]
}
