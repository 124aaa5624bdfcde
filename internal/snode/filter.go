package snode

import (
	"sync/atomic"

	"snode/internal/store"
)

// snFilter is a store.Filter resolved against one representation's
// supernodes, so that a lookup takes the graphs it needs from a list
// instead of testing page ranges per superedge. It is built
// once per (filter, representation) and memoised in the filter
// (store.Filter.Compiled); apart from the lists it publishes, once each,
// it is immutable.
type snFilter struct {
	// domain has supernode s set when every page of s passes the
	// filter, as every page of an accepted domain does.
	domain bitset
	// any has supernode s set when some page of s passes. A graph into
	// a supernode outside any is never consulted.
	any bitset
	// graphs holds, per source supernode i, the graphs a lookup in i
	// consults under the filter: those of i's graphs (appendGraphs) whose
	// targets lie in any, in ascending gid. Entry i is nil until the
	// first lookup in i builds and publishes it; it never changes after.
	graphs []atomic.Pointer[[]needEntry]
}

// allOf reports whether every page of supernode s passes.
func (cf *snFilter) allOf(s int32) bool { return cf == nil || cf.domain.has(s) }

// graphsIn returns the graphs a lookup in supernode i consults under cf,
// building the list on the first call for i. Goroutines that build it at
// once build equal lists, and one of them is published.
func (cf *snFilter) graphsIn(m *meta, i int32) []needEntry {
	if l := cf.graphs[i].Load(); l != nil {
		return *l
	}
	var scratch [outScratch]needEntry
	all := m.appendGraphs(scratch[:0], i)
	kept := all[:0]
	for _, ne := range all {
		if cf.any.has(ne.j) {
			kept = append(kept, ne)
		}
	}
	l := append([]needEntry(nil), kept...)
	cf.graphs[i].CompareAndSwap(nil, &l)
	return l
}

// compile returns f resolved against r, nil for a nil filter, which
// accepts everything. A supernode is in domain when f's ranges cover
// every page of it and in any when they cover one; a range's pages
// outside the representation belong to no supernode.
func (r *Representation) compile(f *store.Filter) *snFilter {
	if f == nil {
		return nil
	}
	return f.Compiled(r, func() any {
		n := r.Supernodes()
		words := (n + 63) / 64
		cf := &snFilter{
			domain: make(bitset, words),
			any:    make(bitset, words),
			graphs: make([]atomic.Pointer[[]needEntry], n),
		}
		covered := make([]int32, n)
		for _, rg := range f.Ranges() {
			for p := max(rg.Lo, 0); p < min(rg.Hi, r.m.NumPages); p++ {
				covered[r.snOf(r.m.Perm[p])]++
			}
		}
		for s, c := range covered {
			if c > 0 {
				cf.any.set(int32(s))
			}
			if c > 0 && c == r.m.SnBase[s+1]-r.m.SnBase[s] {
				cf.domain.set(int32(s))
			}
		}
		return cf
	}).(*snFilter)
}

// bitset is a fixed-size set of small non-negative integers.
type bitset []uint64

func (b bitset) set(i int32)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) has(i int32) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }
