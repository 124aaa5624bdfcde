package snode

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"

	"snode/internal/store"
	"snode/internal/webgraph"
)

// Out implements store.LinkStore: the full adjacency of external page
// p, assembled from the intranode graph and every out-superedge graph
// of p's supernode (the paper's noted trade-off of partitioned
// adjacency lists).
func (r *Representation) Out(p webgraph.PageID, buf []webgraph.PageID) ([]webgraph.PageID, error) {
	return r.OutFilteredCtx(context.Background(), p, nil, buf)
}

// OutFiltered implements store.LinkStore. The filter is exploited
// structurally: a superedge graph is loaded only when its target
// supernode can contain accepted pages, which is how S-Node achieves
// focused access (§1.2, Requirement 2).
func (r *Representation) OutFiltered(p webgraph.PageID, f *store.Filter, buf []webgraph.PageID) ([]webgraph.PageID, error) {
	return r.OutFilteredCtx(context.Background(), p, f, buf)
}

// OutFilteredCtx implements store.ContextLinkStore: the one-page case of
// Neighbors, with the page's list appended to buf. When ctx carries an
// execution trace the lookup attributes its work to the request — graphs
// consulted, cache hits and misses, coalesced waits behind other
// goroutines' decodes, span reads and the decodes they led. A lookup
// whose graphs are all resident, and decoded whole where it needs a list
// of them, takes no lock and, given room in buf, allocates nothing: the
// filter is resolved once per (filter, store), and the graphs it lets a
// lookup in each supernode consult are listed once, by the first such
// lookup; each lookup copies its list to a stack array (a pooled one in
// a supernode with more graphs than that holds); a resident graph the
// page is not a source of is ruled out from its cache node (consult);
// and targets are translated in buf itself, which is the one page's
// whole list.
func (r *Representation) OutFilteredCtx(ctx context.Context, p webgraph.PageID, f *store.Filter, buf []webgraph.PageID) ([]webgraph.PageID, error) {
	if err := r.checkPage(p); err != nil {
		return buf, err
	}
	internal := r.m.Perm[p]
	i := r.snOf(internal)
	locals := [1]int32{internal - r.m.SnBase[i]}
	var lists [1]pageList
	o := navOut{ids: buf} // a lone page's runs join into one, in buf
	cf := r.compile(f)
	var scratch [outScratch]needEntry
	need := scratch[:0]
	if n := r.graphCount(i, cf); n > outScratch {
		big := needPool.Get().(*[]needEntry)
		defer needPool.Put(big)
		*big = slices.Grow((*big)[:0], n)
		need = (*big)[:0]
	}
	err := r.readGroup(ctx, i, locals[:], lists[:], f, cf, need, &o)
	return o.ids, err
}

// needPool holds the lists of graphs to consult of lookups in supernodes
// with more than outScratch of them.
var needPool = sync.Pool{New: func() any { return new([]needEntry) }}

// Neighbors hands visit each page of pages with its out-links under f,
// in external IDs, in the order of pages, duplicates included: the
// set-at-a-time read of a plan step (§4.3), each list exactly the one
// OutFilteredCtx returns. It groups the pages by supernode, taking the
// groups in the order their first page appears, and reads each group
// with one pass over its supernode's graphs (readGroup), so a graph is
// looked up once per group, not once per page, and a resident graph
// whose source summary rules out every page of the group is not handed
// on. The lists are all read before the first visit. out is valid
// only during its visit, which may reorder it but must not keep it; the
// first error from a read or from visit ends the call, and a page out of
// range fails it before anything is read.
//
// Once its filter has been compiled, a call whose graphs are resident
// and decoded whole allocates nothing: its working memory comes from a
// free list.
func (r *Representation) Neighbors(ctx context.Context, pages []webgraph.PageID, f *store.Filter, visit func(p webgraph.PageID, out []webgraph.PageID) error) error {
	for _, p := range pages {
		if err := r.checkPage(p); err != nil {
			return err
		}
	}
	sc := getNavScratch()
	defer putNavScratch(sc)
	sc.group(r, pages)
	cf := r.compile(f)
	for _, g := range sc.groups {
		if err := ctx.Err(); err != nil {
			return err
		}
		sc.need = slices.Grow(sc.need[:0], r.graphCount(g.sn, nil))
		if err := r.readGroup(ctx, g.sn, sc.locals[g.lo:g.hi], sc.lists[g.lo:g.hi], f, cf, sc.need, &sc.out); err != nil {
			return err
		}
	}
	for k, p := range pages {
		if err := visit(p, sc.list(sc.slotOf[k])); err != nil {
			return err
		}
	}
	return nil
}

// checkPage refuses a page outside the representation.
func (r *Representation) checkPage(p webgraph.PageID) error {
	if p < 0 || p >= r.m.NumPages {
		return fmt.Errorf("snode: page %d out of range", p)
	}
	return nil
}

// graphCount is how many graphs a read in supernode i consults under cf.
func (r *Representation) graphCount(i int32, cf *snFilter) int {
	if cf != nil {
		return len(cf.graphsIn(r.m, i))
	}
	return int(r.m.SuperOff[i+1]-r.m.SuperOff[i]) + 1
}

// readGroup reads into o the lists of the pages of supernode i whose
// local IDs are locals (ascending, distinct), page k's as the runs
// runs[k] records: it lists the graphs of i that cf lets a read consult,
// in need (which must have room for them), and consults each of them once
// for all the pages. It is the one read path of OutFilteredCtx and
// Neighbors.
//
// Each graph hands its lists to the pages that hold one in it, in
// ascending local ID: in an intranode or a negative superedge graph every
// page has its list, at its local ID; in a positive superedge graph the
// holders are found by one merge walk of the pages against the graph's
// sources, which gallops over whichever side is behind. An encoded entry
// found in the cache (hit) is decoded whole for its first holder, as is
// one loaded by this read for its second — the first holder of a graph
// just loaded decodes its own list alone, as a one-page lookup would, and
// the next one finds the entry it left, as the next page's lookup would.
// When the whole decode fails, each holder decodes its own list, so
// whether a page's read succeeds never depends on what the cache holds.
func (r *Representation) readGroup(ctx context.Context, i int32, locals []int32, runs []pageList, f *store.Filter, cf *snFilter, need []needEntry, o *navOut) error {
	if cf == nil {
		need = r.m.appendGraphs(need, i)
	} else {
		need = append(need, cf.graphsIn(r.m, i)...)
	}
	return r.consult(ctx, i, locals, need, func(gid GraphID, j int32, g *graph, hit bool) error {
		pos, srcs := g.kind == kindSuperPos, g.srcs
		tried, held, s, gallop := g.whole, 0, 0, len(locals) > 1
		var inv []webgraph.PageID
		var all bool
		ids := o.ids
		for k := 0; k < len(locals); k++ {
			local := locals[k]
			list := int(local)
			if pos {
				if s < len(srcs) && srcs[s] < local {
					s = seek(srcs, s, local, gallop)
				}
				if s == len(srcs) {
					break
				}
				if srcs[s] > local {
					if k+1 < len(locals) {
						k = seek(locals, k+1, srcs[s], gallop) - 1
					}
					continue
				}
				list = s
			}
			if held == 0 {
				inv, all = r.m.Inv[r.m.SnBase[j]:], cf.allOf(j)
			}
			if !tried && (hit || held > 0) {
				tried = true
				if full, err := r.materialize(ctx, gid, g); err == nil {
					g = full
				}
			}
			from := len(ids)
			switch {
			case !g.whole:
				var err error
				if ids, err = r.decodeList(gid, g, list, ids); err != nil {
					o.ids = ids
					return err
				}
			case g.kind == kindSuperNeg:
				ids = appendComplement(ids, g.lists.At(list), g.bound)
			default:
				ids = append(ids, g.lists.At(list)...)
			}
			held++
			if len(ids) > from {
				ids = translate(ids, from, inv, all, f)
				o.add(&runs[k], from, len(ids))
			}
		}
		o.ids = ids
		return nil
	})
}

// translate turns the local targets in ids[from:], of a supernode whose
// pages' external IDs inv lists, into external page IDs in place,
// keeping those f accepts unless all of them pass.
func translate(ids []webgraph.PageID, from int, inv []webgraph.PageID, all bool, f *store.Filter) []webgraph.PageID {
	if all {
		run := ids[from:]
		for x, t := range run {
			run[x] = inv[t]
		}
		return ids
	}
	kept := ids[:from]
	for _, t := range ids[from:] {
		if ext := inv[t]; f.Accepts(ext) {
			kept = append(kept, ext)
		}
	}
	return kept
}

// navOut holds a read's lists. A graph hands each of its holders' lists
// over in turn, so a page's list is built in runs of ids, one per graph
// or several adjacent ones joined, chained in the order they were made.
type navOut struct {
	ids   []webgraph.PageID
	frags []frag
}

// frag is the run ids[start:end] of a page's list after its first; next
// is the index+1 of the page's next such run, 0 after its last.
type frag struct{ start, end, next int32 }

// pageList is one page's runs: its first, ids[start:end], with end 0
// while it has none, and the index+1 of its first and of its last run
// after that, both 0 while it has none.
type pageList struct{ start, end, head, tail int32 }

// add makes ids[from:to] the next run of pl's list, joining it to pl's
// last run when that ends where it starts — always so when one page is
// read.
func (o *navOut) add(pl *pageList, from, to int) {
	start, end := int32(from), int32(to)
	switch {
	case start == end:
	case pl.end == 0:
		pl.start, pl.end = start, end
	case pl.tail == 0 && pl.end == start:
		pl.end = end
	case pl.tail == 0:
		o.frags = append(o.frags, frag{start: start, end: end})
		pl.head, pl.tail = int32(len(o.frags)), int32(len(o.frags))
	case o.frags[pl.tail-1].end == start:
		o.frags[pl.tail-1].end = end
	default:
		o.frags = append(o.frags, frag{start: start, end: end})
		o.frags[pl.tail-1].next = int32(len(o.frags))
		pl.tail = int32(len(o.frags))
	}
}

// navScratch is a Neighbors call's working memory.
type navScratch struct {
	keys   []uint64   // per position of pages, its page's internal ID and the position
	slotOf []int32    // per position of pages, the slot of its page
	locals []int32    // per slot, the page's local ID; a group's slots are contiguous and ascending
	lists  []pageList // per slot, its runs in out
	shared []bool     // per slot, whether more than one position of pages names it
	groups []navGroup
	need   []needEntry
	out    navOut
	gather []webgraph.PageID
}

// navGroup is one supernode's pages: slots [lo, hi), the first named at
// position first of pages.
type navGroup struct{ sn, lo, hi, first int32 }

// group places pages: a slot per distinct page, the slots of one
// supernode contiguous in ascending local ID, and the supernodes' groups
// in the order their first page appears. It sorts the pages by internal
// ID, which orders them by supernode and, within one, by local ID, so
// that a supernode is looked up once per group. It empties the lists of
// runs.
func (sc *navScratch) group(r *Representation, pages []webgraph.PageID) {
	sc.keys = sc.keys[:0]
	for k, p := range pages {
		sc.keys = append(sc.keys, uint64(r.m.Perm[p])<<32|uint64(k))
	}
	slices.Sort(sc.keys)
	n := len(pages)
	sc.slotOf = slices.Grow(sc.slotOf[:0], n)[:n]
	sc.locals, sc.lists, sc.shared, sc.groups = sc.locals[:0], sc.lists[:0], sc.shared[:0], sc.groups[:0]
	sc.out.ids, sc.out.frags = sc.out.ids[:0], sc.out.frags[:0]
	var g navGroup
	for x, key := range sc.keys {
		internal, pos := int32(key>>32), int32(uint32(key))
		if x == 0 || internal >= r.m.SnBase[g.sn+1] {
			if x > 0 {
				g.hi = int32(len(sc.locals))
				sc.groups = append(sc.groups, g)
			}
			g = navGroup{sn: r.snOf(internal), lo: int32(len(sc.locals)), first: pos}
		}
		if last := len(sc.locals) - 1; last >= int(g.lo) && sc.locals[last] == internal-r.m.SnBase[g.sn] {
			sc.shared[last] = true
		} else {
			sc.locals = append(sc.locals, internal-r.m.SnBase[g.sn])
			sc.lists = append(sc.lists, pageList{})
			sc.shared = append(sc.shared, false)
		}
		sc.slotOf[pos] = int32(len(sc.locals) - 1)
		g.first = min(g.first, pos)
	}
	if n > 0 {
		g.hi = int32(len(sc.locals))
		sc.groups = append(sc.groups, g)
	}
	slices.SortFunc(sc.groups, func(a, b navGroup) int { return cmp.Compare(a.first, b.first) })
}

// list returns slot s's list: its one run in place, or its runs
// gathered into one slice when it has several or its page is visited
// more than once (a visit may reorder what it is handed).
func (sc *navScratch) list(s int32) []webgraph.PageID {
	o, pl := &sc.out, sc.lists[s]
	if pl.head == 0 && !sc.shared[s] {
		return o.ids[pl.start:pl.end:pl.end]
	}
	sc.gather = append(sc.gather[:0], o.ids[pl.start:pl.end]...)
	for x := pl.head; x > 0; x = o.frags[x-1].next {
		f := o.frags[x-1]
		sc.gather = append(sc.gather, o.ids[f.start:f.end]...)
	}
	return sc.gather
}

// navScratches is the free list Neighbors takes its working memory
// from. It is not a sync.Pool, which under the race detector drops a
// quarter of what is put back and would make the engine's allocation
// counts vary from run to run. It keeps at most maxNavScratches, and
// none whose lists or page set outgrew maxKeptIDs.
var navScratches struct {
	mu   sync.Mutex
	free []*navScratch
}

const (
	maxNavScratches = 16
	maxKeptIDs      = 1 << 20
)

func getNavScratch() *navScratch {
	navScratches.mu.Lock()
	defer navScratches.mu.Unlock()
	n := len(navScratches.free)
	if n == 0 {
		return new(navScratch)
	}
	sc := navScratches.free[n-1]
	navScratches.free = navScratches.free[:n-1]
	return sc
}

func putNavScratch(sc *navScratch) {
	if cap(sc.out.ids) > maxKeptIDs || cap(sc.gather) > maxKeptIDs || cap(sc.keys) > maxKeptIDs {
		return
	}
	navScratches.mu.Lock()
	defer navScratches.mu.Unlock()
	if len(navScratches.free) < maxNavScratches {
		navScratches.free = append(navScratches.free, sc)
	}
}
