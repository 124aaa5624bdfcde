package snode

import (
	"math"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"snode/internal/iosim"
	"snode/internal/randutil"
	"snode/internal/store"
	"snode/internal/synth"
	"snode/internal/webgraph"
)

// A warm lookup rules a resident positive superedge graph out from its
// cache node's source summary, and a compiled filter hands each
// supernode's lookups a memoised list of graphs. These tests pin that
// the summary never rules out a source, that the buffer manager sees
// exactly the lookups it saw before either existed, and that the lists
// are built once and right when goroutines race to build them.

// TestSourceSummaryIsSound looks up pages of a store on
// a cache that holds everything — so that the positive superedge graphs
// are resident in both states, their nodes made by admitLocked and by
// materialized — and then checks each resident node's
// summary against its graph for every local ID of the source supernode:
// a source is never ruled out, and every other node's summary rules
// nothing out. The store has supernodes of more than 64 pages, where the
// mask aliases, and the test fails if it does not.
func TestSourceSummaryIsSound(t *testing.T) { t.Run(paperFormat, testSourceSummaryIsSound) }

func testSourceSummaryIsSound(t *testing.T) {
	if size := unsafe.Sizeof(cacheNode{}); size != 64 {
		t.Errorf("cacheNode is %d bytes, want 64 (one size class, one cache line)", size)
	}
	if size := unsafe.Sizeof(encodedGraph{}); size != 128 {
		t.Errorf("encodedGraph is %d bytes, want 128 (one size class; memSize charges the 64 past its cache node)", size)
	}
	r, err := Open(buildTestRep(t, 2000), 256<<20, iosim.Model2002())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Every third page: a lookup loads every graph of its supernode,
	// and materializes only those its page is a source of.
	var buf []webgraph.PageID
	for p := int32(0); p < r.m.NumPages; p += 3 {
		if buf, err = r.Out(p, buf[:0]); err != nil {
			t.Fatal(err)
		}
	}
	var sourcesOnly, whole, wide, aliased, ruledOut int
	for gid := range r.m.Directory {
		e := &r.m.Directory[gid]
		n := r.cache.slots[gid].Load()
		if n == nil {
			continue
		}
		if e.Kind != kindSuperPos {
			if n.srcLo != 0 || n.srcHi != math.MaxInt32 || n.srcMask != ^uint64(0) {
				t.Fatalf("graph %d (kind %d) carries summary [%d, %d] %#x, want the empty one", gid, e.Kind, n.srcLo, n.srcHi, n.srcMask)
			}
			continue
		}
		var srcs []int32
		switch g := n.g.(type) {
		case *encodedGraph:
			srcs, sourcesOnly = g.srcs, sourcesOnly+1
		case *decodedSuperPos:
			srcs, whole = g.srcs, whole+1
		default:
			t.Fatalf("graph %d: positive superedge graph held as %T", gid, n.g)
		}
		niSize := r.snSize(e.I)
		if niSize > 64 {
			wide++
		}
		for local := int32(0); local < niSize; local++ {
			switch source := findSource(srcs, local) >= 0; {
			case source && n.rulesOut(local):
				t.Fatalf("graph %d: summary [%d, %d] %#x rules out source %d", gid, n.srcLo, n.srcHi, n.srcMask, local)
			case !source && n.rulesOut(local):
				ruledOut++
			case !source:
				aliased++
			}
		}
	}
	t.Logf("%d sources-only and %d whole positive graphs, %d of them from supernodes over 64 pages; %d non-sources ruled out, %d let through",
		sourcesOnly, whole, wide, ruledOut, aliased)
	if sourcesOnly == 0 || whole == 0 || wide == 0 || aliased == 0 || ruledOut == 0 {
		t.Fatal("the store does not exercise both node states, wide supernodes, aliasing and exclusion")
	}
}

// TestFilterGraphListsUnderConcurrency has goroutines make the first
// lookups in the same supernodes under one shared filter, round after
// round with a fresh filter, so that they race to build and publish each
// supernode's list of graphs. Every row must be the CSR's under the
// filter, and afterwards every supernode's list must be published and
// hold exactly the graphs the filter, evaluated per call, would have
// consulted, in ascending gid. Under -race (make test-race) this is the
// lists' data-race check.
func TestFilterGraphListsUnderConcurrency(t *testing.T) {
	crawl, err := synth.Generate(synth.DefaultConfig(400))
	if err != nil {
		t.Fatal(err)
	}
	c := crawl.Corpus
	r := buildAndOpen(t, c, DefaultConfig())
	n := int32(c.Graph.NumPages())
	for round := int32(0); round < 12; round++ {
		var pages []webgraph.PageID
		for p := round; p < n; p += 11 {
			pages = append(pages, p)
		}
		f := filterOf(c, []string{c.Pages[(round*37)%n].Domain}, pages...)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				var buf []webgraph.PageID
				for p := int32(0); p < n; p++ {
					var err error
					if buf, err = r.OutFiltered(p, f, buf[:0]); err != nil {
						t.Errorf("OutFiltered(%d): %v", p, err)
						return
					}
					var want []webgraph.PageID
					for _, q := range c.Graph.Out(p) {
						if f.Accepts(q) {
							want = append(want, q)
						}
					}
					if got := sortedCopy(buf); !slices.Equal(got, want) {
						t.Errorf("round %d: OutFiltered(%d) = %v, want %v", round, p, got, want)
						return
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		if t.Failed() {
			return
		}
		cf, wants := r.compile(f), pageWants(r, f)
		for i := int32(0); i < int32(r.Supernodes()); i++ {
			l := cf.graphs[i].Load()
			if l == nil {
				t.Fatalf("round %d: supernode %d was looked up and has no list", round, i)
			}
			var want []needEntry
			if wants(i) {
				want = append(want, needEntry{gid: r.m.IntraGID[i], j: i})
			}
			for k := r.m.SuperOff[i]; k < r.m.SuperOff[i+1]; k++ {
				if j := r.m.SuperAdj[k]; wants(j) {
					want = append(want, needEntry{gid: r.m.SuperGID[k], j: j})
				}
			}
			if !slices.Equal(*l, want) {
				t.Fatalf("round %d: supernode %d lists %v, want %v", round, i, *l, want)
			}
		}
	}
}

// pinnedStream is a fixed stream of lookups over the shared test store:
// Zipf and uniform pages in turn, unfiltered, under a domain filter and
// under a page-set filter, so that it touches hot and cold supernodes and
// both kinds of filtered graph choice.
func pinnedStream(t *testing.T, r *Representation, lookups int) {
	t.Helper()
	c, _ := buildOnce(t)
	n := int(r.m.NumPages)
	var seventh []webgraph.PageID
	for p := 0; p < n; p += 7 {
		seventh = append(seventh, webgraph.PageID(p))
	}
	filters := []*store.Filter{
		nil,
		filterOf(c, []string{"stanford.edu", "mit.edu", "berkeley.edu"}),
		filterOf(c, nil, seventh...),
	}
	rng := randutil.NewRNG(31)
	zipf := randutil.NewZipf(rng.Split(1), n, 1.1)
	var buf []webgraph.PageID
	for k := 0; k < lookups; k++ {
		p := webgraph.PageID(rng.Intn(n))
		if k%2 == 0 {
			p = webgraph.PageID(zipf.Sample())
		}
		var err error
		if buf, err = r.OutFiltered(p, filters[k%len(filters)], buf[:0]); err != nil {
			t.Fatalf("lookup %d: OutFiltered(%d): %v", k, p, err)
		}
	}
}

// TestLookupCountersPinned runs a fixed 20,000-lookup stream at three
// budgets and compares the buffer manager's counters with the values the
// stream produced when every graph first entered the cache encoded (the
// lookup that loads a graph decodes one list of it; one that finds it
// decodes it whole). A graph the summary rules out is still looked up,
// touched and counted at its turn among the lookup's graphs, so every
// load, hit, eviction, materialization and list decode must happen
// exactly as it did: a check moved out of that loop (a pre-pass, say)
// reorders reference bits against materializations and moves these
// numbers.
func TestLookupCountersPinned(t *testing.T) {
	for _, tc := range []struct {
		budget  int64
		want    CacheStats
		decoded int64
	}{
		{16 << 10, CacheStats{Loads: 345750, Hits: 67320, Misses: 345750, Evictions: 345650,
			IntraLoads: 12620, SuperLoads: 333130, Materialized: 7654, ListDecodes: 52724}, 6322645},
		{64 << 10, CacheStats{Loads: 260138, Hits: 152932, Misses: 260138, Evictions: 259803,
			IntraLoads: 8335, SuperLoads: 251803, Materialized: 10561, ListDecodes: 38649}, 6797111},
		{256 << 20, CacheStats{Loads: 2290, Hits: 410780, Misses: 2290,
			IntraLoads: 87, SuperLoads: 2203, Materialized: 2098, ListDecodes: 373}, 81361},
	} {
		r := openRep(t, tc.budget)
		pinnedStream(t, r, 20000)
		if got := r.StatsExt().Cache; got != tc.want || r.DecodedEdges() != tc.decoded {
			t.Errorf("budget %d: counters %+v, %d decoded edges; want %+v, %d", tc.budget, got, r.DecodedEdges(), tc.want, tc.decoded)
		}
	}
}
