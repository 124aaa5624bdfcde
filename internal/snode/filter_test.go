package snode

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"snode/internal/iosim"
	"snode/internal/raceflag"
	"snode/internal/randutil"
	"snode/internal/store"
	"snode/internal/synth"
	"snode/internal/webgraph"
)

// A filter is resolved to supernode bitsets once per (filter, store)
// and reused by every lookup of the step. These tests pin that the
// compiled filter is the filter: the rows are Out's rows under
// Filter.Accepts, no graph is consulted that testing the filter page by
// page would not have consulted, the bitsets are the page-by-page ones,
// and one *Filter shared by many goroutines and two stores compiles
// once for each.

// filterOf is the filter that accepts corpus c's pages in the named
// domains and the pages listed: a range per domain and per page, as the
// query plans build theirs.
func filterOf(c *webgraph.Corpus, domains []string, pages ...webgraph.PageID) *store.Filter {
	ranges := store.NewDomainRanges(c.Pages)
	var rs []store.DomainRange
	for _, d := range domains {
		rs = append(rs, ranges[d])
	}
	for _, p := range pages {
		rs = append(rs, store.DomainRange{Lo: p, Hi: p + 1})
	}
	return store.NewFilter(rs...)
}

// filterCase is one filter of the differential sweep, made afresh for
// every store it is tried on, so each compiles it from scratch.
type filterCase struct {
	name string
	make func() *store.Filter
}

// filterCases draws the sweep's filters from corpus c: domains, pages,
// both, ranges that cut supernodes or reach past the pages, and the
// filters that accept nothing.
func filterCases(c *webgraph.Corpus, rng *randutil.RNG) []filterCase {
	n := int32(c.Graph.NumPages())
	dom := func() string { return c.Pages[rng.Intn(int(n))].Domain }
	d1, d2, d3 := dom(), dom(), dom()
	// Pages that are somebody's target, so that page sets select rows.
	var targets []webgraph.PageID
	for len(targets) < 6 {
		if row := c.Graph.Out(int32(rng.Intn(int(n)))); len(row) > 0 {
			targets = append(targets, row[rng.Intn(len(row))])
		}
	}
	lo := int32(rng.Intn(int(n)))
	return []filterCase{
		{"nil", func() *store.Filter { return nil }},
		{"domains", func() *store.Filter { return filterOf(c, []string{d1, d2, "no-such-domain.example"}) }},
		{"pages", func() *store.Filter { return filterOf(c, nil, targets[:4]...) }},
		{"both", func() *store.Filter { return filterOf(c, []string{d3}, targets[2:]...) }},
		{"cut", func() *store.Filter {
			return store.NewFilter(store.DomainRange{Lo: lo, Hi: lo + 1 + n/3}, store.DomainRange{Lo: targets[0], Hi: targets[0] + 1})
		}},
		{"past-the-ends", func() *store.Filter {
			return store.NewFilter(store.DomainRange{Lo: -1 << 31, Hi: 0}, store.DomainRange{Lo: n, Hi: 1<<31 - 1},
				store.DomainRange{Lo: targets[0], Hi: targets[0] + 1})
		}},
		{"no-ranges", func() *store.Filter { return store.NewFilter() }},
		{"empty-ranges", func() *store.Filter {
			return store.NewFilter(store.DomainRange{}, store.DomainRange{Lo: 5, Hi: 5}, store.DomainRange{Lo: 9, Hi: 3})
		}},
		{"missing-domains", func() *store.Filter { return filterOf(c, []string{"no-such-domain.example"}) }},
	}
}

// pageWants is the reference for which graphs a filter lets a lookup
// consult: those into a supernode that holds a page the filter accepts,
// found page by page.
func pageWants(r *Representation, f *store.Filter) func(sn int32) bool {
	wanted := map[int32]bool{}
	for p := int32(0); p < r.m.NumPages; p++ {
		if f.Accepts(p) {
			wanted[r.snOf(r.m.Perm[p])] = true
		}
	}
	return func(sn int32) bool { return wanted[sn] }
}

// checkFilterAgainstReference reads every page of c through r under
// every filter case on a cold cache, and checks the rows against Out's
// rows filtered by Filter.Accepts and the graphs left resident against
// pageWants.
func checkFilterAgainstReference(t *testing.T, c *webgraph.Corpus, r *Representation, seed uint64) {
	t.Helper()
	const budget = 64 << 20 // holds everything: resident afterwards = consulted
	n := int32(c.Graph.NumPages())
	rows := make([][]webgraph.PageID, n)
	for p := int32(0); p < n; p++ {
		row, err := r.Out(p, nil)
		if err != nil {
			t.Fatalf("Out(%d): %v", p, err)
		}
		if !slices.Equal(sortedCopy(row), c.Graph.Out(p)) {
			t.Fatalf("Out(%d) = %v, want %v", p, sortedCopy(row), c.Graph.Out(p))
		}
		rows[p] = row
	}
	var buf []webgraph.PageID
	for _, fc := range filterCases(c, randutil.NewRNG(seed)) {
		f := fc.make()
		wants := pageWants(r, f)
		selected := 0
		for p := int32(0); p < n; p++ {
			var want []webgraph.PageID
			for _, q := range rows[p] {
				if f.Accepts(q) {
					want = append(want, q)
				}
			}
			selected += len(want)
			r.ResetCache(budget)
			var err error
			if buf, err = r.OutFiltered(p, f, buf[:0]); err != nil {
				t.Fatalf("%s: OutFiltered(%d): %v", fc.name, p, err)
			}
			if got := sortedCopy(buf); !slices.Equal(got, sortedCopy(want)) {
				t.Fatalf("%s: OutFiltered(%d) = %v, want %v", fc.name, p, got, sortedCopy(want))
			}
			for gid := range r.cache.slots {
				if _, resident := r.cache.slotGraph(GraphID(gid)); !resident {
					continue
				}
				e := &r.m.Directory[gid]
				target := e.J
				if e.Kind == kindIntra {
					target = r.snOf(r.m.Perm[p])
				}
				if !wants(target) {
					t.Fatalf("%s: OutFiltered(%d) consulted graph %d into supernode %d, which the filter rules out",
						fc.name, p, gid, target)
				}
			}
		}
		switch fc.name {
		case "nil":
		case "domains", "pages", "both", "cut", "past-the-ends":
			if selected == 0 {
				t.Errorf("%s: selected no row at all; the case checks nothing", fc.name)
			}
		default:
			if selected != 0 {
				t.Errorf("%s: accepted %d targets, want none", fc.name, selected)
			}
		}
	}
}

// fwdAndRev is c and its transpose: the two corpora a repository builds
// a forward and a reverse store from.
func fwdAndRev(c *webgraph.Corpus) []*webgraph.Corpus {
	return []*webgraph.Corpus{c, {Graph: c.Graph.Transpose(), Pages: c.Pages}}
}

// buildAndOpen builds c under cfg and opens it with room for every
// graph.
func buildAndOpen(t *testing.T, c *webgraph.Corpus, cfg Config) *Representation {
	t.Helper()
	dir := t.TempDir()
	if _, err := Build(c, cfg, dir); err != nil {
		t.Fatalf("build: %v", err)
	}
	r, err := Open(dir, 64<<20, iosim.Model2002())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func TestCompiledFilterEqualsPerCallFilter(t *testing.T) {
	t.Run(paperFormat, testCompiledFilterEqualsPerCallFilter)
}

func testCompiledFilterEqualsPerCallFilter(t *testing.T) {
	crawl, err := synth.Generate(synth.DefaultConfig(400))
	if err != nil {
		t.Fatal(err)
	}
	for k, c := range fwdAndRev(crawl.Corpus) {
		checkFilterAgainstReference(t, c, buildAndOpen(t, c, DefaultConfig()), uint64(k+1))
	}
}

func TestCompiledFilterEqualsPerCallFilterRandomGraphs(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := randutil.NewRNG(seed)
		corpus := randomCorpus(rng)
		if corpus.Graph.NumEdges() == 0 {
			continue // filterCases draws its page sets from link targets
		}
		cfg := randomConfig(rng)
		for k, c := range fwdAndRev(corpus) {
			checkFilterAgainstReference(t, c, buildAndOpen(t, c, cfg), seed+uint64(100*k))
		}
	}
}

// TestFilterRangesMatchNaiveSets holds Filter.Accepts to a naive page
// set over random range lists — overlapping, adjacent, empty and
// reversed ranges, ranges past either end of the pages — and the nil
// filter (every page) and a filter of no ranges (none), and Ranges to
// that set as ascending, disjoint, non-adjacent ranges. It holds the
// supernode bitsets compile makes of each filter to a page-by-page
// recomputation: domain has the supernodes all of whose pages pass, any
// those with one page that does.
func TestFilterRangesMatchNaiveSets(t *testing.T) {
	c, _ := buildOnce(t)
	r := openRep(t, 32<<20)
	n := int32(c.Graph.NumPages())
	rng := randutil.NewRNG(48)
	whole, part := 0, 0 // supernodes found all passing, and some passing
	for trial := 0; trial < 200; trial++ {
		var f *store.Filter
		set := map[webgraph.PageID]bool{}
		if trial > 0 {
			var rs []store.DomainRange
			prev := store.DomainRange{Lo: int32(rng.Intn(int(n)))}
			for k := (trial - 1) % 9; k > 0; k-- {
				lo := int32(rng.Intn(int(n)))
				var rg store.DomainRange
				switch rng.Intn(6) {
				case 0: // adjacent to the one before
					rg = store.DomainRange{Lo: prev.Hi, Hi: prev.Hi + int32(rng.Intn(40))}
				case 1: // empty or reversed
					rg = store.DomainRange{Lo: lo, Hi: lo - int32(rng.Intn(3))}
				case 2: // past the first page
					rg = store.DomainRange{Lo: -int32(rng.Intn(50)) - 1, Hi: int32(rng.Intn(30))}
				case 3: // past the last page
					rg = store.DomainRange{Lo: n - int32(rng.Intn(30)), Hi: n + int32(rng.Intn(50))}
				case 4: // wide
					rg = store.DomainRange{Lo: lo, Hi: lo + int32(rng.Intn(int(n)/2))}
				default:
					rg = store.DomainRange{Lo: lo, Hi: lo + 1 + int32(rng.Intn(20))}
				}
				rs = append(rs, rg)
				for p := rg.Lo; p < rg.Hi; p++ {
					set[p] = true
				}
				prev = rg
			}
			f = store.NewFilter(rs...)
		}
		for p := int32(-60); p < n+60; p++ {
			if got, want := f.Accepts(p), f == nil || set[p]; got != want {
				t.Fatalf("trial %d: Accepts(%d) = %v, the set says %v", trial, p, got, want)
			}
		}
		if f == nil {
			if r.compile(f) != nil {
				t.Fatal("the nil filter compiles to a form")
			}
			continue
		}
		covered := 0
		for k, rg := range f.Ranges() {
			if rg.Lo >= rg.Hi || k > 0 && rg.Lo <= f.Ranges()[k-1].Hi {
				t.Fatalf("trial %d: ranges %v are not ascending, disjoint, non-adjacent and non-empty", trial, f.Ranges())
			}
			covered += int(rg.Hi - rg.Lo)
		}
		if covered != len(set) {
			t.Fatalf("trial %d: ranges %v cover %d pages, the set %d", trial, f.Ranges(), covered, len(set))
		}
		cf := r.compile(f)
		for s := int32(0); s < int32(r.Supernodes()); s++ {
			all, some := true, false
			for ip := r.m.SnBase[s]; ip < r.m.SnBase[s+1]; ip++ {
				if set[r.m.Inv[ip]] {
					some = true
				} else {
					all = false
				}
			}
			if cf.domain.has(s) != all || cf.any.has(s) != some {
				t.Fatalf("trial %d: supernode %d: domain %v, any %v; its pages say %v, %v", trial, s, cf.domain.has(s), cf.any.has(s), all, some)
			}
			if all {
				whole++
			} else if some {
				part++
			}
		}
	}
	if whole == 0 || part == 0 {
		t.Fatalf("%d wholly and %d partly covered supernodes: the ranges miss a case", whole, part)
	}
}

// TestSharedFilterAcrossGoroutinesAndStores shares one *Filter between
// 32 goroutines reading two representations (a forward and a reverse
// store, as one shard serves them) at once. Every row must be the
// serial row, and when the storm is over each store holds exactly one
// compiled form: asking again builds nothing and returns the form the
// lookups used. Run under -race this is the memo's data-race check.
func TestSharedFilterAcrossGoroutinesAndStores(t *testing.T) {
	crawl, err := synth.Generate(synth.DefaultConfig(400))
	if err != nil {
		t.Fatal(err)
	}
	c := crawl.Corpus
	var reps []*Representation
	for _, dc := range fwdAndRev(c) {
		reps = append(reps, buildAndOpen(t, dc, DefaultConfig()))
	}
	n := int32(c.Graph.NumPages())
	newFilter := func() *store.Filter {
		var pages []webgraph.PageID
		for p := int32(0); p < n; p += 18 {
			pages = append(pages, p)
		}
		return filterOf(c, []string{c.Pages[n/2].Domain}, pages...)
	}
	serial := make([][][]webgraph.PageID, len(reps))
	for k, r := range reps {
		f := newFilter()
		serial[k] = make([][]webgraph.PageID, n)
		for p := int32(0); p < n; p++ {
			row, err := r.OutFiltered(p, f, nil)
			if err != nil {
				t.Fatal(err)
			}
			serial[k][p] = sortedCopy(row)
		}
	}

	shared := newFilter()
	var wg sync.WaitGroup
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf []webgraph.PageID
			for p := int32(w % 5); p < n; p += 5 {
				for k, r := range reps {
					var err error
					if buf, err = r.OutFiltered(p, shared, buf[:0]); err != nil {
						t.Errorf("rep %d: OutFiltered(%d): %v", k, p, err)
						return
					}
					if got := sortedCopy(buf); !slices.Equal(got, serial[k][p]) {
						t.Errorf("rep %d: OutFiltered(%d) = %v under sharing, serially %v", k, p, got, serial[k][p])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	forms := map[*snFilter]bool{}
	for k, r := range reps {
		cf := shared.Compiled(r, func() any {
			t.Errorf("rep %d: the shared filter was not compiled for this store", k)
			return (*snFilter)(nil)
		}).(*snFilter)
		if cf != r.compile(shared) {
			t.Errorf("rep %d: compile returned a second form", k)
		}
		forms[cf] = true
	}
	if len(forms) != len(reps) {
		t.Errorf("%d compiled forms for %d stores", len(forms), len(reps))
	}
}

// TestWarmOutAllocatesNothing pins the warm lookup at zero allocations:
// with every graph resident and room in buf, Out allocates nothing, and
// a filtered lookup allocates nothing once its filter has been compiled
// by a first call. It holds on the shared fixture and on one whose hub
// page's supernode has more graphs than a lookup lists on its stack.
func TestWarmOutAllocatesNothing(t *testing.T) {
	c, _ := buildOnce(t)
	warmOutAllocatesNothing(t, "shared", openRep(t, 256<<20), c, 61, 0, map[string]*store.Filter{
		"nil":     nil,
		"domains": filterOf(c, []string{"stanford.edu", "mit.edu"}),
		"pages":   filterOf(c, nil, everyThird(c)...),
	})

	wide, domains := wideCorpus(300)
	dir := t.TempDir()
	if _, err := Build(wide, DefaultConfig(), dir); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, 256<<20, iosim.Model2002())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	hub := r.snOf(r.m.Perm[0])
	if n := r.m.SuperOff[hub+1] - r.m.SuperOff[hub] + 1; n <= outScratch {
		t.Fatalf("the hub's supernode has %d graphs, no more than the %d a lookup lists on its stack", n, outScratch)
	}
	// The hub's lookup takes its list of graphs from a pool, which the
	// race detector empties at random: one allocation a round then.
	slack := 0.0
	if raceflag.Enabled {
		slack = 1
	}
	warmOutAllocatesNothing(t, "wide", r, wide, 1, slack, map[string]*store.Filter{
		"nil":     nil,
		"domains": filterOf(wide, domains),
		"pages":   filterOf(wide, nil, everyThird(wide)...),
	})
}

// everyThird lists every third page of c.
func everyThird(c *webgraph.Corpus) []webgraph.PageID {
	var pages []webgraph.PageID
	for p := int32(0); p < int32(c.Graph.NumPages()); p += 3 {
		pages = append(pages, p)
	}
	return pages
}

// wideCorpus is a hub page in a domain of its own linking to the first
// page of each of n two-page domains, whose pages link to each other
// and back to the hub; domains is every small domain but the last.
func wideCorpus(n int) (*webgraph.Corpus, []string) {
	pages := []webgraph.PageMeta{{URL: "http://hub.org/", Domain: "hub.org"}}
	var domains []string
	b := webgraph.NewBuilder(1 + 2*n)
	for d := 0; d < n; d++ {
		dom := fmt.Sprintf("d%03d.com", d)
		if d < n-1 {
			domains = append(domains, dom)
		}
		a := webgraph.PageID(len(pages))
		pages = append(pages,
			webgraph.PageMeta{URL: "http://" + dom + "/a", Domain: dom},
			webgraph.PageMeta{URL: "http://" + dom + "/b", Domain: dom})
		b.AddEdge(0, a)
		b.AddEdge(a, a+1)
		b.AddEdge(a+1, 0)
	}
	return &webgraph.Corpus{Graph: b.Build(), Pages: pages}, domains
}

// warmOutAllocatesNothing decodes every graph of r whole, then counts
// the allocations of warm lookups of every step-th page of c under each
// filter: no more than slack a round.
func warmOutAllocatesNothing(t *testing.T, fixture string, r *Representation, c *webgraph.Corpus, step int32, slack float64, filters map[string]*store.Filter) {
	t.Helper()
	if err := r.Verify(); err != nil { // loads and materializes every graph
		t.Fatal(err)
	}
	n := int32(c.Graph.NumPages())
	buf := make([]webgraph.PageID, 0, n)
	for name, f := range filters {
		lookups := func() {
			for p := int32(0); p < n; p += step {
				var err error
				if buf, err = r.OutFiltered(p, f, buf[:0]); err != nil {
					t.Fatal(err)
				}
			}
		}
		lookups() // the first call compiles the filter
		before := r.StatsExt().Cache
		if allocs := testing.AllocsPerRun(20, lookups); allocs > slack {
			t.Errorf("%s fixture, %s filter: %v allocations per %d warm lookups, want at most %v", fixture, name, allocs, (n+step-1)/step, slack)
		}
		if st := r.StatsExt().Cache; st.Misses != before.Misses || st.Hits == before.Hits {
			t.Errorf("%s fixture, %s filter: the lookups were not warm: %+v → %+v", fixture, name, before, st)
		}
	}
}

// BenchmarkOutWarmParallel is the warm lookup under b.RunParallel:
// every graph resident, Zipf-distributed pages (a few supernodes take
// most of the traffic, as on nav_hot). A hit takes no lock, so ns/op
// should fall nearly in proportion from -cpu 1 to -cpu 2; a lock or a
// shared counter on the hit path shows as a flat or rising figure.
func BenchmarkOutWarmParallel(b *testing.B) {
	c, _ := buildOnce(b)
	r := openRep(b, 256<<20)
	if err := r.Verify(); err != nil {
		b.Fatal(err)
	}
	r.ResetStats()
	// One page stream per worker goroutine, drawn before the clock starts.
	streams := make([][]webgraph.PageID, runtime.GOMAXPROCS(0))
	for w := range streams {
		zipf := randutil.NewZipf(randutil.NewRNG(uint64(w)+1), c.Graph.NumPages(), 1.2)
		streams[w] = make([]webgraph.PageID, 4096)
		for k := range streams[w] {
			streams[w][k] = webgraph.PageID(zipf.Sample())
		}
	}
	var worker atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		pages := streams[int(worker.Add(1)-1)%len(streams)]
		buf := make([]webgraph.PageID, 0, 4096)
		for k := 0; pb.Next(); k++ {
			var err error
			if buf, err = r.Out(pages[k%len(pages)], buf[:0]); err != nil {
				b.Fatal(err)
			}
		}
	})
	if st := r.StatsExt().Cache; st.Misses != 0 {
		b.Fatalf("warm benchmark missed %d times", st.Misses)
	}
}
