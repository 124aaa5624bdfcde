package snode

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
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
// store.FilterAccepts, no graph is consulted that evaluating the filter
// per call would not have consulted, entries set to false accept
// nothing, and one *Filter shared by many goroutines and two stores
// compiles once for each.

// filterCase is one filter of the differential sweep, made afresh for
// every store it is tried on (a Filter must not change once used).
type filterCase struct {
	name string
	make func() *store.Filter
}

// filterCases draws the sweep's filters from corpus c: every shape of
// Domains and Pages, including the ones that accept nothing.
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
	pages := func(ps ...webgraph.PageID) map[webgraph.PageID]bool {
		m := map[webgraph.PageID]bool{}
		for _, p := range ps {
			m[p] = true
		}
		return m
	}
	return []filterCase{
		{"nil", func() *store.Filter { return nil }},
		{"zero", func() *store.Filter { return &store.Filter{} }},
		{"domains", func() *store.Filter {
			return &store.Filter{Domains: map[string]bool{d1: true, d2: true, "no-such-domain.example": true}}
		}},
		{"pages", func() *store.Filter { return &store.Filter{Pages: pages(targets[:4]...)} }},
		{"both", func() *store.Filter {
			return &store.Filter{Domains: map[string]bool{d3: true}, Pages: pages(targets[2:]...)}
		}},
		{"empty-maps", func() *store.Filter {
			return &store.Filter{Domains: map[string]bool{}, Pages: map[webgraph.PageID]bool{}}
		}},
		{"empty-pages", func() *store.Filter { return &store.Filter{Pages: map[webgraph.PageID]bool{}} }},
		{"pages-out-of-range", func() *store.Filter {
			return &store.Filter{Pages: pages(-1, -1<<31, n, n+7, 1<<31-1, targets[0])}
		}},
		{"false-values", func() *store.Filter {
			return &store.Filter{
				Domains: map[string]bool{d1: false, d2: true},
				Pages:   map[webgraph.PageID]bool{targets[0]: false, targets[1]: true, targets[2]: false},
			}
		}},
		{"all-false", func() *store.Filter {
			return &store.Filter{Domains: map[string]bool{d1: false}, Pages: map[webgraph.PageID]bool{targets[0]: false}}
		}},
	}
}

// perCallWants is the reference for which graphs a filter lets a lookup
// consult: the evaluation OutFilteredCtx made on every call before
// filters were compiled — a supernode is wanted if its domain's name is
// accepted or if it holds a page that Pages names, whatever the value.
func perCallWants(r *Representation, f *store.Filter) func(sn int32) bool {
	if f.Empty() {
		return func(int32) bool { return true }
	}
	pageSNs := map[int32]bool{}
	for pg := range f.Pages {
		if pg >= 0 && pg < r.m.NumPages {
			pageSNs[r.snOf(r.m.Perm[pg])] = true
		}
	}
	return func(sn int32) bool {
		k := sort.Search(len(r.m.Domains), func(k int) bool { return r.m.DomFirstSN[k+1] > sn })
		return f.Domains[r.m.Domains[k]] || pageSNs[sn]
	}
}

// checkFilterAgainstReference reads every page of c through r under
// every filter case on a cold cache, and checks the rows against Out's
// rows filtered by store.FilterAccepts and the graphs left resident
// against perCallWants.
func checkFilterAgainstReference(t *testing.T, c *webgraph.Corpus, r *Representation, seed uint64) {
	t.Helper()
	const budget = 64 << 20 // holds everything: resident afterwards = consulted
	n := int32(c.Graph.NumPages())
	domainOf := func(p webgraph.PageID) string { return c.Pages[p].Domain }
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
		wants := perCallWants(r, f)
		selected := 0
		for p := int32(0); p < n; p++ {
			var want []webgraph.PageID
			for _, q := range rows[p] {
				if store.FilterAccepts(f, q, domainOf) {
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
		case "nil", "zero":
		case "domains", "pages", "both", "false-values", "pages-out-of-range":
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
	crawl, err := synth.Generate(synth.DefaultConfig(400))
	if err != nil {
		t.Fatal(err)
	}
	for _, codec := range CodecNames() {
		t.Run(codec, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Codec = codec
			for k, c := range fwdAndRev(crawl.Corpus) {
				checkFilterAgainstReference(t, c, buildAndOpen(t, c, cfg), uint64(k+1))
			}
		})
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
		cfg.Codec = CodecNames()[seed%uint64(len(CodecNames()))]
		for k, c := range fwdAndRev(corpus) {
			checkFilterAgainstReference(t, c, buildAndOpen(t, c, cfg), seed+uint64(100*k))
		}
	}
}

// TestFalsePageEntryLoadsNothing is the regression test for Pages
// entries set to false: Filter.AcceptsPage honours the value, so the
// graphs into such a page's supernode hold nothing the filter accepts
// and must not be consulted, let alone loaded. The per-call evaluation
// ranged over Pages' keys and pulled them in.
func TestFalsePageEntryLoadsNothing(t *testing.T) {
	c, _ := buildOnce(t)
	r := openRep(t, 32<<20)
	checked := 0
	for p := int32(0); int(p) < c.Graph.NumPages() && checked < 50; p++ {
		for _, q := range c.Graph.Out(p) {
			if r.snOf(r.m.Perm[q]) == r.snOf(r.m.Perm[p]) {
				continue
			}
			// q is reached through a superedge graph of p's supernode.
			r.ResetCache(32 << 20)
			got, err := r.OutFiltered(p, &store.Filter{Pages: map[webgraph.PageID]bool{q: false}}, nil)
			if err != nil {
				t.Fatal(err)
			}
			st := r.StatsExt().Cache
			if len(got) != 0 || st.Hits+st.Misses != 0 || st.Loads != 0 {
				t.Fatalf("OutFiltered(%d, {Pages: {%d: false}}) = %v after %d lookups and %d loads; want nothing consulted",
					p, q, got, st.Hits+st.Misses, st.Loads)
			}
			checked++
			break
		}
	}
	if checked == 0 {
		t.Fatal("no cross-supernode link in the corpus")
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
		f := &store.Filter{Domains: map[string]bool{c.Pages[n/2].Domain: true}, Pages: map[webgraph.PageID]bool{}}
		for p := int32(0); p < n; p += 9 {
			f.Pages[p] = p%2 == 0
		}
		return f
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
	pageSet := map[webgraph.PageID]bool{}
	for p := int32(0); p < int32(c.Graph.NumPages()); p += 3 {
		pageSet[p] = true
	}
	warmOutAllocatesNothing(t, "shared", openRep(t, 256<<20), c, 61, 0, map[string]*store.Filter{
		"nil":     nil,
		"domains": {Domains: map[string]bool{"stanford.edu": true, "mit.edu": true}},
		"pages":   {Pages: pageSet},
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
	pageSet = map[webgraph.PageID]bool{}
	for p := int32(0); p < int32(wide.Graph.NumPages()); p += 3 {
		pageSet[p] = true
	}
	// The hub's lookup takes its list of graphs from a pool, which the
	// race detector empties at random: one allocation a round then.
	slack := 0.0
	if raceflag.Enabled {
		slack = 1
	}
	warmOutAllocatesNothing(t, "wide", r, wide, 1, slack, map[string]*store.Filter{
		"nil":     nil,
		"domains": {Domains: domains},
		"pages":   {Pages: pageSet},
	})
}

// wideCorpus is a hub page in a domain of its own linking to the first
// page of each of n two-page domains, whose pages link to each other
// and back to the hub; domains is every small domain but the last.
func wideCorpus(n int) (*webgraph.Corpus, map[string]bool) {
	pages := []webgraph.PageMeta{{URL: "http://hub.org/", Domain: "hub.org"}}
	domains := map[string]bool{}
	b := webgraph.NewBuilder(1 + 2*n)
	for d := 0; d < n; d++ {
		dom := fmt.Sprintf("d%03d.com", d)
		if d < n-1 {
			domains[dom] = true
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
