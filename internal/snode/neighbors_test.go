package snode

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"snode/internal/iosim"
	"snode/internal/randutil"
	"snode/internal/store"
	"snode/internal/synth"
	"snode/internal/webgraph"
)

// neighborPages draws a page multiset for Neighbors: n pages, unsorted,
// some drawn again, some runs of consecutive pages (which share a
// supernode) and the rest uniform over the corpus, so that it spans many
// supernodes and groups several pages in some of them.
func neighborPages(seed uint64, numPages, n int) []webgraph.PageID {
	rng := randutil.NewRNG(seed)
	pages := make([]webgraph.PageID, 0, n)
	for len(pages) < n {
		switch k := rng.Intn(10); {
		case k < 2 && len(pages) > 0:
			pages = append(pages, pages[rng.Intn(len(pages))])
		case k < 4:
			p := rng.Intn(numPages)
			for q := p; q < min(p+1+rng.Intn(8), numPages) && len(pages) < n; q++ {
				pages = append(pages, webgraph.PageID(q))
			}
		default:
			pages = append(pages, webgraph.PageID(rng.Intn(numPages)))
		}
	}
	return pages
}

// neighborFilters is every filter shape: none, domains, pages, and both.
func neighborFilters(c *webgraph.Corpus) map[string]*store.Filter {
	pageSet := map[webgraph.PageID]bool{}
	for p := 0; p < c.Graph.NumPages(); p += 5 {
		pageSet[webgraph.PageID(p)] = true
	}
	domains := map[string]bool{"stanford.edu": true, "mit.edu": true, "berkeley.edu": true}
	return map[string]*store.Filter{
		"nil":     nil,
		"domains": {Domains: domains},
		"pages":   {Pages: pageSet},
		"both":    {Domains: map[string]bool{"cmu.edu": true}, Pages: pageSet},
	}
}

// visited is one Neighbors call's visits, each list copied.
type visited struct {
	pages []webgraph.PageID
	lists [][]webgraph.PageID
}

func collect(ctx context.Context, r *Representation, pages []webgraph.PageID, f *store.Filter) (visited, error) {
	var v visited
	err := r.Neighbors(ctx, pages, f, func(p webgraph.PageID, out []webgraph.PageID) error {
		v.pages = append(v.pages, p)
		v.lists = append(v.lists, slices.Clone(out))
		slices.Reverse(out) // a visit may reorder its list
		return nil
	})
	return v, err
}

// TestNeighborsEqualsOut holds Neighbors to the one-page read: over
// page multisets that are unsorted, repeat pages and span many
// supernodes, under every filter shape, at a budget that thrashes, one
// that holds part of the graph and one that holds all of it, cold and
// then warm, the visits come in the order of the pages and each list is
// the one OutFilteredCtx returns for its page: the page's row of the
// corpus, as the filter passes it. Once every graph is resident and
// whole, the lists equal OutFilteredCtx's in order too.
func TestNeighborsEqualsOut(t *testing.T) {
	c, _ := buildOnce(t)
	ref := openRep(t, 256<<20)
	ctx := context.Background()
	filters := neighborFilters(c)
	domainOf := func(p webgraph.PageID) string { return c.Pages[p].Domain }
	for _, budget := range []int64{16 << 10, 256 << 10, 256 << 20} {
		for name, f := range filters {
			r := openRep(t, budget)
			pages := neighborPages(uint64(budget)+uint64(len(name)), c.Graph.NumPages(), 300)
			for _, state := range []string{"cold", "warm"} {
				v, err := collect(ctx, r, pages, f)
				if err != nil {
					t.Fatalf("budget %d, %s filter, %s: %v", budget, name, state, err)
				}
				if !slices.Equal(v.pages, pages) {
					t.Fatalf("budget %d, %s filter, %s: visited %v, want %v", budget, name, state, v.pages, pages)
				}
				for k, p := range pages {
					one, err := ref.OutFilteredCtx(ctx, p, f, nil)
					if err != nil {
						t.Fatal(err)
					}
					var want []webgraph.PageID
					for _, q := range c.Graph.Out(p) {
						if store.FilterAccepts(f, q, domainOf) {
							want = append(want, q)
						}
					}
					if got := sortedCopy(v.lists[k]); !slices.Equal(got, want) || !slices.Equal(sortedCopy(one), want) {
						t.Fatalf("budget %d, %s filter, %s: page %d (position %d): %v, one page at a time %v, want %v", budget, name, state, p, k, got, one, want)
					}
				}
			}
			if budget < 256<<20 {
				continue
			}
			v, err := collect(ctx, r, pages, f)
			if err != nil {
				t.Fatal(err)
			}
			for k, p := range pages {
				if want, _ := r.OutFilteredCtx(ctx, p, f, nil); !slices.Equal(v.lists[k], want) {
					t.Fatalf("%s filter, all resident: page %d: %v, one page at a time %v", name, p, v.lists[k], want)
				}
			}
		}
	}
}

// TestNeighborsLooksUpOncePerSupernode counts the lookups of a warm
// Neighbors call: one per graph of each supernode its pages name, however
// many of its pages there are.
func TestNeighborsLooksUpOncePerSupernode(t *testing.T) {
	c, _ := buildOnce(t)
	r := openRep(t, 256<<20)
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
	pages := neighborPages(9, c.Graph.NumPages(), 500)
	var want int64
	seen := map[int32]bool{}
	for _, p := range pages {
		if i := r.snOf(r.m.Perm[p]); !seen[i] {
			seen[i] = true
			want += int64(r.graphCount(i, nil))
		}
	}
	r.ResetStats()
	if _, err := collect(context.Background(), r, pages, nil); err != nil {
		t.Fatal(err)
	}
	if st := r.StatsExt().Cache; st.Hits+st.Misses != want || st.Misses != 0 {
		t.Fatalf("%d pages in %d supernodes: %+v, want %d hits", len(pages), len(seen), st, want)
	}
}

// TestWarmNeighborsAllocatesNothing pins a warm multi-supernode
// Neighbors call at zero allocations, under each filter once a first
// call has compiled it and grown the call's working memory: on the
// shared fixture, and on one whose hub supernode has more graphs than a
// one-page lookup lists on its stack.
func TestWarmNeighborsAllocatesNothing(t *testing.T) {
	c, _ := buildOnce(t)
	warmNeighborsAllocatesNothing(t, "shared", openRep(t, 256<<20), c, 3, neighborFilters(c))

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
	warmNeighborsAllocatesNothing(t, "wide", r, wide, 1, map[string]*store.Filter{
		"nil":     nil,
		"domains": {Domains: domains},
	})
}

func warmNeighborsAllocatesNothing(t *testing.T, fixture string, r *Representation, c *webgraph.Corpus, step int, filters map[string]*store.Filter) {
	t.Helper()
	if err := r.Verify(); err != nil { // loads and materializes every graph
		t.Fatal(err)
	}
	var pages []webgraph.PageID
	for p := c.Graph.NumPages() - 1; p >= 0; p -= step {
		pages = append(pages, webgraph.PageID(p))
	}
	ctx := context.Background()
	for name, f := range filters {
		call := func() {
			if err := r.Neighbors(ctx, pages, f, discard); err != nil {
				t.Fatal(err)
			}
		}
		call()
		before := r.StatsExt().Cache
		if allocs := testing.AllocsPerRun(20, call); allocs != 0 {
			t.Errorf("%s fixture, %s filter: %v allocations per warm Neighbors call of %d pages, want 0", fixture, name, allocs, len(pages))
		}
		if st := r.StatsExt().Cache; st.Misses != before.Misses || st.Hits == before.Hits {
			t.Errorf("%s fixture, %s filter: the calls were not warm: %+v → %+v", fixture, name, before, st)
		}
	}
}

func discard(webgraph.PageID, []webgraph.PageID) error { return nil }

// TestNeighborsDamagedListFailsOnlyItsReaders damages one positive
// superedge graph's lists, as TestCorruptListSectionFailsOnlyItsReaders
// does, and reads page sets of its supernode with Neighbors, cold and
// warm: a set fails, with the list decoder's error, exactly when one of
// its pages fails a one-page read, and a set of pages that are not among
// the graph's sources reads the rows of the corpus.
func TestNeighborsDamagedListFailsOnlyItsReaders(t *testing.T) {
	c, src, clean, victim := damagedListFixture(t)
	e := &clean.m.Directory[victim]
	var sources, bystanders []webgraph.PageID
	srcs := wholeSources(t, clean, victim)
	for local := int32(0); local < clean.snSize(e.I); local++ {
		p := clean.m.Inv[clean.m.SnBase[e.I]+local]
		if findSource(srcs, local) >= 0 {
			sources = append(sources, p)
		} else {
			bystanders = append(bystanders, p)
		}
	}
	other := clean.m.Inv[clean.m.SnBase[(e.I+1)%int32(clean.Supernodes())]]
	damaged := corruptListSection(t, src, clean, victim)
	r, err := Open(damaged, 1<<20, iosim.Model2002())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	alone, err := Open(damaged, 1<<20, iosim.Model2002()) // the one-page reads, beside r's cache
	if err != nil {
		t.Fatal(err)
	}
	defer alone.Close()
	ctx := context.Background()
	sets := [][]webgraph.PageID{
		append([]webgraph.PageID{other}, bystanders...),
		append(slices.Clone(bystanders), sources[0]),
		{sources[len(sources)-1], other, bystanders[0]},
		bystanders,
	}
	for round := 0; round < 2; round++ { // cold, then with the damaged graph resident
		for k, pages := range sets {
			failsAlone := false
			for _, p := range pages {
				if _, err := alone.Out(p, nil); err != nil {
					failsAlone = true
				}
			}
			v, err := collect(ctx, r, pages, nil)
			switch {
			case failsAlone && (err == nil || !strings.Contains(err.Error(), "superPos lists")):
				t.Fatalf("round %d, set %d: a page of it fails alone; Neighbors: %v, want the superPos lists decode error", round, k, err)
			case !failsAlone && err != nil:
				t.Fatalf("round %d, set %d: no page of it fails alone; Neighbors: %v", round, k, err)
			case err == nil:
				for x, p := range v.pages {
					assertPageRows(t, c, p, v.lists[x])
				}
			}
		}
	}
	checkShardInvariants(t, r.cache)
	if n := r.InflightDecodes(); n != 0 {
		t.Fatalf("%d decodes left in flight", n)
	}
}

// damagedListFixture builds a 400-page representation and picks a
// positive superedge graph of it whose supernode has pages on both sides
// of its source list.
func damagedListFixture(t *testing.T) (c *webgraph.Corpus, src string, clean *Representation, victim GraphID) {
	t.Helper()
	src = buildTestRep(t, 400)
	clean, err := Open(src, 1<<20, iosim.Model2002())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { clean.Close() })
	for gid := range clean.m.Directory {
		e := &clean.m.Directory[gid]
		if e.Kind == kindSuperPos && e.NumBytes > 8 && e.NumLists < clean.snSize(e.I) {
			crawl, err := synth.Generate(synth.DefaultConfig(400))
			if err != nil {
				t.Fatal(err)
			}
			return crawl.Corpus, src, clean, GraphID(gid)
		}
	}
	t.Skip("no positive superedge graph with a non-source page")
	return
}

// wholeSources returns the sources of positive superedge graph gid.
func wholeSources(t *testing.T, r *Representation, gid GraphID) []int32 {
	t.Helper()
	g, err := loadWhole(r, gid)
	if err != nil {
		t.Fatal(err)
	}
	return g.(*decodedSuperPos).srcs
}

// TestNeighborsCancelled: a call whose context is already cancelled
// returns its error and reads nothing, and one whose deadline fires
// while paced reads are under way returns context.DeadlineExceeded
// promptly; neither leaves a decode in flight, and the store serves
// normally afterwards.
func TestNeighborsCancelled(t *testing.T) {
	c, _ := buildOnce(t)
	r := openRep(t, 64<<10)
	pages := neighborPages(3, c.Graph.NumPages(), 600)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := collect(ctx, r, pages, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call: %v, want context.Canceled", err)
	}
	if st := r.StatsExt(); st.Cache.Loads != 0 || st.IO.Reads != 0 {
		t.Fatalf("a cancelled call read: %+v", st)
	}

	r.SetPace(1.0)
	defer r.SetPace(0)
	ctx, cancel = context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := collect(ctx, r, pages, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("call past its deadline: %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if n := r.InflightDecodes(); n != 0 {
		t.Fatalf("InflightDecodes = %d after a cancelled call", n)
	}
	r.SetPace(0)
	v, err := collect(context.Background(), r, pages[:20], nil)
	if err != nil {
		t.Fatalf("read after the cancelled call: %v", err)
	}
	for k, p := range v.pages {
		assertPageRows(t, c, p, v.lists[k])
	}
}

// TestNeighborsRefusesOutOfRange: a page outside the representation
// fails the call before anything is read or visited.
func TestNeighborsRefusesOutOfRange(t *testing.T) {
	c, _ := buildOnce(t)
	r := openRep(t, 1<<20)
	n := webgraph.PageID(c.Graph.NumPages())
	for _, bad := range []webgraph.PageID{-1, n} {
		v, err := collect(context.Background(), r, []webgraph.PageID{0, bad, 1}, nil)
		if want := fmt.Sprintf("page %d out of range", bad); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("page %d: %v, want %q", bad, err, want)
		}
		if len(v.pages) != 0 || r.StatsExt().Cache.Loads != 0 {
			t.Fatalf("page %d: %d visits, %+v before the refusal", bad, len(v.pages), r.StatsExt().Cache)
		}
	}
}

// TestNeighborsConcurrent runs Neighbors from eight goroutines at once
// over one store at a thrashing budget, each call on its own page set
// and filter, beside one-page reads: every visit's list is the page's row
// of the corpus, and the working-memory free list is shared by all of
// them (run under -race this is its data-race check).
func TestNeighborsConcurrent(t *testing.T) {
	c, _ := buildOnce(t)
	r := openRep(t, 64<<10)
	filters := neighborFilters(c)
	names := []string{"nil", "domains", "pages", "both"}
	domainOf := func(p webgraph.PageID) string { return c.Pages[p].Domain }
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f := filters[names[w%len(names)]]
			for round := 0; round < 4; round++ {
				pages := neighborPages(uint64(w*10+round), c.Graph.NumPages(), 120)
				k := 0
				err := r.Neighbors(context.Background(), pages, f, func(p webgraph.PageID, out []webgraph.PageID) error {
					var want []webgraph.PageID
					for _, q := range c.Graph.Out(p) {
						if store.FilterAccepts(f, q, domainOf) {
							want = append(want, q)
						}
					}
					if p != pages[k] || !slices.Equal(sortedCopy(out), want) {
						return fmt.Errorf("position %d: page %d with %v, want page %d with %v", k, p, out, pages[k], want)
					}
					k++
					return nil
				})
				if err == nil && k != len(pages) {
					err = fmt.Errorf("%d visits for %d pages", k, len(pages))
				}
				if err != nil {
					t.Errorf("goroutine %d, round %d: %v", w, round, err)
					return
				}
				if _, err := r.Out(pages[0], nil); err != nil {
					t.Errorf("goroutine %d: Out: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := r.InflightDecodes(); n != 0 {
		t.Fatalf("%d decodes left in flight", n)
	}
}
