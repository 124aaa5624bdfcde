package store_test

// Cross-representation equivalence: every scheme (S-Node, plain
// Huffman, Link3, relational, uncompressed files) must return exactly
// the adjacency lists of the source graph, with and without filters.
// This is the repository's central correctness invariant — Figure 11's
// comparison is only meaningful if all five schemes answer identically.

import (
	"log"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"snode/internal/dbstore"
	"snode/internal/flatfile"
	"snode/internal/huffgraph"
	"snode/internal/iosim"
	"snode/internal/link3"
	"snode/internal/snode"
	"snode/internal/store"
	"snode/internal/synth"
	"snode/internal/webgraph"
)

var (
	eqLayout []webgraph.PageID
	eqCorpus *webgraph.Corpus
	eqStores []store.LinkStore
	eqDirs   map[string]string
	// fixtureDir holds the shared stores, one subdirectory per scheme;
	// TestMain removes it.
	fixtureDir string
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "store-test-*")
	if err != nil {
		log.Fatal(err)
	}
	fixtureDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func buildAll(t testing.TB) (*webgraph.Corpus, []store.LinkStore) {
	t.Helper()
	if eqCorpus != nil {
		return eqCorpus, eqStores
	}
	crawl, err := synth.Generate(synth.DefaultConfig(5000))
	if err != nil {
		t.Fatal(err)
	}
	c := crawl.Corpus
	model := iosim.Model2002()
	budget := int64(8 << 20)
	schemeDir := func(name string) string {
		dir := filepath.Join(fixtureDir, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	snDir := schemeDir("snode")
	if _, err := snode.Build(c, snode.DefaultConfig(), snDir); err != nil {
		t.Fatalf("snode build: %v", err)
	}
	sn, err := snode.Open(snDir, budget, model)
	if err != nil {
		t.Fatal(err)
	}

	hf, err := huffgraph.Build(c)
	if err != nil {
		t.Fatal(err)
	}

	ffDir := schemeDir("ff")
	if err := flatfile.Build(c, ffDir, crawl.Order); err != nil {
		t.Fatal(err)
	}
	ff, err := flatfile.Open(c, ffDir, crawl.Order, budget, model)
	if err != nil {
		t.Fatal(err)
	}

	l3Dir := schemeDir("l3")
	if err := link3.Build(c, l3Dir); err != nil {
		t.Fatal(err)
	}
	l3, err := link3.Open(c, l3Dir, budget, model)
	if err != nil {
		t.Fatal(err)
	}

	dbDir := schemeDir("db")
	if err := dbstore.Build(c, dbDir, crawl.Order); err != nil {
		t.Fatal(err)
	}
	db, err := dbstore.Open(c, dbDir, budget, model)
	if err != nil {
		t.Fatal(err)
	}

	eqLayout = crawl.Order
	eqCorpus = c
	eqStores = []store.LinkStore{sn, hf, ff, l3, db}
	eqDirs = map[string]string{"snode": snDir, "files": ffDir, "link3": l3Dir, "db": dbDir}
	return eqCorpus, eqStores
}

func sorted(xs []webgraph.PageID) []webgraph.PageID {
	out := append([]webgraph.PageID(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestAllStoresMatchSourceGraph(t *testing.T) {
	c, stores := buildAll(t)
	var buf []webgraph.PageID
	for _, s := range stores {
		if s.NumPages() != c.Graph.NumPages() {
			t.Fatalf("%s: NumPages %d, want %d", s.Name(), s.NumPages(), c.Graph.NumPages())
		}
		for p := int32(0); int(p) < c.Graph.NumPages(); p++ {
			var err error
			buf, err = s.Out(p, buf[:0])
			if err != nil {
				t.Fatalf("%s: Out(%d): %v", s.Name(), p, err)
			}
			got := sorted(buf)
			want := c.Graph.Out(p)
			if len(got) != len(want) {
				t.Fatalf("%s: page %d has %d targets, want %d", s.Name(), p, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: page %d target %d: %d != %d", s.Name(), p, i, got[i], want[i])
				}
			}
		}
	}
}

func TestAllStoresAgreeOnFilters(t *testing.T) {
	c, stores := buildAll(t)
	filters := []*store.Filter{
		nil,
		{Domains: map[string]bool{"stanford.edu": true}},
		{Domains: map[string]bool{"mit.edu": true, "berkeley.edu": true}},
		{Pages: map[webgraph.PageID]bool{10: true, 500: true, 2500: true}},
		{Domains: map[string]bool{"dilbert.com": true},
			Pages: map[webgraph.PageID]bool{42: true}},
	}
	var bufs [2][]webgraph.PageID
	ref := stores[0]
	for _, f := range filters {
		for p := int32(0); int(p) < c.Graph.NumPages(); p += 53 {
			var err error
			bufs[0], err = ref.OutFiltered(p, f, bufs[0][:0])
			if err != nil {
				t.Fatal(err)
			}
			want := sorted(bufs[0])
			for _, s := range stores[1:] {
				bufs[1], err = s.OutFiltered(p, f, bufs[1][:0])
				if err != nil {
					t.Fatalf("%s: %v", s.Name(), err)
				}
				got := sorted(bufs[1])
				if len(got) != len(want) {
					t.Fatalf("%s vs %s: page %d filter %+v: %d vs %d targets",
						s.Name(), ref.Name(), p, f, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: page %d filter mismatch", s.Name(), p)
					}
				}
			}
		}
	}
}

func TestCompressionOrdering(t *testing.T) {
	// The Table 1 shape: snode <= link3 << huffman-ish... at minimum,
	// the compressed schemes must beat the uncompressed file layout,
	// and snode must beat plain Huffman.
	c, stores := buildAll(t)
	edges := c.Graph.NumEdges()
	bpe := map[string]float64{}
	for _, s := range stores {
		sized, ok := s.(store.Sized)
		if !ok {
			t.Fatalf("%s does not report size", s.Name())
		}
		if sized.SizeBytes() <= 0 {
			t.Fatalf("%s: non-positive size", s.Name())
		}
		bpe[s.Name()] = store.BitsPerEdge(sized, edges)
	}
	t.Logf("bits/edge: %v", bpe)
	if bpe["snode"] >= bpe["huffman"] {
		t.Fatalf("snode (%.2f) not smaller than huffman (%.2f)", bpe["snode"], bpe["huffman"])
	}
	if bpe["link3"] >= bpe["files"] {
		t.Fatalf("link3 (%.2f) not smaller than files (%.2f)", bpe["link3"], bpe["files"])
	}
	if bpe["snode"] >= bpe["files"] {
		t.Fatalf("snode (%.2f) not smaller than files (%.2f)", bpe["snode"], bpe["files"])
	}
}

func TestStatsAccumulateAndReset(t *testing.T) {
	// Fresh instances so caches are cold; the shared instances used by
	// the other tests may already hold the whole dataset.
	c, _ := buildAll(t)
	model := iosim.Model2002()
	budget := int64(64 << 10)
	sn, err := snode.Open(eqDirs["snode"], budget, model)
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	ff, err := flatfile.Open(c, eqDirs["files"], eqLayout, budget, model)
	if err != nil {
		t.Fatal(err)
	}
	defer ff.Close()
	l3, err := link3.Open(c, eqDirs["link3"], budget, model)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	db, err := dbstore.Open(c, eqDirs["db"], budget, model)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	var buf []webgraph.PageID
	for _, s := range []store.LinkStore{sn, ff, l3, db} {
		s.ResetStats()
		for p := int32(0); p < 200; p++ {
			var err error
			buf, err = s.Out(p, buf[:0])
			if err != nil {
				t.Fatal(err)
			}
		}
		st := s.Stats()
		if st.IO.Reads == 0 && st.GraphsLoaded == 0 {
			t.Errorf("%s: no observable I/O after cold reads", s.Name())
		}
		if st.IO.ModeledTime(model) <= 0 {
			t.Errorf("%s: zero modeled time", s.Name())
		}
		s.ResetStats()
		if st2 := s.Stats(); st2.IO.Reads != 0 {
			t.Errorf("%s: stats not reset", s.Name())
		}
	}
}

func TestFilterHelpers(t *testing.T) {
	var f *store.Filter
	if !f.Empty() {
		t.Fatal("nil filter not empty")
	}
	f = &store.Filter{}
	if !f.Empty() {
		t.Fatal("zero filter not empty")
	}
	f = &store.Filter{Domains: map[string]bool{"a.com": true}}
	if f.Empty() || !f.AcceptsDomain("a.com") || f.AcceptsDomain("b.com") {
		t.Fatal("domain filter misbehaves")
	}
	f = &store.Filter{Pages: map[webgraph.PageID]bool{3: true}}
	if !f.AcceptsPage(3) || f.AcceptsPage(4) {
		t.Fatal("page filter misbehaves")
	}
}

// TestFilterCompiledOncePerStore races 32 goroutines for the compiled
// forms of one filter under two keys: whatever the interleaving, every
// caller of a key gets the same value, the keys get different ones, and
// a later call builds nothing. Run under -race.
func TestFilterCompiledOncePerStore(t *testing.T) {
	f := &store.Filter{Domains: map[string]bool{"a.com": true}}
	keys := []any{new(int), new(int)}
	got := make([][]any, len(keys))
	for k := range got {
		got[k] = make([]any, 32)
	}
	var wg sync.WaitGroup
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k, key := range keys {
				got[k][w] = f.Compiled(key, func() any { return &struct{ k, w int }{k, w} })
			}
		}(w)
	}
	wg.Wait()
	for k, key := range keys {
		for w := range got[k] {
			if got[k][w] != got[k][0] {
				t.Fatalf("key %d: goroutines %d and 0 hold different compiled forms", k, w)
			}
		}
		again := f.Compiled(key, func() any {
			t.Errorf("key %d: built again after the form was published", k)
			return nil
		})
		if again != got[k][0] {
			t.Fatalf("key %d: a later call returned another form", k)
		}
	}
	if got[0][0] == got[1][0] {
		t.Fatal("two stores share one compiled form")
	}
}

func TestDomainRanges(t *testing.T) {
	pages := []webgraph.PageMeta{
		{URL: "u1", Domain: "a.com"},
		{URL: "u2", Domain: "a.com"},
		{URL: "u3", Domain: "b.com"},
	}
	dr := store.NewDomainRanges(pages)
	if r := dr["a.com"]; r.Lo != 0 || r.Hi != 2 {
		t.Fatalf("a.com range %+v", r)
	}
	if r := dr["b.com"]; r.Lo != 2 || r.Hi != 3 {
		t.Fatalf("b.com range %+v", r)
	}
	if dr.SizeBytes() <= 0 {
		t.Fatal("SizeBytes")
	}
}
