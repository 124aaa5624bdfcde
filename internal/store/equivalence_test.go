package store_test

// One oracle for every store. Figure 11's comparison means something
// only if all five schemes answer exactly as the graph does, so every
// read path is held here, table-driven, to a CSR over the input graph
// (csrStore): each scheme's reads and queries, K-shard partitions in
// process and through the router, and delta overlays after a random
// mutation log. The inputs are a synth crawl and Kronecker products of
// stars (GraphChallenge's Theory-*-Bk graphs), known in closed form.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"snode/internal/delta"
	"snode/internal/ingest"
	"snode/internal/iosim"
	"snode/internal/query"
	"snode/internal/randutil"
	"snode/internal/repo"
	"snode/internal/router"
	"snode/internal/serve"
	"snode/internal/shard"
	"snode/internal/snode"
	"snode/internal/store"
	"snode/internal/synth"
	"snode/internal/webgraph"
)

// fixtureDir holds every input's stores, one subdirectory per input;
// TestMain removes it.
var fixtureDir string

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

// csrStore is the oracle: a CSR graph's rows, filtered with
// store.FilterAccepts.
type csrStore struct {
	g     *webgraph.Graph
	pages []webgraph.PageMeta
}

func (c csrStore) Name() string  { return "csr" }
func (c csrStore) NumPages() int { return c.g.NumPages() }
func (c csrStore) Out(p webgraph.PageID, buf []webgraph.PageID) ([]webgraph.PageID, error) {
	return append(buf, c.g.Out(p)...), nil
}
func (c csrStore) OutFiltered(p webgraph.PageID, f *store.Filter, buf []webgraph.PageID) ([]webgraph.PageID, error) {
	for _, q := range c.g.Out(p) {
		if store.FilterAccepts(f, q, func(q webgraph.PageID) string { return c.pages[q].Domain }) {
			buf = append(buf, q)
		}
	}
	return buf, nil
}
func (c csrStore) Stats() store.AccessStats { return store.AccessStats{} }
func (c csrStore) ResetStats()              {}
func (c csrStore) Close() error             { return nil }

// oracleInput is one row of the input table: a crawl, its Kronecker
// factors if any, its partitions, and every scheme built from it.
type oracleInput struct {
	name    string
	crawl   *synth.Crawl
	factors []int
	ks      []int
	r       *repo.Repository
}

var inputs []*oracleInput

// oracleInputs builds the input table once: the 12,000-page synth
// crawl, routed at K = 1 to 4, and two Kronecker products of stars,
// checked against their closed forms and routed at K = 1 and 3.
func oracleInputs(t *testing.T) []*oracleInput {
	t.Helper()
	if inputs != nil {
		return inputs
	}
	crawl, err := synth.Generate(synth.DefaultConfig(12000))
	if err != nil {
		t.Fatal(err)
	}
	in := []*oracleInput{{name: "synth", crawl: crawl, ks: []int{1, 2, 3, 4}}}
	for _, factors := range [][]int{{3, 4, 5, 9}, {5, 9, 16, 25}} {
		name := "kron-" + strings.Trim(strings.ReplaceAll(fmt.Sprint(factors), " ", "-"), "[]")
		crawl := kronecker(t, filepath.Join(fixtureDir, name), factors)
		checkKronecker(t, crawl.Corpus.Graph, factors)
		in = append(in, &oracleInput{name: name, crawl: crawl, factors: factors, ks: []int{1, 3}})
	}
	for _, x := range in {
		opt := repo.DefaultOptions(filepath.Join(fixtureDir, x.name))
		opt.Layout = x.crawl.Order
		if x.r, err = repo.Build(x.crawl.Corpus, opt); err != nil {
			t.Fatal(err)
		}
	}
	inputs = in
	return in
}

// kronecker writes the Kronecker product of stars on factors[i] pages —
// hub 0, each hub-leaf link listed both ways — as a GraphChallenge TSV
// of 1-based "src\tdst\t1" lines under dir, beside a URL table that
// gives each block of the first factor its own domain, and ingests it
// as `snbuild -ingest -format tsv` does. Page i's digits in the mixed
// radix of the factors, the first most significant, are its vertices in
// the stars; i links to j when every star links their digits.
func kronecker(t *testing.T, dir string, factors []int) *synth.Crawl {
	n := 1
	for _, m := range factors {
		n *= m
	}
	var tsv, urls strings.Builder
	for i := range n {
		fmt.Fprintf(&urls, "%d\thttp://www.kron-b%d.org/p%d.html\tkron-b%[2]d.org\n", i+1, i*factors[0]/n, i)
		targets, radix := []int{0}, n
		for _, m := range factors {
			radix /= m
			var next []int
			for _, j := range targets {
				for d := range m {
					if (i/radix%m == 0) != (d == 0) {
						next = append(next, j*m+d)
					}
				}
			}
			targets = next
		}
		for _, j := range targets {
			fmt.Fprintf(&tsv, "%d\t%d\t1\n", i+1, j+1)
		}
	}
	path := filepath.Join(dir, "graph.tsv")
	if err := errors.Join(os.MkdirAll(dir, 0o755), os.WriteFile(path, []byte(tsv.String()), 0o644),
		os.WriteFile(filepath.Join(dir, ingest.DefaultURLTable), []byte(urls.String()), 0o644)); err != nil {
		t.Fatal(err)
	}
	crawl, _, err := ingest.Ingest(context.Background(), path, ingest.Options{Format: ingest.FormatTSV})
	if err != nil {
		t.Fatal(err)
	}
	return crawl
}

// checkKronecker holds a Kronecker input to its closed forms: Π m
// pages, Π 2(m−1) edges, each page's out- and in-degree the product of
// its digits' degrees in their stars (m−1 for the hub, 1 for a leaf),
// and no triangle, a product of bipartite graphs being bipartite.
func checkKronecker(t *testing.T, g *webgraph.Graph, factors []int) {
	pages, edges := 1, int64(1)
	for _, m := range factors {
		pages, edges = pages*m, edges*int64(2*(m-1))
	}
	if g.NumPages() != pages || g.NumEdges() != edges {
		t.Fatalf("%d pages and %d edges, want %d and %d", g.NumPages(), g.NumEdges(), pages, edges)
	}
	in := g.InDegrees()
	for p := range webgraph.PageID(pages) {
		deg, radix := 1, pages
		for _, m := range factors {
			if radix /= m; int(p)/radix%m == 0 {
				deg *= m - 1
			}
		}
		if g.OutDegree(p) != deg || int(in[p]) != deg {
			t.Fatalf("page %d: out-degree %d, in-degree %d, want %d", p, g.OutDegree(p), in[p], deg)
		}
	}
	mark := make([]webgraph.PageID, pages)
	triangles := 0
	for u := range webgraph.PageID(pages) {
		for _, v := range g.Out(u) {
			mark[v] = u + 1
		}
		for _, v := range g.Out(u) {
			for _, w := range g.Out(v) {
				if u < v && v < w && mark[w] == u+1 {
					triangles++
				}
			}
		}
	}
	if triangles != 0 {
		t.Fatalf("%d triangles, want 0", triangles)
	}
}

// oracleFilter is one filter shape the reads are checked under.
type oracleFilter struct {
	name string
	f    *store.Filter
}

// oracleFilters are none, the synth crawl's domain and page filters,
// the input's own middle domain beside every fifth page, and an empty
// domain set, which accepts nothing.
func oracleFilters(c *webgraph.Corpus) []oracleFilter {
	fifth := map[webgraph.PageID]bool{}
	for p := 0; p < c.Graph.NumPages(); p += 5 {
		fifth[webgraph.PageID(p)] = true
	}
	return []oracleFilter{
		{"nil", nil},
		{"stanford", &store.Filter{Domains: map[string]bool{"stanford.edu": true}}},
		{"mit+berkeley", &store.Filter{Domains: map[string]bool{"mit.edu": true, "berkeley.edu": true}}},
		{"pages", &store.Filter{Pages: map[webgraph.PageID]bool{10: true, 500: true, 2500: true}}},
		{"dilbert+42", &store.Filter{Domains: map[string]bool{"dilbert.com": true}, Pages: map[webgraph.PageID]bool{42: true}}},
		{"middle+fifth", &store.Filter{Domains: map[string]bool{c.Pages[len(c.Pages)/2].Domain: true}, Pages: fifth}},
		{"no-domains", &store.Filter{Domains: map[string]bool{}}},
	}
}

// neighborer and scanner are the optional whole-set reads.
type neighborer interface {
	Neighbors(ctx context.Context, pages []webgraph.PageID, f *store.Filter, visit func(p webgraph.PageID, out []webgraph.PageID) error) error
}

type scanner interface {
	Scan(ctx context.Context, visit func(p webgraph.PageID, out []webgraph.PageID) error) error
}

// checkReads holds a forward store to g's rows and a reverse one to its
// transpose's for the pages owns accepts (nil: all), and both to empty
// rows for the rest, at 16 KiB (thrashing) and 256 MiB when the cache
// resets. Under every filter, Neighbors visits an unsorted page
// multiset with repeats and runs in order, then pages are read alone:
// the multiset's at 16 KiB; at 256 MiB every owned page unfiltered and
// every third filtered. Scan visits each page once, reading it again
// alone from inside the visit.
func checkReads(t *testing.T, fwd, rev store.LinkStore, g *webgraph.Graph, c *webgraph.Corpus, owns func(webgraph.PageID) bool) {
	t.Helper()
	n := g.NumPages()
	rng := randutil.NewRNG(uint64(n))
	multiset := make([]webgraph.PageID, 400)
	for i := range multiset {
		switch k := rng.Intn(6); {
		case k == 0 && i > 0:
			multiset[i] = multiset[rng.Intn(i)]
		case k == 1 && i > 0:
			multiset[i] = min(multiset[i-1]+1, webgraph.PageID(n-1))
		default:
			multiset[i] = webgraph.PageID(rng.Intn(n))
		}
	}
	var owned []webgraph.PageID
	for p := range webgraph.PageID(n) {
		if owns == nil || owns(p) {
			owned = append(owned, p)
		}
	}
	ctx := context.Background()
	for _, dir := range []struct {
		s store.LinkStore
		g *webgraph.Graph
	}{{fwd, g}, {rev, g.Transpose()}} {
		s := dir.s
		if s.NumPages() != n {
			t.Fatalf("%s: %d pages, want %d", s.Name(), s.NumPages(), n)
		}
		var budget int64
		check := func(what string, p webgraph.PageID, f oracleFilter, got []webgraph.PageID, err error) error {
			var want []webgraph.PageID
			if owns == nil || owns(p) {
				want, _ = csrStore{dir.g, c.Pages}.OutFiltered(p, f.f, nil)
			}
			got = slices.Clone(got)
			slices.Sort(got)
			if err == nil && !slices.Equal(got, want) {
				err = fmt.Errorf("%v, want %v", got, want)
			}
			if err != nil {
				return fmt.Errorf("%s at %d B, %s filter: %s(%d): %w", s.Name(), budget, f.name, what, p, err)
			}
			return nil
		}
		budgets := []int64{0}
		if _, ok := s.(store.CacheResetter); ok {
			budgets = []int64{16 << 10, 256 << 20}
		}
		var buf []webgraph.PageID
		for _, budget = range budgets {
			pages := owned
			if budget > 0 {
				s.(store.CacheResetter).ResetCache(budget)
			}
			for i, f := range oracleFilters(c) {
				if ns, ok := s.(neighborer); ok {
					k := 0
					err := ns.Neighbors(ctx, multiset, f.f, func(p webgraph.PageID, out []webgraph.PageID) error {
						if k++; p != multiset[k-1] {
							return fmt.Errorf("visit %d is page %d, want %d", k-1, p, multiset[k-1])
						}
						return check("Neighbors", p, f, out, nil)
					})
					if err == nil && k != len(multiset) {
						err = fmt.Errorf("%d visits for %d pages", k, len(multiset))
					}
					if err != nil {
						t.Fatalf("%s: Neighbors: %v", s.Name(), err)
					}
				}
				if budget == 16<<10 {
					pages = multiset
				}
				for j, p := range pages {
					if i > 0 && budget != 16<<10 && j%3 != 0 {
						continue
					}
					var err error
					if f.f == nil {
						buf, err = s.Out(p, buf[:0])
					} else {
						buf, err = s.OutFiltered(p, f.f, buf[:0])
					}
					if err := check("Out", p, f, buf, err); err != nil {
						t.Fatal(err)
					}
				}
			}
			if sc, ok := s.(scanner); ok {
				seen := make([]bool, n)
				err := sc.Scan(ctx, func(p webgraph.PageID, out []webgraph.PageID) error {
					if seen[p] {
						return fmt.Errorf("page %d visited twice", p)
					}
					seen[p] = true
					one, err := s.Out(p, nil)
					if err := check("Out inside Scan", p, oracleFilter{name: "nil"}, one, err); err != nil {
						return err
					}
					return check("Scan", p, oracleFilter{name: "nil"}, out, nil)
				})
				if i := slices.Index(seen, false); err == nil && i >= 0 {
					err = fmt.Errorf("page %d never visited", i)
				}
				if err != nil {
					t.Fatalf("%s: Scan: %v", s.Name(), err)
				}
			}
		}
	}
}

// engine returns a query engine over r's scheme restricted to the pages
// owns accepts (nil: every page).
func engine(t *testing.T, r *repo.Repository, scheme string, owns func(webgraph.PageID) bool) *query.Engine {
	t.Helper()
	e, err := query.New(r, scheme)
	if err != nil {
		t.Fatal(err)
	}
	e.SetOwner(owns)
	return e
}

// oracle is the engine that runs the six queries on g and its transpose
// over r's indexes. The Kronecker inputs hold none of the pages the
// queries look for, so they have none (nil).
func oracle(t *testing.T, in *oracleInput, g *webgraph.Graph) *query.Engine {
	if in.factors != nil {
		return nil
	}
	pages := in.r.Corpus.Pages
	return engine(t, in.r.WithStores("csr", csrStore{g, pages}, csrStore{g.Transpose(), pages}), "csr", nil)
}

// checkQueries holds the six queries to the oracle's rows: their
// partials on the engines (one per shard, or one alone) merged with
// query.MergePartials, as Engine.Run does at K = 1 and the router at
// K > 1, and, given a router's URL, its /query answers.
func checkQueries(t *testing.T, want *query.Engine, url string, engines ...*query.Engine) {
	t.Helper()
	for _, q := range query.All() {
		if want == nil {
			return
		}
		w, err := want.Run(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		var parts [][]query.PartialRow
		for _, e := range engines {
			part, err := e.RunPartial(context.Background(), q)
			if err != nil {
				t.Fatalf("Q%d: %v", q, err)
			}
			parts = append(parts, part.Rows)
		}
		if got := query.MergePartials(q, parts); !slices.Equal(got, w.Rows) {
			t.Fatalf("Q%d: %v, want %v", q, got, w.Rows)
		}
		if url == "" {
			continue
		}
		var got serve.QueryResponse
		if getJSON(t, fmt.Sprintf("%s/query?q=%d", url, q), &got); !slices.Equal(got.Rows, w.Rows) {
			t.Fatalf("/query?q=%d: %v, want %v", q, got.Rows, w.Rows)
		}
	}
}

// getJSON decodes a 200 answer's body into out.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err == nil {
		defer resp.Body.Close()
		if err = json.NewDecoder(resp.Body).Decode(out); resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
	}
	if err != nil {
		t.Fatalf("%s: %v", url, err)
	}
}

// TestOracle is the harness: every input of the table, every store
// built from it, every read and query, against the CSR.
func TestOracle(t *testing.T) {
	for _, in := range oracleInputs(t) {
		t.Run(in.name, func(t *testing.T) {
			t.Parallel()
			c, r := in.crawl.Corpus, in.r
			want := oracle(t, in, c.Graph)
			for _, scheme := range repo.AllSchemes() {
				t.Run(scheme, func(t *testing.T) {
					checkReads(t, r.Fwd[scheme], r.Rev[scheme], c.Graph, c, nil)
					checkQueries(t, want, "", engine(t, r, scheme, nil))
				})
			}
			t.Run("overlay", func(t *testing.T) { checkOverlay(t, in, want) })
			for _, k := range in.ks {
				t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
					t.Parallel() // after the overlay case, which builds K = 3 first
					checkPartition(t, in, k, want)
				})
			}
		})
	}
}

// openPartition builds the input's K-shard partition, once, and opens
// every shard of it.
func openPartition(t *testing.T, in *oracleInput, k int) (string, []*shard.ServingShard) {
	t.Helper()
	root := filepath.Join(fixtureDir, in.name, fmt.Sprint("k", k))
	if _, err := os.Stat(root); err != nil {
		if _, err := shard.Build(in.crawl, k, root, snode.DefaultConfig()); err != nil {
			t.Fatal(err)
		}
	}
	shards := make([]*shard.ServingShard, k)
	for i := range shards {
		sh, err := shard.OpenServing(root, i, 16<<20, iosim.Model2002())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sh.Close() })
		shards[i] = sh
	}
	return root, shards
}

// checkPartition holds a K-shard partition to the CSR: its manifest's
// edge count, each shard's merged stores (its pages' rows) and bare ones
// (its intra-shard graph), the queries merged in process and by the
// router over one replica per shard, and /out across shards.
func checkPartition(t *testing.T, in *oracleInput, k int, want *query.Engine) {
	c := in.crawl.Corpus
	g := c.Graph
	root, shards := openPartition(t, in, k)
	m := shards[0].Manifest
	engines := make([]*query.Engine, k)
	urls := make([][]string, k)
	var edges int64
	for i, sh := range shards {
		edges += m.Shards[i].IntraEdges + m.Shards[i].BoundaryFwdEdges
		b := webgraph.NewBuilder(g.NumPages())
		for p := range webgraph.PageID(g.NumPages()) {
			for _, q := range g.Out(p) {
				if sh.Owns(p) && sh.Owns(q) {
					b.AddEdge(p, q)
				}
			}
		}
		checkReads(t, sh.Repo.Fwd[repo.SchemeSNode], sh.Repo.Rev[repo.SchemeSNode], g, c, sh.Owns)
		checkReads(t, sh.NavRepo.Fwd[repo.SchemeSNode], sh.NavRepo.Rev[repo.SchemeSNode], b.Build(), c, sh.Owns)
		engines[i] = engine(t, sh.Repo, repo.SchemeSNode, sh.Owns)
		rep, err := serve.NewReplica(sh, serve.Config{}, "")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rep.Close)
		ts := httptest.NewServer(rep.Handler())
		t.Cleanup(ts.Close)
		urls[i] = []string{ts.URL}
	}
	if edges != g.NumEdges() {
		t.Fatalf("the manifest counts %d intra and boundary edges, the graph has %d", edges, g.NumEdges())
	}
	bs, err := shard.LoadFwdBoundaries(root, m)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := router.New(router.Config{Manifest: m, Boundaries: bs, Replicas: urls, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	checkQueries(t, want, ts.URL, engines...)

	// /out on the first 24 pages whose rows cross shards and the first
	// three whose rows do not.
	counts := map[bool]int{}
	for p := range webgraph.PageID(g.NumPages()) {
		cross := slices.ContainsFunc(g.Out(p), func(q webgraph.PageID) bool { return m.ShardOf(q) != m.ShardOf(p) })
		if counts[cross] < map[bool]int{true: 24, false: 3}[cross] {
			counts[cross]++
			var got serve.OutResponse
			if getJSON(t, fmt.Sprintf("%s/out?page=%d", ts.URL, p), &got); !slices.Equal(got.Neighbors, g.Out(p)) {
				t.Fatalf("/out?page=%d: %v, want %v", p, got.Neighbors, g.Out(p))
			}
		}
	}
	if k > 1 && counts[true] == 0 {
		t.Fatal("no row crosses shards")
	}
}

// mutate draws a 900-mutation log over g — removals of its links,
// random additions, and flips of earlier mutations, which later layers
// must shadow — and returns it with the graph it leaves.
func mutate(g *webgraph.Graph) ([]delta.Mutation, *webgraph.Graph) {
	rng := randutil.NewRNG(20260805)
	np := g.NumPages()
	var muts []delta.Mutation
	last := map[[2]webgraph.PageID]delta.Op{}
	for len(muts) < 900 {
		m := delta.Mutation{Src: webgraph.PageID(rng.Intn(np)), Dst: webgraph.PageID(rng.Intn(np)), Op: delta.OpAdd}
		switch k := rng.Intn(4); {
		case k == 0 && g.OutDegree(m.Src) > 0:
			m.Dst, m.Op = g.Out(m.Src)[rng.Intn(g.OutDegree(m.Src))], delta.OpRemove
		case k >= 2 && len(muts) > 0:
			m = muts[rng.Intn(len(muts))]
			m.Op = map[delta.Op]delta.Op{delta.OpAdd: delta.OpRemove, delta.OpRemove: delta.OpAdd}[m.Op]
		}
		muts = append(muts, m)
		last[[2]webgraph.PageID{m.Src, m.Dst}] = m.Op
	}
	b := webgraph.NewBuilder(np)
	for p := range webgraph.PageID(np) {
		for _, q := range g.Out(p) {
			if last[[2]webgraph.PageID{p, q}] != delta.OpRemove {
				b.AddEdge(p, q)
			}
		}
	}
	for e, op := range last {
		if op == delta.OpAdd {
			b.AddEdge(e[0], e[1])
		}
	}
	return muts, b.Build()
}

// checkOverlay holds delta overlays carrying one mutation log to the
// CSR of the mutated graph: at K = 1 over the input's S-Node stores,
// empty, with segments and a memtable, sealed, compacted and folded
// back; at K = 3 over each shard's merged stores, with the mutations
// whose source (forward) or target (reverse) the shard owns.
func checkOverlay(t *testing.T, in *oracleInput, base *query.Engine) {
	ctx := context.Background()
	c, r := in.crawl.Corpus, in.r
	muts, mg := mutate(c.Graph)
	want := oracle(t, in, mg)
	var rmuts []delta.Mutation
	for _, m := range muts {
		rmuts = append(rmuts, delta.Mutation{Src: m.Dst, Dst: m.Src, Op: m.Op})
	}
	// apply applies log to o in parts, sealing after each but the last.
	apply := func(o *delta.Overlay, log []delta.Mutation, parts int) error {
		for i := 1; ; i++ {
			if err := o.Apply(ctx, log[len(log)*(i-1)/parts:len(log)*i/parts]); err != nil || i == parts {
				return err
			}
			if err := o.Seal(ctx); err != nil {
				return err
			}
		}
	}
	overlay := func(base store.LinkStore) *delta.Overlay {
		o, err := delta.NewOverlay(base, delta.Config{Pages: c.Pages, Dir: t.TempDir(), Model: iosim.Model2002()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { o.Close() })
		return o
	}
	fwd, rev := overlay(r.Fwd[repo.SchemeSNode]), overlay(r.Rev[repo.SchemeSNode])
	live := engine(t, r.WithStores(repo.SchemeSNode, fwd, rev), repo.SchemeSNode, nil)
	checkReads(t, fwd, rev, c.Graph, c, nil)
	checkQueries(t, base, "", live)
	// stage runs op on the forward overlay with the log and on the
	// reverse one with its mirror, then reads them.
	stage := func(name string, op func(o *delta.Overlay, log []delta.Mutation) error) {
		for i, o := range []*delta.Overlay{fwd, rev} {
			if err := op(o, [][]delta.Mutation{muts, rmuts}[i]); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		t.Run(name, func(t *testing.T) {
			checkReads(t, fwd, rev, mg, c, nil)
			checkQueries(t, want, "", live)
		})
	}
	stage("segments+memtable", func(o *delta.Overlay, log []delta.Mutation) error { return apply(o, log, 3) })
	stage("all-segments", func(o *delta.Overlay, _ []delta.Mutation) error { return o.Seal(ctx) })
	stage("compacted", func(o *delta.Overlay, _ []delta.Mutation) (err error) {
		for err == nil && o.SegmentCount() > 1 {
			_, err = o.MergeOnce(ctx)
		}
		return err
	})
	stage("folded", func(o *delta.Overlay, _ []delta.Mutation) error {
		_, err := o.FoldBack(ctx, delta.FoldConfig{SNode: snode.DefaultConfig(), Dir: t.TempDir(), CacheBudget: 16 << 20, Model: iosim.Model2002()})
		return err
	})

	_, shards := openPartition(t, in, 3)
	engines := make([]*query.Engine, len(shards))
	for i, sh := range shards {
		sf, sr := overlay(sh.Repo.Fwd[repo.SchemeSNode]), overlay(sh.Repo.Rev[repo.SchemeSNode])
		for o, log := range map[*delta.Overlay][]delta.Mutation{sf: muts, sr: rmuts} {
			log = slices.DeleteFunc(slices.Clone(log), func(m delta.Mutation) bool { return !sh.Owns(m.Src) })
			if err := apply(o, log, 2); err != nil {
				t.Fatalf("shard %d: %v", i, err)
			}
		}
		checkReads(t, sf, sr, mg, c, sh.Owns)
		engines[i] = engine(t, sh.Repo.WithStores(repo.SchemeSNode, sf, sr), repo.SchemeSNode, sh.Owns)
	}
	checkQueries(t, want, "", engines...)
}

func TestCompressionOrdering(t *testing.T) {
	// The Table 1 shape: snode <= link3 << huffman-ish... at minimum,
	// the compressed schemes must beat the uncompressed file layout,
	// and snode must beat plain Huffman.
	in := oracleInputs(t)[0]
	edges := in.crawl.Corpus.Graph.NumEdges()
	bpe := map[string]float64{}
	for _, s := range in.r.Fwd {
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
	// Emptied caches, so the reads are cold; the harness may have left
	// the whole dataset resident.
	r := oracleInputs(t)[0].r
	model := iosim.Model2002()
	var buf []webgraph.PageID
	for _, scheme := range []string{repo.SchemeSNode, repo.SchemeFiles, repo.SchemeLink3, repo.SchemeDB} {
		s := r.Fwd[scheme]
		s.(store.CacheResetter).ResetCache(64 << 10)
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
