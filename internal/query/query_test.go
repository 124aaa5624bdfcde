package query

import (
	"context"
	"log"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"snode/internal/repo"
	"snode/internal/store"
	"snode/internal/synth"
	"snode/internal/webgraph"
)

var testRepo *repo.Repository

// fixtureDir holds the shared repository; TestMain removes it.
var fixtureDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "query-test-*")
	if err != nil {
		log.Fatal(err)
	}
	fixtureDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func getRepo(t testing.TB) *repo.Repository {
	t.Helper()
	if testRepo != nil {
		return testRepo
	}
	crawl, err := synth.Generate(synth.DefaultConfig(12000))
	if err != nil {
		t.Fatal(err)
	}
	opt := repo.DefaultOptions(fixtureDir)
	opt.Layout = crawl.Order
	r, err := repo.Build(crawl.Corpus, opt)
	if err != nil {
		t.Fatalf("repo.Build: %v", err)
	}
	testRepo = r
	return r
}

func TestAllQueriesReturnResults(t *testing.T) {
	r := getRepo(t)
	e, err := New(r, repo.SchemeSNode)
	if err != nil {
		t.Fatal(err)
	}
	results, err := e.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("%d results", len(results))
	}
	for _, res := range results {
		if len(res.Rows) == 0 {
			t.Errorf("query %d (%s) returned no rows — scenario wiring broken",
				res.Query, res.Query.Description())
		}
		if res.Nav.Total() <= 0 {
			t.Errorf("query %d: non-positive navigation time", res.Query)
		}
	}
}

func TestSchemesAgreeOnResults(t *testing.T) {
	r := getRepo(t)
	ref, err := New(r, repo.SchemeFiles)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{repo.SchemeSNode, repo.SchemeLink3, repo.SchemeDB, repo.SchemeHuffman} {
		e, err := New(r, scheme)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.RunAll(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		for qi := range want {
			if len(got[qi].Rows) != len(want[qi].Rows) {
				t.Fatalf("%s query %d: %d rows, want %d",
					scheme, want[qi].Query, len(got[qi].Rows), len(want[qi].Rows))
			}
			for ri := range want[qi].Rows {
				if got[qi].Rows[ri] != want[qi].Rows[ri] {
					t.Fatalf("%s query %d row %d: %+v != %+v",
						scheme, want[qi].Query, ri, got[qi].Rows[ri], want[qi].Rows[ri])
				}
			}
		}
	}
}

func TestQ1RanksEduDomains(t *testing.T) {
	r := getRepo(t)
	e, _ := New(r, repo.SchemeSNode)
	res, err := e.Run(context.Background(), Q1)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Key == "stanford.edu" {
			t.Fatal("Q1 must exclude stanford.edu")
		}
		if len(row.Key) < 5 || row.Key[len(row.Key)-4:] != ".edu" {
			t.Fatalf("Q1 returned non-edu domain %q", row.Key)
		}
		if row.Value <= 0 {
			t.Fatalf("non-positive weight for %s", row.Key)
		}
	}
	// Descending weights.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Value > res.Rows[i-1].Value {
			t.Fatal("Q1 rows not sorted by weight")
		}
	}
}

func TestQ2CoversAllComics(t *testing.T) {
	r := getRepo(t)
	e, _ := New(r, repo.SchemeSNode)
	res, err := e.Run(context.Background(), Q2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("Q2 rows = %d", len(res.Rows))
	}
	names := map[string]bool{}
	for _, row := range res.Rows {
		names[row.Key] = true
	}
	for _, c := range synth.Comics() {
		if !names[c.Name] {
			t.Fatalf("comic %s missing", c.Name)
		}
	}
}

func TestQ3BaseSetLargerThanRoot(t *testing.T) {
	r := getRepo(t)
	e, _ := New(r, repo.SchemeSNode)
	res, err := e.Run(context.Background(), Q3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0].Key != "base-set-size" {
		t.Fatalf("unexpected row %+v", res.Rows[0])
	}
	if res.Rows[0].Value < 100 {
		t.Fatalf("base set (%v) smaller than root set", res.Rows[0].Value)
	}
}

// countingStore counts the reads a plan makes through a store. It hides
// the store's context-aware path, so the engine reads through Out and
// OutFiltered.
type countingStore struct {
	store.LinkStore
	calls *int
}

func (s countingStore) Out(p webgraph.PageID, buf []webgraph.PageID) ([]webgraph.PageID, error) {
	*s.calls++
	return s.LinkStore.Out(p, buf)
}

func (s countingStore) OutFiltered(p webgraph.PageID, f *store.Filter, buf []webgraph.PageID) ([]webgraph.PageID, error) {
	*s.calls++
	return s.LinkStore.OutFiltered(p, f, buf)
}

// TestQ3WithoutItsPhraseIsEmpty runs Q3 on a corpus in which no page
// contains its phrase — an ingested edge list without a terms column is
// one. The text index finds no page, so there is no root to expand: the
// base set is empty and no page is read. (pagerank.TopK once read the
// empty candidate list as "every page", and Q3 answered with the base
// set of the whole corpus's top 100.)
func TestQ3WithoutItsPhraseIsEmpty(t *testing.T) {
	crawl, err := synth.Generate(synth.DefaultConfig(4000))
	if err != nil {
		t.Fatal(err)
	}
	for i := range crawl.Corpus.Pages {
		crawl.Corpus.Pages[i].Terms = nil
	}
	opt := repo.DefaultOptions(t.TempDir())
	opt.Schemes = []string{repo.SchemeSNode}
	opt.Layout = crawl.Order
	r, err := repo.Build(crawl.Corpus, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	calls := 0
	r.Fwd[repo.SchemeSNode] = countingStore{r.Fwd[repo.SchemeSNode], &calls}
	r.Rev[repo.SchemeSNode] = countingStore{r.Rev[repo.SchemeSNode], &calls}
	e, err := New(r, repo.SchemeSNode)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background(), Q3)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Row{Key: "base-set-size", Value: 0}); len(res.Rows) != 1 || res.Rows[0] != want {
		t.Errorf("Q3 = %+v, want [%+v]", res.Rows, want)
	}
	if calls != 0 {
		t.Errorf("Q3 read %d pages' links with no root to expand", calls)
	}
}

func TestQ4AtMostTenPerUniversity(t *testing.T) {
	r := getRepo(t)
	e, _ := New(r, repo.SchemeSNode)
	res, err := e.Run(context.Background(), Q4)
	if err != nil {
		t.Fatal(err)
	}
	perUni := map[string]int{}
	for _, row := range res.Rows {
		for _, u := range synth.Universities() {
			if len(row.Key) > len(u) && row.Key[:len(u)] == u {
				perUni[u]++
			}
		}
	}
	for u, n := range perUni {
		if n > 10 {
			t.Fatalf("%s has %d rows", u, n)
		}
	}
	if len(perUni) < 2 {
		t.Fatalf("only %d universities produced results", len(perUni))
	}
}

func TestQ5OnlyEduPages(t *testing.T) {
	r := getRepo(t)
	e, _ := New(r, repo.SchemeSNode)
	res, err := e.Run(context.Background(), Q5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) > 10 {
		t.Fatalf("Q5 returned %d rows", len(res.Rows))
	}
}

func TestQ6RequiresBothCiters(t *testing.T) {
	r := getRepo(t)
	e, _ := New(r, repo.SchemeSNode)
	res, err := e.Run(context.Background(), Q6)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Value < 2 {
			t.Fatalf("Q6 row %q has %v citations, need >= 2 (one per university)",
				row.Key, row.Value)
		}
	}
}

func TestSNodeNavigationBeatsFlatFiles(t *testing.T) {
	// The Figure 11 headline at test scale: from a cold, small cache,
	// total modeled navigation time across the six queries must be
	// lower for S-Node than for the uncompressed-files scheme.
	r := getRepo(t)
	const budget = 256 << 10
	r.Fwd[repo.SchemeSNode].(store.CacheResetter).ResetCache(budget)
	r.Rev[repo.SchemeSNode].(store.CacheResetter).ResetCache(budget)
	r.Fwd[repo.SchemeFiles].(store.CacheResetter).ResetCache(budget)
	r.Rev[repo.SchemeFiles].(store.CacheResetter).ResetCache(budget)

	sn, _ := New(r, repo.SchemeSNode)
	ff, _ := New(r, repo.SchemeFiles)
	snRes, err := sn.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ffRes, err := ff.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var snIO, ffIO int64
	for i := range snRes {
		snIO += int64(snRes[i].Nav.IO)
		ffIO += int64(ffRes[i].Nav.IO)
	}
	if snIO >= ffIO {
		t.Fatalf("snode modeled IO %d >= files %d", snIO, ffIO)
	}
	t.Logf("modeled nav IO: snode=%v files=%v",
		time.Duration(snIO), time.Duration(ffIO))
}

func TestUnknownSchemeRejected(t *testing.T) {
	r := getRepo(t)
	if _, err := New(r, "bogus"); err == nil {
		t.Fatal("bogus scheme accepted")
	}
}

func TestDescriptions(t *testing.T) {
	for _, q := range All() {
		if q.Description() == "unknown" {
			t.Fatalf("query %d lacks description", q)
		}
	}
}

func TestTransposeRequiredQueries(t *testing.T) {
	crawl, err := synth.Generate(synth.DefaultConfig(2000))
	if err != nil {
		t.Fatal(err)
	}
	opt := repo.DefaultOptions(t.TempDir())
	opt.Schemes = []string{repo.SchemeSNode}
	opt.Transpose = false
	r, err := repo.Build(crawl.Corpus, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	e, err := New(r, repo.SchemeSNode)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []ID{Q3, Q4, Q5} {
		if _, err := e.Run(context.Background(), q); err == nil {
			t.Errorf("Q%d without transpose did not error", q)
		}
	}
	// Forward-only queries still work.
	for _, q := range []ID{Q1, Q2, Q6} {
		if _, err := e.Run(context.Background(), q); err != nil {
			t.Errorf("Q%d without transpose failed: %v", q, err)
		}
	}
}

// Ground truth: recompute Q1 and Q2 by brute force directly from the
// corpus (no LinkStore, no filters) and compare with the engine.
func TestQ1AgainstBruteForce(t *testing.T) {
	r := getRepo(t)
	c := r.Corpus
	hasPhrase := func(p int32, phrase string) bool {
		for _, term := range c.Pages[p].Terms {
			if term == phrase {
				return true
			}
		}
		return false
	}
	isEdu := func(d string) bool {
		return len(d) > 4 && d[len(d)-4:] == ".edu"
	}
	want := map[string]float64{}
	for p := int32(0); int(p) < c.Graph.NumPages(); p++ {
		if c.Pages[p].Domain != "stanford.edu" || !hasPhrase(p, synth.PhraseMobileNetworking) {
			continue
		}
		seen := map[string]bool{}
		for _, q := range c.Graph.Out(p) {
			d := c.Pages[q].Domain
			if d == "stanford.edu" || !isEdu(d) || seen[d] {
				continue
			}
			seen[d] = true
			want[d] += r.PageRank[p]
		}
	}
	e, _ := New(r, repo.SchemeSNode)
	res, err := e.Run(context.Background(), Q1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("engine %d rows, brute force %d", len(res.Rows), len(want))
	}
	for _, row := range res.Rows {
		if w, ok := want[row.Key]; !ok || absDiff(w, row.Value) > 1e-9 {
			t.Fatalf("domain %s: engine %f, brute force %f", row.Key, row.Value, w)
		}
	}
}

func TestQ2AgainstBruteForce(t *testing.T) {
	r := getRepo(t)
	c := r.Corpus
	want := map[string]float64{}
	for _, comic := range synth.Comics() {
		c1, c2 := 0, 0
		for p := int32(0); int(p) < c.Graph.NumPages(); p++ {
			if c.Pages[p].Domain != "stanford.edu" {
				continue
			}
			n := 0
			for _, w := range comic.Words {
				for _, term := range c.Pages[p].Terms {
					if term == w {
						n++
						break
					}
				}
			}
			if n >= 2 {
				c1++
			}
			for _, q := range c.Graph.Out(p) {
				if c.Pages[q].Domain == comic.Site {
					c2++
				}
			}
		}
		want[comic.Name] = float64(c1 + c2)
	}
	e, _ := New(r, repo.SchemeSNode)
	res, err := e.Run(context.Background(), Q2)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if want[row.Key] != row.Value {
			t.Fatalf("%s: engine %f, brute force %f", row.Key, row.Value, want[row.Key])
		}
	}
}

// The Q3-Q6 oracles below extend the same ground truth: everything is
// recomputed from Corpus.Graph and Corpus.Pages, with in-neighbourhoods
// read off a transposed CSR built here, so no LinkStore, filter, plan or
// merge is shared with the engine under test.

// bruteInLinks transposes the corpus graph into CSR form; scanning
// sources in ascending order leaves every in-list sorted by page ID.
func bruteInLinks(g *webgraph.Graph) func(webgraph.PageID) []webgraph.PageID {
	n := g.NumPages()
	off := make([]int64, n+1)
	for p := 0; p < n; p++ {
		for _, q := range g.Out(webgraph.PageID(p)) {
			off[q+1]++
		}
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	src := make([]webgraph.PageID, off[n])
	next := append([]int64(nil), off[:n]...)
	for p := 0; p < n; p++ {
		for _, q := range g.Out(webgraph.PageID(p)) {
			src[next[q]] = webgraph.PageID(p)
			next[q]++
		}
	}
	return func(p webgraph.PageID) []webgraph.PageID { return src[off[p]:off[p+1]] }
}

// brutePages scans the corpus for pages carrying term, optionally
// within one domain ("" = any), in ascending page order.
func brutePages(c *webgraph.Corpus, term, domain string) []webgraph.PageID {
	var out []webgraph.PageID
	for p := range c.Pages {
		if domain != "" && c.Pages[p].Domain != domain {
			continue
		}
		for _, t := range c.Pages[p].Terms {
			if t == term {
				out = append(out, webgraph.PageID(p))
				break
			}
		}
	}
	return out
}

// bruteTop ranks rows by descending value, ascending key, and caps.
func bruteTop(rows []Row, limit int) []Row {
	sortRows(rows)
	if len(rows) > limit {
		rows = rows[:limit]
	}
	return rows
}

func checkAgainstBruteForce(t *testing.T, q ID, want []Row) {
	t.Helper()
	e, err := New(getRepo(t), repo.SchemeSNode)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatalf("Q%d: brute force found no rows — scenario wiring broken", q)
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("Q%d: engine %d rows, brute force %d", q, len(res.Rows), len(want))
	}
	for i := range want {
		if res.Rows[i] != want[i] {
			t.Fatalf("Q%d row %d: engine %+v, brute force %+v", q, i, res.Rows[i], want[i])
		}
	}
}

func TestQ3AgainstBruteForce(t *testing.T) {
	r := getRepo(t)
	c := r.Corpus
	in := bruteInLinks(c.Graph)
	roots := brutePages(c, synth.PhraseInternetCensorship, "")
	sort.Slice(roots, func(i, j int) bool {
		a, b := roots[i], roots[j]
		if r.PageRank[a] != r.PageRank[b] {
			return r.PageRank[a] > r.PageRank[b]
		}
		return a < b
	})
	if len(roots) > 100 {
		roots = roots[:100]
	}
	base := map[webgraph.PageID]bool{}
	for _, p := range roots {
		base[p] = true
		for _, q := range c.Graph.Out(p) {
			base[q] = true
		}
		// The HITS cap: the 50 smallest in-neighbours by page ID.
		for i, q := range in(p) {
			if i >= 50 {
				break
			}
			base[q] = true
		}
	}
	checkAgainstBruteForce(t, Q3, []Row{{Key: "base-set-size", Value: float64(len(base))}})
}

func TestQ4AgainstBruteForce(t *testing.T) {
	c := getRepo(t).Corpus
	in := bruteInLinks(c.Graph)
	var want []Row
	for _, uni := range synth.Universities() {
		var rows []Row
		for _, p := range brutePages(c, synth.PhraseQuantumCryptography, uni) {
			n := 0
			for _, q := range in(p) {
				if c.Pages[q].Domain != uni {
					n++
				}
			}
			rows = append(rows, Row{Key: uni + " " + c.Pages[p].URL, Value: float64(n)})
		}
		want = append(want, bruteTop(rows, 10)...)
	}
	checkAgainstBruteForce(t, Q4, want)
}

func TestQ5AgainstBruteForce(t *testing.T) {
	c := getRepo(t).Corpus
	in := bruteInLinks(c.Graph)
	set := brutePages(c, synth.PhraseComputerMusic, "")
	inSet := map[webgraph.PageID]bool{}
	for _, p := range set {
		inSet[p] = true
	}
	var rows []Row
	for _, p := range set {
		if !strings.HasSuffix(c.Pages[p].Domain, ".edu") {
			continue
		}
		n := 0
		for _, q := range in(p) {
			if inSet[q] {
				n++
			}
		}
		rows = append(rows, Row{Key: c.Pages[p].URL, Value: float64(n)})
	}
	checkAgainstBruteForce(t, Q5, bruteTop(rows, 10))
}

func TestQ6AgainstBruteForce(t *testing.T) {
	c := getRepo(t).Corpus
	cited := func(domain string) map[webgraph.PageID]int {
		n := map[webgraph.PageID]int{}
		for _, p := range brutePages(c, synth.PhraseOpticalInterferometry, domain) {
			for _, q := range c.Graph.Out(p) {
				if d := c.Pages[q].Domain; d != "stanford.edu" && d != "berkeley.edu" {
					n[q]++
				}
			}
		}
		return n
	}
	a, b := cited("stanford.edu"), cited("berkeley.edu")
	var rows []Row
	for q, na := range a {
		if nb := b[q]; nb >= 1 {
			rows = append(rows, Row{Key: c.Pages[q].URL, Value: float64(na + nb)})
		}
	}
	checkAgainstBruteForce(t, Q6, bruteTop(rows, 25))
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}
