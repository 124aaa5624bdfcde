package synth

import (
	"sort"
	"strings"
	"testing"

	"snode/internal/urlutil"
	"snode/internal/webgraph"
)

// genOnce caches one 20k-page crawl across tests in this package.
var testCrawl *Crawl

func getCrawl(t testing.TB) *Crawl {
	t.Helper()
	if testCrawl == nil {
		c, err := Generate(DefaultConfig(20000))
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		testCrawl = c
	}
	return testCrawl
}

func TestGenerateBasicShape(t *testing.T) {
	c := getCrawl(t)
	g := c.Corpus.Graph
	if g.NumPages() != 20000 {
		t.Fatalf("NumPages = %d", g.NumPages())
	}
	avg := g.AvgOutDegree()
	if avg < 8 || avg > 22 {
		t.Fatalf("AvgOutDegree = %f, want near 14", avg)
	}
	if err := c.Corpus.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(DefaultConfig(2000))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(DefaultConfig(2000))
	if err != nil {
		t.Fatal(err)
	}
	if !a.Corpus.Graph.Equal(b.Corpus.Graph) {
		t.Fatal("same seed produced different graphs")
	}
	for i := range a.Order {
		if a.Order[i] != b.Order[i] {
			t.Fatalf("crawl order diverges at %d", i)
		}
	}
	cfg := DefaultConfig(2000)
	cfg.Seed++
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Corpus.Graph.Equal(c.Corpus.Graph) {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestGenerateRejectsTinyConfigs(t *testing.T) {
	if _, err := Generate(DefaultConfig(10)); err == nil {
		t.Fatal("tiny corpus accepted")
	}
	cfg := DefaultConfig(1000)
	cfg.MeanOutDegree = 0.5
	if _, err := Generate(cfg); err == nil {
		t.Fatal("bad mean out-degree accepted")
	}
}

func TestPagesSortedByDomainThenURL(t *testing.T) {
	c := getCrawl(t)
	pages := c.Corpus.Pages
	for i := 1; i < len(pages); i++ {
		a, b := pages[i-1], pages[i]
		if a.Domain > b.Domain {
			t.Fatalf("domains out of order at %d: %s > %s", i, a.Domain, b.Domain)
		}
		if a.Domain == b.Domain && a.URL >= b.URL {
			t.Fatalf("URLs out of order at %d: %s >= %s", i, a.URL, b.URL)
		}
	}
}

func TestDomainsContiguous(t *testing.T) {
	c := getCrawl(t)
	seen := map[string]bool{}
	prev := ""
	for _, p := range c.Corpus.Pages {
		if p.Domain != prev {
			if seen[p.Domain] {
				t.Fatalf("domain %s appears in two runs", p.Domain)
			}
			seen[p.Domain] = true
			prev = p.Domain
		}
	}
}

func TestScenarioDomainsExist(t *testing.T) {
	c := getCrawl(t)
	want := map[string]int{}
	for _, u := range Universities() {
		want[u] = 0
	}
	for _, cs := range Comics() {
		want[cs.Site] = 0
	}
	for _, p := range c.Corpus.Pages {
		if _, ok := want[p.Domain]; ok {
			want[p.Domain]++
		}
	}
	for d, n := range want {
		if n == 0 {
			t.Errorf("scenario domain %s has no pages", d)
		}
	}
	// Universities must be much larger than comic sites.
	if want["stanford.edu"] < 10*want["dilbert.com"] {
		t.Errorf("stanford=%d not much larger than dilbert=%d",
			want["stanford.edu"], want["dilbert.com"])
	}
}

func TestMetadataDomainMatchesURL(t *testing.T) {
	c := getCrawl(t)
	for i, p := range c.Corpus.Pages {
		if got := urlutil.Domain(p.URL); got != p.Domain {
			t.Fatalf("page %d: Domain field %q but URL %q implies %q",
				i, p.Domain, p.URL, got)
		}
	}
}

func TestIntraDomainLocality(t *testing.T) {
	c := getCrawl(t)
	g := c.Corpus.Graph
	pages := c.Corpus.Pages
	var intra, total int64
	for p := int32(0); int(p) < g.NumPages(); p++ {
		for _, q := range g.Out(p) {
			if pages[p].Domain == pages[q].Domain {
				intra++
			}
			total++
		}
	}
	frac := float64(intra) / float64(total)
	// Configured at 0.75; copying and scenario wiring shift it a bit.
	if frac < 0.55 || frac > 0.92 {
		t.Fatalf("intra-domain link fraction = %f, want ~0.75", frac)
	}
}

func TestLinkCopyingCreatesSimilarLists(t *testing.T) {
	// Observation 1: there must exist many page pairs with highly
	// overlapping adjacency lists. Count pages whose previous page (in
	// URL order, same domain) shares >= 50% of its targets.
	c := getCrawl(t)
	g := c.Corpus.Graph
	pages := c.Corpus.Pages
	similar := 0
	candidates := 0
	for p := 1; p < g.NumPages(); p++ {
		if pages[p].Domain != pages[p-1].Domain {
			continue
		}
		a, b := g.Out(int32(p)), g.Out(int32(p-1))
		if len(a) < 4 || len(b) < 4 {
			continue
		}
		candidates++
		shared := 0
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			switch {
			case a[i] == b[j]:
				shared++
				i++
				j++
			case a[i] < b[j]:
				i++
			default:
				j++
			}
		}
		if float64(shared) >= 0.3*float64(len(a)) {
			similar++
		}
	}
	if candidates == 0 {
		t.Fatal("no candidate pairs")
	}
	frac := float64(similar) / float64(candidates)
	if frac < 0.05 {
		t.Fatalf("similar-adjacency fraction = %f, link copying absent", frac)
	}
}

func TestScenarioPhrasesPresent(t *testing.T) {
	c := getCrawl(t)
	counts := map[string]int{}
	stanfordMobile := 0
	for _, p := range c.Corpus.Pages {
		for _, ph := range []string{
			PhraseMobileNetworking, PhraseInternetCensorship,
			PhraseQuantumCryptography, PhraseComputerMusic,
			PhraseOpticalInterferometry,
		} {
			if webgraph.HasTerm(p.Terms, ph) {
				counts[ph]++
				if ph == PhraseMobileNetworking && p.Domain == "stanford.edu" {
					stanfordMobile++
				}
			}
		}
	}
	for ph, n := range counts {
		if n < 5 {
			t.Errorf("phrase %s on only %d pages", ph, n)
		}
	}
	if stanfordMobile == 0 {
		t.Error("no stanford.edu pages mention mobile_networking (Q1 would be empty)")
	}
}

func TestComicWordPagesExistAtStanford(t *testing.T) {
	c := getCrawl(t)
	found := 0
	for _, p := range c.Corpus.Pages {
		if p.Domain != "stanford.edu" {
			continue
		}
		for _, comic := range Comics() {
			n := 0
			for _, w := range comic.Words {
				if webgraph.HasTerm(p.Terms, w) {
					n++
				}
			}
			if n >= 2 {
				found++
			}
		}
	}
	if found == 0 {
		t.Fatal("no stanford pages with >=2 comic words (Q2 would be empty)")
	}
}

func TestCrawlOrderIsPermutation(t *testing.T) {
	c := getCrawl(t)
	n := c.Corpus.Graph.NumPages()
	if len(c.Order) != n {
		t.Fatalf("order length %d != %d", len(c.Order), n)
	}
	seen := make([]bool, n)
	for _, pid := range c.Order {
		if pid < 0 || int(pid) >= n || seen[pid] {
			t.Fatalf("bad crawl order entry %d", pid)
		}
		seen[pid] = true
	}
}

func TestCrawlOrderDiscoversDomainsSublinearly(t *testing.T) {
	c := getCrawl(t)
	pages := c.Corpus.Pages
	distinctAt := func(n int) int {
		set := map[string]bool{}
		for _, pid := range c.Order[:n] {
			set[pages[pid].Domain] = true
		}
		return len(set)
	}
	n := len(c.Order)
	tenth := distinctAt(n / 10)
	half := distinctAt(n / 2)
	full := distinctAt(n)
	// Discovery must be front-loaded: the first half of the crawl holds
	// clearly more than half the domains, and the first tenth already a
	// fifth of them.
	if float64(half) < 0.52*float64(full) {
		t.Fatalf("domain discovery not front-loaded: %d at half vs %d total", half, full)
	}
	if float64(tenth) < 0.15*float64(full) {
		t.Fatalf("early discovery too slow: %d at tenth vs %d total", tenth, full)
	}
}

func TestPrefixSubsetsNestAndValidate(t *testing.T) {
	c := getCrawl(t)
	p1 := c.Prefix(5000).Corpus
	p2 := c.Prefix(10000).Corpus
	if p1.Graph.NumPages() != 5000 || p2.Graph.NumPages() != 10000 {
		t.Fatal("prefix sizes wrong")
	}
	if err := p1.Validate(); err != nil {
		t.Fatalf("prefix validate: %v", err)
	}
	// URL sets nest.
	urls1 := map[string]bool{}
	for _, p := range p1.Pages {
		urls1[p.URL] = true
	}
	found := 0
	for _, p := range p2.Pages {
		if urls1[p.URL] {
			found++
		}
	}
	if found != 5000 {
		t.Fatalf("prefixes do not nest: %d of 5000 found", found)
	}
	// Prefix pages remain sorted by (domain, URL).
	if !sort.SliceIsSorted(p1.Pages, func(i, j int) bool {
		a, b := p1.Pages[i], p1.Pages[j]
		if a.Domain != b.Domain {
			return a.Domain < b.Domain
		}
		return a.URL < b.URL
	}) {
		t.Fatal("prefix pages not sorted")
	}
}

func TestPrefixFullIsIdentity(t *testing.T) {
	c := getCrawl(t)
	p := c.Prefix(c.Corpus.Graph.NumPages() + 10)
	if p != c {
		t.Fatal("over-length prefix should return the full crawl")
	}
}

func TestPrefixPreservesEdgesAmongKeptPages(t *testing.T) {
	c := getCrawl(t)
	n := 5000
	p := c.Prefix(n).Corpus
	// Map prefix IDs back to original IDs via URL.
	urlToOrig := map[string]int32{}
	for pid, meta := range c.Corpus.Pages {
		urlToOrig[meta.URL] = int32(pid)
	}
	for newP := 0; newP < 200; newP++ { // spot-check a sample
		origP := urlToOrig[p.Pages[newP].URL]
		// Every prefix edge must exist in the full graph.
		for _, newQ := range p.Graph.Out(int32(newP)) {
			origQ := urlToOrig[p.Pages[newQ].URL]
			if !c.Corpus.Graph.HasEdge(origP, origQ) {
				t.Fatalf("prefix edge %d->%d absent from full graph", origP, origQ)
			}
		}
	}
}

func TestURLsParseable(t *testing.T) {
	c := getCrawl(t)
	for _, p := range c.Corpus.Pages[:2000] {
		if !strings.HasPrefix(p.URL, "http://") {
			t.Fatalf("URL %q lacks scheme", p.URL)
		}
		if urlutil.PathDepth(p.URL) > 4 {
			t.Fatalf("URL %q too deep", p.URL)
		}
	}
}
