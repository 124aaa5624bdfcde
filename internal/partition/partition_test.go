package partition

import (
	"context"
	"errors"
	"testing"

	"snode/internal/iosim"
	"snode/internal/metrics"
	"snode/internal/randutil"
	"snode/internal/synth"
	"snode/internal/urlutil"
	"snode/internal/webgraph"
)

var testCorpus *webgraph.Corpus

func getCorpus(t testing.TB) *webgraph.Corpus {
	t.Helper()
	if testCorpus == nil {
		// Large enough that some elements exceed MinSplitSize after URL
		// splitting, so clustered split is exercised.
		c, err := synth.Generate(synth.DefaultConfig(16000))
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		testCorpus = c.Corpus
	}
	return testCorpus
}

func TestInitialByDomain(t *testing.T) {
	c := getCorpus(t)
	p := InitialByDomain(c)
	if err := p.Validate(c); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// One element per distinct domain.
	domains := map[string]bool{}
	for _, pg := range c.Pages {
		domains[pg.Domain] = true
	}
	if p.NumElements() != len(domains) {
		t.Fatalf("NumElements = %d, distinct domains = %d", p.NumElements(), len(domains))
	}
	// cs.stanford.edu and www.stanford.edu share an element (footnote 5).
	var csElem, wwwElem int32 = -1, -1
	for pid, meta := range c.Pages {
		if csElem == -1 && urlutil.Host(meta.URL) == "cs.stanford.edu" {
			csElem = p.Assign[pid]
		}
		if wwwElem == -1 && urlutil.Host(meta.URL) == "www.stanford.edu" {
			wwwElem = p.Assign[pid]
		}
	}
	if csElem == -1 || wwwElem == -1 {
		t.Skip("corpus lacks both stanford hosts")
	}
	if csElem != wwwElem {
		t.Fatal("stanford subdomains split across P0 elements")
	}
}

func TestRefineInvariants(t *testing.T) {
	c := getCorpus(t)
	p, err := Refine(c, DefaultConfig())
	if err != nil {
		t.Fatalf("Refine: %v", err)
	}
	if err := p.Validate(c); err != nil {
		t.Fatalf("Validate after refine: %v", err)
	}
	p0 := InitialByDomain(c)
	if p.NumElements() <= p0.NumElements() {
		t.Fatalf("refinement did not split anything: %d elements vs P0's %d",
			p.NumElements(), p0.NumElements())
	}
	if p.URLSplits == 0 {
		t.Fatal("no URL splits happened")
	}
	if p.ClusteredSplits == 0 {
		t.Fatal("no clustered splits happened")
	}
	if p.Aborts == 0 {
		t.Fatal("refinement never aborted (stopping criterion untested)")
	}
}

func TestRefineDeterministic(t *testing.T) {
	c := getCorpus(t)
	cfg := DefaultConfig()
	a, err := Refine(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Refine(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumElements() != b.NumElements() {
		t.Fatalf("element counts differ: %d vs %d", a.NumElements(), b.NumElements())
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("assignment diverges at page %d", i)
		}
	}
}

func TestRefineIsARefinementOfP0(t *testing.T) {
	// Every final element must lie entirely within one P0 element.
	c := getCorpus(t)
	p0 := InitialByDomain(c)
	p, err := Refine(c, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for ei, e := range p.Elements {
		first := p0.Assign[e.Pages[0]]
		for _, pg := range e.Pages {
			if p0.Assign[pg] != first {
				t.Fatalf("element %d spans P0 elements %d and %d",
					ei, first, p0.Assign[pg])
			}
		}
	}
}

func TestRefineGroupsLexicographicNeighbors(t *testing.T) {
	// Property 3: pages with the same deep URL prefix tend to share an
	// element. Check that the average element groups URL-adjacent pages:
	// for a sample of same-element page pairs at distance 1 in ID order,
	// their URL prefixes agree at depth 1.
	c := getCorpus(t)
	p, err := Refine(c, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	together, total := 0, 0
	for pid := 1; pid < c.Graph.NumPages(); pid++ {
		if c.Pages[pid-1].Domain != c.Pages[pid].Domain {
			continue
		}
		samePrefix := urlutil.PrefixAtDepth(c.Pages[pid-1].URL, 1) ==
			urlutil.PrefixAtDepth(c.Pages[pid].URL, 1)
		if !samePrefix {
			continue
		}
		total++
		if p.Assign[pid-1] == p.Assign[pid] {
			together++
		}
	}
	if total == 0 {
		t.Skip("no same-prefix neighbor pairs")
	}
	frac := float64(together) / float64(total)
	if frac < 0.4 {
		t.Fatalf("only %.2f of same-prefix neighbors share an element", frac)
	}
}

func TestURLSplitDepthProgression(t *testing.T) {
	// Build a tiny synthetic corpus by hand: one domain, two level-1
	// dirs, each with two level-2 dirs.
	urls := []string{
		"http://www.x.com/a/p0.html",
		"http://www.x.com/a/q/p1.html",
		"http://www.x.com/a/q/p2.html",
		"http://www.x.com/b/r/p3.html",
		"http://www.x.com/b/r/p4.html",
		"http://www.x.com/b/s/p5.html",
	}
	b := webgraph.NewBuilder(len(urls))
	pages := make([]webgraph.PageMeta, len(urls))
	for i, u := range urls {
		pages[i] = webgraph.PageMeta{URL: u, Domain: "x.com"}
	}
	c := &webgraph.Corpus{Graph: b.Build(), Pages: pages}
	e := Element{Pages: []webgraph.PageID{0, 1, 2, 3, 4, 5}, depth: 0}
	// Depth 0 (host) cannot split a single-host element; depth 1 must
	// produce the /a vs /b groups.
	groups := urlSplit(c, &e)
	if groups == nil {
		t.Fatal("urlSplit failed")
	}
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2 (a vs b)", len(groups))
	}
	// Splitting group /b at depth 2 separates /b/r from /b/s.
	gb := groups[1]
	sub := urlSplit(c, &gb)
	if sub == nil || len(sub) != 2 {
		t.Fatalf("depth-2 split of /b gave %v", sub)
	}
}

func TestURLSplitExhaustedReturnsNil(t *testing.T) {
	urls := []string{
		"http://www.x.com/a/p0.html",
		"http://www.x.com/a/p1.html",
	}
	b := webgraph.NewBuilder(2)
	pages := []webgraph.PageMeta{
		{URL: urls[0], Domain: "x.com"},
		{URL: urls[1], Domain: "x.com"},
	}
	c := &webgraph.Corpus{Graph: b.Build(), Pages: pages}
	e := Element{Pages: []webgraph.PageID{0, 1}, depth: 0}
	if g := urlSplit(c, &e); g != nil {
		t.Fatalf("same-prefix pages split: %v", g)
	}
}

func TestRefineBadConfig(t *testing.T) {
	c := getCorpus(t)
	if _, err := Refine(c, Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestRefineRespectsMinSplitSize(t *testing.T) {
	c := getCorpus(t)
	cfg := DefaultConfig()
	cfg.MinSplitSize = 1 << 20 // no element is large enough to cluster-split
	p, err := Refine(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.ClusteredSplits != 0 {
		t.Fatalf("clustered splits happened below MinSplitSize: %d", p.ClusteredSplits)
	}
	if p.URLSplits == 0 {
		t.Fatal("URL splits must still apply (they are not size-gated)")
	}
}

func TestRefineAbortMaxStopping(t *testing.T) {
	c := getCorpus(t)
	cfg := DefaultConfig()
	cfg.Stopping = StopAbortMax
	cfg.AbortMaxFrac = 0.06
	p, err := Refine(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(c); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// The abortmax estimate stops at or before the exhaustive fixed
	// point.
	pe, err := Refine(c, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.NumElements() > pe.NumElements() {
		t.Fatalf("abortmax produced more elements (%d) than exhaustive (%d)",
			p.NumElements(), pe.NumElements())
	}
	cfg.AbortMaxFrac = 0
	if _, err := Refine(c, cfg); err == nil {
		t.Fatal("abortmax stopping with zero fraction accepted")
	}
}

func TestSupernodeGrowthSublinear(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// The Figure 9 property at miniature scale: doubling pages must far
	// less than double the supernode count growth rate... we check the
	// weaker, robust property that elements-per-page falls as the
	// repository grows.
	crawl, err := synth.Generate(synth.DefaultConfig(12000))
	if err != nil {
		t.Fatal(err)
	}
	small := crawl.Prefix(4000).Corpus
	big := crawl.Prefix(12000).Corpus
	ps, err := Refine(small, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pb, err := Refine(big, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rs := float64(ps.NumElements()) / 4000
	rb := float64(pb.NumElements()) / 12000
	if rb >= rs {
		t.Fatalf("supernode density did not fall: %.4f (4k) vs %.4f (12k)", rs, rb)
	}
}

func TestRefineWorkerCountInvariant(t *testing.T) {
	// The tentpole guarantee: the partition is bit-identical for every
	// worker-pool width (per-element RNG streams + sorted application
	// order keep scheduling out of the result).
	c := getCorpus(t)
	base := DefaultConfig()
	base.Workers = 1
	ref, err := Refine(c, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		p, err := Refine(c, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if p.NumElements() != ref.NumElements() {
			t.Fatalf("workers=%d: %d elements, workers=1 gave %d",
				workers, p.NumElements(), ref.NumElements())
		}
		for i := range p.Assign {
			if p.Assign[i] != ref.Assign[i] {
				t.Fatalf("workers=%d: assignment diverges at page %d", workers, i)
			}
		}
		if p.URLSplits != ref.URLSplits || p.ClusteredSplits != ref.ClusteredSplits ||
			p.Aborts != ref.Aborts || p.Iterations != ref.Iterations || p.Rounds != ref.Rounds {
			t.Fatalf("workers=%d: stats diverge: %+v vs %+v", workers,
				struct{ U, C, A, I, R int }{p.URLSplits, p.ClusteredSplits, p.Aborts, p.Iterations, p.Rounds},
				struct{ U, C, A, I, R int }{ref.URLSplits, ref.ClusteredSplits, ref.Aborts, ref.Iterations, ref.Rounds})
		}
	}
}

func TestRefineParallelRace(t *testing.T) {
	// Exercise the round-parallel path under the race detector (make
	// check runs this package with -race). Plain Refine at width 8 is
	// enough: every round fans trySplit out over the pool.
	c := getCorpus(t)
	cfg := DefaultConfig()
	cfg.Workers = 8
	p, err := Refine(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(c); err != nil {
		t.Fatal(err)
	}
}

func TestRefineCtxCancelled(t *testing.T) {
	c := getCorpus(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RefineCtx(ctx, c, DefaultConfig()); !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
}

func TestRefineMetricsRegistered(t *testing.T) {
	c := getCorpus(t)
	cfg := DefaultConfig()
	reg := metrics.NewRegistry()
	cfg.Metrics = reg
	p, err := Refine(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	split := reg.Counter("build_elements_split").Value()
	if want := int64(p.URLSplits + p.ClusteredSplits); split != want {
		t.Fatalf("build_elements_split = %d, want %d", split, want)
	}
	if got := reg.Counter("build_refine_rounds").Value(); got != int64(p.Rounds) {
		t.Fatalf("build_refine_rounds = %d, want %d", got, p.Rounds)
	}
	if got := reg.Gauge("build_elements").Value(); got != int64(p.NumElements()) {
		t.Fatalf("build_elements gauge = %d, want %d", got, p.NumElements())
	}
}

func TestRefineModeledScan(t *testing.T) {
	// With an accountant attached, clustered-split attempts charge
	// repository scans; with pacing off this must not change the result.
	c := getCorpus(t)
	ref, err := Refine(c, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	acct := iosim.NewAccountant(iosim.Model2002())
	cfg.IO = acct
	p, err := Refine(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Assign {
		if p.Assign[i] != ref.Assign[i] {
			t.Fatalf("modeled scans changed the partition at page %d", i)
		}
	}
	st := acct.Stats()
	if st.Seeks == 0 || st.BytesRead == 0 {
		t.Fatalf("no scans charged: %+v", st)
	}
}

// TestClusteredSplitAllocs: once a worker's scratch has grown to the
// largest element, a clustered split allocates what k-means and the
// split's result take and nothing else — the same count for the
// smallest element of P0 that splits and the largest. A map entry per
// target supernode, a signature allocated per page, or a child's page
// list grown by append would make the count follow the element.
func TestClusteredSplitAllocs(t *testing.T) {
	c := getCorpus(t)
	cfg := DefaultConfig()
	p := InitialByDomain(c)
	sc := new(splitScratch)
	// Every split below starts from the same RNG state, so a run
	// repeats the one before it.
	rngOf := func(ei int) randutil.RNG { return *elementRNG(cfg.Seed, p.Elements[ei].Pages[0], 0) }
	split := func(ei int) []Element {
		rng := rngOf(ei)
		return sc.clusteredSplit(c, p, ei, cfg, &rng)
	}
	smallest, largest := -1, -1
	for ei, e := range p.Elements {
		if len(e.Pages) < cfg.MinSplitSize || split(ei) == nil {
			continue
		}
		if smallest < 0 || len(e.Pages) < len(p.Elements[smallest].Pages) {
			smallest = ei
		}
		if largest < 0 || len(e.Pages) > len(p.Elements[largest].Pages) {
			largest = ei
		}
	}
	if smallest < 0 {
		t.Fatal("no element of P0 splits")
	}
	shape := func(ei int) (pages, links, targets int) {
		for _, pg := range p.Elements[ei].Pages {
			links += len(c.Graph.Out(pg))
		}
		return len(p.Elements[ei].Pages), links, sc.signatures(c, p, ei)
	}
	sp, sl, st := shape(smallest)
	lp, ll, lt := shape(largest)
	if lp < 4*sp || ll < 4*sl {
		t.Fatalf("elements %d and %d have %d and %d pages, %d and %d links: too alike to tell", smallest, largest, sp, lp, sl, ll)
	}
	split(largest)
	var counts [2]float64
	for i, ei := range []int{smallest, largest} {
		counts[i] = testing.AllocsPerRun(10, func() { split(ei) })
	}
	t.Logf("element %d (%d pages, %d links, %d targets): %v allocations; element %d (%d pages, %d links, %d targets): %v",
		smallest, sp, sl, st, counts[0], largest, lp, ll, lt, counts[1])
	if counts[0] != counts[1] {
		t.Errorf("splitting element %d takes %v allocations, element %d %v: want the same", smallest, counts[0], largest, counts[1])
	}
}

// BenchmarkRefine is the build's refine stage on the shared test corpus,
// at the default worker count: ns/page and allocs/op are the figures a
// change to the splits moves.
func BenchmarkRefine(b *testing.B) {
	c := getCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Refine(c, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.Graph.NumPages()), "ns/page")
}
