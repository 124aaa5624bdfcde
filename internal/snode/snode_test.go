package snode

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"snode/internal/iosim"
	"snode/internal/metrics"
	"snode/internal/store"
	"snode/internal/synth"
	"snode/internal/webgraph"
)

var (
	testCorpus *webgraph.Corpus
	testDir    string
	testStats  *BuildStats
	// fixtureDir holds the shared representation; TestMain removes it.
	fixtureDir string
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "snode-test-*")
	if err != nil {
		log.Fatal(err)
	}
	fixtureDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// buildOnce builds one representation shared by the read-only tests.
func buildOnce(t testing.TB) (*webgraph.Corpus, string) {
	t.Helper()
	if testDir != "" {
		return testCorpus, testDir
	}
	crawl, err := synth.Generate(synth.DefaultConfig(6000))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	testCorpus = crawl.Corpus
	dir := fixtureDir
	cfg := DefaultConfig()
	cfg.MaxFileSize = 8 << 10 // exercise the multi-file layout
	st, err := Build(testCorpus, cfg, dir)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	testStats = st
	testDir = dir
	return testCorpus, testDir
}

func openRep(t testing.TB, budget int64) *Representation {
	t.Helper()
	_, dir := buildOnce(t)
	r, err := Open(dir, budget, iosim.Model2002())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func sortedCopy(xs []webgraph.PageID) []webgraph.PageID {
	out := append([]webgraph.PageID(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestRoundTripAllAdjacencyLists(t *testing.T) {
	c, _ := buildOnce(t)
	r := openRep(t, 32<<20)
	var buf []webgraph.PageID
	for p := int32(0); int(p) < c.Graph.NumPages(); p++ {
		var err error
		buf, err = r.Out(p, buf[:0])
		if err != nil {
			t.Fatalf("Out(%d): %v", p, err)
		}
		got := sortedCopy(buf)
		want := c.Graph.Out(p)
		if len(got) != len(want) {
			t.Fatalf("page %d: %d targets, want %d", p, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("page %d target %d: got %d, want %d", p, i, got[i], want[i])
			}
		}
	}
}

func TestRoundTripUnderTinyCache(t *testing.T) {
	// A 64 KB budget forces constant eviction; results must not change.
	c, _ := buildOnce(t)
	r := openRep(t, 64<<10)
	var buf []webgraph.PageID
	for p := int32(0); int(p) < c.Graph.NumPages(); p += 37 {
		var err error
		buf, err = r.Out(p, buf[:0])
		if err != nil {
			t.Fatalf("Out(%d): %v", p, err)
		}
		got := sortedCopy(buf)
		want := c.Graph.Out(p)
		if len(got) != len(want) {
			t.Fatalf("page %d under tiny cache: %d targets, want %d", p, len(got), len(want))
		}
	}
	if r.StatsExt().Cache.Evictions == 0 {
		t.Fatal("tiny cache never evicted; test is not exercising replacement")
	}
}

func TestBuildStatsSanity(t *testing.T) {
	_, _ = buildOnce(t)
	st := testStats
	if st.Supernodes < 10 {
		t.Fatalf("only %d supernodes", st.Supernodes)
	}
	if st.Superedges == 0 || st.PositiveSuperedges+st.NegativeSuperedges != st.Superedges {
		t.Fatalf("superedge counts inconsistent: %+v", st)
	}
	if st.IndexFileBytes == 0 || st.SupernodeGraphBytes == 0 {
		t.Fatalf("zero sizes: %+v", st)
	}
	if st.SizeBytes() <= st.IndexFileBytes {
		t.Fatal("SizeBytes must include in-memory structures")
	}
}

func TestCompressionBeatsRawPointers(t *testing.T) {
	c, _ := buildOnce(t)
	r := openRep(t, 32<<20)
	bpe := store.BitsPerEdge(r, c.Graph.NumEdges())
	if bpe <= 0 || bpe >= 32 {
		t.Fatalf("bits/edge = %.2f, expected well under a 32-bit pointer", bpe)
	}
	t.Logf("snode bits/edge = %.2f", bpe)
}

func TestDomainIndex(t *testing.T) {
	c, _ := buildOnce(t)
	r := openRep(t, 32<<20)
	k := slices.Index(r.m.Domains, "stanford.edu")
	if k < 0 || r.m.DomFirstSN[k+1] <= r.m.DomFirstSN[k] {
		t.Fatalf("stanford.edu is not in the domain index %v, or owns no supernode", r.m.Domains)
	}
	lo, hi := r.m.DomFirstSN[k], r.m.DomFirstSN[k+1]
	// Every page in those supernodes must be a stanford page, and all
	// stanford pages must fall in the range.
	count := 0
	for s := lo; s < hi; s++ {
		for ip := r.m.SnBase[s]; ip < r.m.SnBase[s+1]; ip++ {
			ext := r.m.Inv[ip]
			if c.Pages[ext].Domain != "stanford.edu" {
				t.Fatalf("page %d in stanford supernodes has domain %s", ext, c.Pages[ext].Domain)
			}
			count++
		}
	}
	want := 0
	for _, pm := range c.Pages {
		if pm.Domain == "stanford.edu" {
			want++
		}
	}
	if count != want {
		t.Fatalf("domain index covers %d pages, want %d", count, want)
	}
	if slices.Contains(r.m.Domains, "no-such-domain.example") {
		t.Fatal("nonexistent domain found")
	}
}

func TestOutFilteredByDomain(t *testing.T) {
	c, _ := buildOnce(t)
	r := openRep(t, 32<<20)
	f := filterOf(c, []string{"mit.edu"})
	var buf []webgraph.PageID
	checked := 0
	for p := int32(0); int(p) < c.Graph.NumPages() && checked < 500; p += 11 {
		var err error
		buf, err = r.OutFiltered(p, f, buf[:0])
		if err != nil {
			t.Fatalf("OutFiltered(%d): %v", p, err)
		}
		var want []webgraph.PageID
		for _, q := range c.Graph.Out(p) {
			if c.Pages[q].Domain == "mit.edu" {
				want = append(want, q)
			}
		}
		got := sortedCopy(buf)
		if len(got) != len(want) {
			t.Fatalf("page %d filtered: got %v, want %v", p, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("page %d filtered mismatch at %d", p, i)
			}
		}
		checked++
	}
}

func TestOutFilteredByPageSet(t *testing.T) {
	c, _ := buildOnce(t)
	r := openRep(t, 32<<20)
	// Pick target pages that actually appear in some adjacency list.
	targets := map[webgraph.PageID]bool{}
	var list []webgraph.PageID
	for p := int32(0); int(p) < c.Graph.NumPages() && len(targets) < 5; p++ {
		for _, q := range c.Graph.Out(p) {
			if len(targets) < 5 && !targets[q] {
				targets[q] = true
				list = append(list, q)
			}
		}
	}
	f := filterOf(c, nil, list...)
	var buf []webgraph.PageID
	for p := int32(0); int(p) < c.Graph.NumPages(); p += 23 {
		var err error
		buf, err = r.OutFiltered(p, f, buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		var want []webgraph.PageID
		for _, q := range c.Graph.Out(p) {
			if targets[q] {
				want = append(want, q)
			}
		}
		got := sortedCopy(buf)
		if len(got) != len(want) {
			t.Fatalf("page %d: got %d, want %d", p, len(got), len(want))
		}
	}
}

func TestFilteredAccessLoadsFewerGraphs(t *testing.T) {
	c, _ := buildOnce(t)
	// Fresh rep so cache state is controlled.
	r := openRep(t, 256<<20)
	// Source pages: stanford pages with external links.
	var sources []webgraph.PageID
	for p := int32(0); int(p) < c.Graph.NumPages(); p++ {
		if c.Pages[p].Domain == "stanford.edu" {
			sources = append(sources, p)
		}
	}
	if len(sources) == 0 {
		t.Skip("no stanford pages")
	}
	var buf []webgraph.PageID
	f := filterOf(c, []string{"mit.edu"})
	r.ResetCache(256 << 20)
	for _, p := range sources {
		buf, _ = r.OutFiltered(p, f, buf[:0])
	}
	filteredLoads := r.StatsExt().Cache.Loads

	r.ResetCache(256 << 20)
	for _, p := range sources {
		buf, _ = r.Out(p, buf[:0])
	}
	fullLoads := r.StatsExt().Cache.Loads

	if filteredLoads >= fullLoads {
		t.Fatalf("filtered access loaded %d graphs, full access %d — no focused-access win",
			filteredLoads, fullLoads)
	}
	t.Logf("graphs loaded: filtered=%d full=%d", filteredLoads, fullLoads)
}

func TestNegativeSuperedgeChoiceUsed(t *testing.T) {
	// The 6k corpus contains dense directory cliques; at least verify
	// the mechanism: build a tiny corpus with a guaranteed dense block
	// and check a negative graph appears and decodes correctly.
	b := webgraph.NewBuilder(40)
	pages := make([]webgraph.PageMeta, 40)
	for i := 0; i < 20; i++ {
		pages[i] = webgraph.PageMeta{
			URL:    urlFor("a.com", i),
			Domain: "a.com",
		}
		pages[i+20] = webgraph.PageMeta{
			URL:    urlFor("b.com", i),
			Domain: "b.com",
		}
	}
	// a.com pages link to almost every b.com page (dense block).
	for i := 0; i < 20; i++ {
		for j := 20; j < 40; j++ {
			if (i+j)%17 != 0 { // drop a few so the complement is non-empty
				b.AddEdge(int32(i), int32(j))
			}
		}
	}
	c := &webgraph.Corpus{Graph: b.Build(), Pages: pages}
	dir := t.TempDir()
	cfg := DefaultConfig()
	st, err := Build(c, cfg, dir)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if st.NegativeSuperedges == 0 {
		t.Fatal("dense block did not produce a negative superedge graph")
	}
	r, err := Open(dir, 1<<20, iosim.Model2002())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var buf []webgraph.PageID
	for p := int32(0); p < 40; p++ {
		buf, err = r.Out(p, buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		got := sortedCopy(buf)
		want := c.Graph.Out(p)
		if len(got) != len(want) {
			t.Fatalf("page %d: %d targets, want %d", p, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("page %d mismatch", p)
			}
		}
	}
}

func TestDisableNegativeAblation(t *testing.T) {
	b := webgraph.NewBuilder(30)
	pages := make([]webgraph.PageMeta, 30)
	for i := 0; i < 15; i++ {
		pages[i] = webgraph.PageMeta{URL: urlFor("a.com", i), Domain: "a.com"}
		pages[i+15] = webgraph.PageMeta{URL: urlFor("b.com", i), Domain: "b.com"}
	}
	for i := 0; i < 15; i++ {
		for j := 15; j < 30; j++ {
			b.AddEdge(int32(i), int32(j))
		}
	}
	c := &webgraph.Corpus{Graph: b.Build(), Pages: pages}
	cfg := DefaultConfig()
	cfg.DisableNegative = true
	st, err := Build(c, cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if st.NegativeSuperedges != 0 {
		t.Fatal("DisableNegative still produced negative graphs")
	}
}

func TestMultipleIndexFiles(t *testing.T) {
	_, dir := buildOnce(t)
	matches, err := filepath.Glob(filepath.Join(dir, "graphs.*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) < 2 {
		t.Fatalf("expected multiple index files under 64 KB cap, got %d", len(matches))
	}
}

func TestMetaRoundTrip(t *testing.T) {
	_, dir := buildOnce(t)
	m1, err := readMeta(filepath.Join(dir, "meta.bin"))
	if err != nil {
		t.Fatal(err)
	}
	// Re-serialize and re-read; must be identical field-by-field.
	tmp := filepath.Join(t.TempDir(), "meta.bin")
	if err := writeMeta(tmp, m1); err != nil {
		t.Fatal(err)
	}
	m2, err := readMeta(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if m1.NumPages != m2.NumPages || m1.NumEdges != m2.NumEdges {
		t.Fatal("scalar mismatch")
	}
	if len(m1.Perm) != len(m2.Perm) || len(m1.Directory) != len(m2.Directory) {
		t.Fatal("length mismatch")
	}
	for i := range m1.Directory {
		if m1.Directory[i] != m2.Directory[i] {
			t.Fatalf("directory entry %d differs", i)
		}
	}
	for i := range m1.Perm {
		if m1.Perm[i] != m2.Perm[i] || m1.Inv[i] != m2.Inv[i] {
			t.Fatalf("perm entry %d differs", i)
		}
	}
	if !reflect.DeepEqual(m1.Stats, m2.Stats) {
		t.Fatal("stats differ")
	}
}

func TestOpenMissingDir(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope"), 1<<20, iosim.Model2002()); err == nil {
		t.Fatal("opening a missing representation succeeded")
	}
}

func TestOutOfRangePage(t *testing.T) {
	r := openRep(t, 1<<20)
	if _, err := r.Out(-1, nil); err == nil {
		t.Fatal("negative page accepted")
	}
	if _, err := r.Out(webgraph.PageID(r.NumPages()), nil); err == nil {
		t.Fatal("past-end page accepted")
	}
}

func TestPageRenumberingContiguity(t *testing.T) {
	c, _ := buildOnce(t)
	r := openRep(t, 1<<20)
	m := r.m
	// Within each supernode, internal order must follow URL order.
	for s := 0; s+1 < len(m.SnBase); s++ {
		var prevURL string
		var prevDomain string
		for ip := m.SnBase[s]; ip < m.SnBase[s+1]; ip++ {
			pm := c.Pages[m.Inv[ip]]
			if ip > m.SnBase[s] {
				if pm.Domain != prevDomain {
					t.Fatalf("supernode %d mixes domains", s)
				}
				if pm.URL <= prevURL {
					t.Fatalf("supernode %d URLs out of order", s)
				}
			}
			prevURL, prevDomain = pm.URL, pm.Domain
		}
	}
	// Perm and Inv are mutually inverse.
	for ext := int32(0); int(ext) < len(m.Perm); ext++ {
		if m.Inv[m.Perm[ext]] != ext {
			t.Fatalf("perm/inv mismatch at %d", ext)
		}
	}
}

func urlFor(domain string, i int) string {
	return "http://www." + domain + "/p" + string(rune('a'+i/10)) + string(rune('a'+i%10)) + ".html"
}

func BenchmarkOutRandom(b *testing.B) {
	c, _ := buildOnce(b)
	r := openRep(b, 64<<20)
	var buf []webgraph.PageID
	n := int32(c.Graph.NumPages())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := int32(i*2654435761) % n
		if p < 0 {
			p += n
		}
		var err error
		buf, err = r.Out(p, buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

func TestVerify(t *testing.T) {
	r := openRep(t, 8<<20)
	if err := r.Verify(); err != nil {
		t.Fatalf("Verify on a good representation: %v", err)
	}
}

func TestVerifyDetectsEdgeCountMismatch(t *testing.T) {
	_, dir := buildOnce(t)
	m, err := readMeta(filepath.Join(dir, "meta.bin"))
	if err != nil {
		t.Fatal(err)
	}
	m.NumEdges++
	tmp := t.TempDir()
	if err := writeMeta(filepath.Join(tmp, "meta.bin"), m); err != nil {
		t.Fatal(err)
	}
	// Link the index files alongside the doctored meta.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() == "meta.bin" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(tmp, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r, err := Open(tmp, 8<<20, iosim.Model2002())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Verify(); err == nil {
		t.Fatal("edge-count mismatch not detected")
	}
}

// TestVerifyDecodeFaultLeavesNoFlight fails the decode of a graph in the
// middle of a supernode's span: Verify, and a Scan with a visitor, return
// that error, every decode the span had claimed is completed (none left
// in flight), and once the fault is cleared the same representation
// verifies.
func TestVerifyDecodeFaultLeavesNoFlight(t *testing.T) {
	c, _ := buildOnce(t)
	page, need := widestPage(t, c, openRep(t, 1<<20))
	victim := need[len(need)/2]
	fault := errors.New("injected decode fault")
	var visited int
	for name, read := range map[string]func(*Representation) error{
		"Verify": (*Representation).Verify,
		"Scan": func(r *Representation) error {
			return r.Scan(context.Background(), func(webgraph.PageID, []webgraph.PageID) error {
				visited++
				return nil
			})
		},
	} {
		r := openRep(t, 1<<20)
		r.decodeFault = func(gid GraphID) error {
			if gid == victim {
				return fault
			}
			return nil
		}
		if err := read(r); !errors.Is(err, fault) {
			t.Fatalf("%s with graph %d (of page %d's supernode) failing to decode: %v, want the injected fault", name, victim, page, err)
		}
		if n := r.InflightDecodes(); n != 0 {
			t.Fatalf("%d decodes left in flight after the failed %s", n, name)
		}
		r.decodeFault = nil
		if err := r.Verify(); err != nil {
			t.Fatalf("Verify after the fault was cleared: %v", err)
		}
	}
	if visited >= c.Graph.NumPages() {
		t.Fatalf("the failed Scan visited %d pages, every page", visited)
	}
}

// dirHashes returns the sha256 of every artifact in a build directory.
func dirHashes(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = fmt.Sprintf("%x", sha256.Sum256(data))
	}
	return out
}

func TestBuildDeterministic(t *testing.T) {
	// Two builds of the same corpus and config must produce
	// byte-identical artifacts — every index and graph file AND
	// meta.bin (BuildTime is serialized as zero precisely so the whole
	// directory is a pure function of corpus + config). The parallel
	// encode stage must not leak scheduling order into the layout.
	for _, seed := range []uint64{1, 7} {
		cfg := synth.DefaultConfig(3000)
		cfg.Seed = seed
		crawl, err := synth.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dirA, dirB := t.TempDir(), t.TempDir()
		if _, err := Build(crawl.Corpus, DefaultConfig(), dirA); err != nil {
			t.Fatal(err)
		}
		if _, err := Build(crawl.Corpus, DefaultConfig(), dirB); err != nil {
			t.Fatal(err)
		}
		ha, hb := dirHashes(t, dirA), dirHashes(t, dirB)
		if len(ha) != len(hb) {
			t.Fatalf("seed %d: builds produced %d vs %d files", seed, len(ha), len(hb))
		}
		for name, h := range ha {
			if hb[name] == "" {
				t.Fatalf("seed %d: %s missing from second build", seed, name)
			}
			if hb[name] != h {
				t.Fatalf("seed %d: %s differs between builds (sha256 %s vs %s)",
					seed, name, h, hb[name])
			}
		}
	}
}

func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	// The streaming parallel build must be a pure function of corpus +
	// config: every BuildWorkers/GOMAXPROCS combination (the reorder
	// window follows the pool width; internal/workpool's ordered tests
	// hold the window itself, down to 1, to in-order delivery)
	// yields byte-identical meta.bin and index files. GOMAXPROCS also
	// moves the default pool width, so restoring it covers the
	// unconfigured path.
	cfg := synth.DefaultConfig(3000)
	crawl, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refDir := t.TempDir()
	refCfg := DefaultConfig()
	refCfg.BuildWorkers = 1
	if _, err := Build(crawl.Corpus, refCfg, refDir); err != nil {
		t.Fatal(err)
	}
	ref := dirHashes(t, refDir)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, tc := range []struct {
		gomaxprocs, workers int
	}{
		{1, 2},
		{2, 2},
		{8, 8},
		{8, 0}, // default workers (GOMAXPROCS=8)
	} {
		runtime.GOMAXPROCS(tc.gomaxprocs)
		dir := t.TempDir()
		bcfg := DefaultConfig()
		bcfg.BuildWorkers = tc.workers
		if _, err := Build(crawl.Corpus, bcfg, dir); err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		got := dirHashes(t, dir)
		if len(got) != len(ref) {
			t.Fatalf("%+v: %d files, workers=1 build produced %d", tc, len(got), len(ref))
		}
		for name, h := range ref {
			if got[name] != h {
				t.Fatalf("%+v: %s differs from workers=1 build (sha256 %s vs %s)",
					tc, name, got[name], h)
			}
		}
	}
}

func TestBuildEncodeErrorNoDeadlock(t *testing.T) {
	// Regression for the pre-streaming encode pipeline: when every
	// worker exited on an encode error, the producer blocked forever on
	// an unbuffered jobs channel. Injecting a failure on every supernode
	// must now surface the error promptly.
	crawl, err := synth.Generate(synth.DefaultConfig(2000))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected encode failure")
	encodeFailHook = func(s int32) error { return boom }
	defer func() { encodeFailHook = nil }()
	done := make(chan error, 1)
	go func() {
		cfg := DefaultConfig()
		cfg.BuildWorkers = 4
		_, err := Build(crawl.Corpus, cfg, t.TempDir())
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("error %v, want injected failure", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("build deadlocked on universal encode failure")
	}
}

func TestBuildCtxCancelled(t *testing.T) {
	crawl, err := synth.Generate(synth.DefaultConfig(2000))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildCtx(ctx, crawl.Corpus, DefaultConfig(), t.TempDir()); !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
}

func TestBuildMetricsProgress(t *testing.T) {
	crawl, err := synth.Generate(synth.DefaultConfig(2000))
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	cfg := DefaultConfig()
	cfg.Metrics = reg
	st, err := Build(crawl.Corpus, cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("build_supernodes_encoded").Value(); got != int64(st.Supernodes) {
		t.Fatalf("build_supernodes_encoded = %d, want %d", got, st.Supernodes)
	}
	if got := reg.Counter("build_superedges").Value(); got != st.Superedges {
		t.Fatalf("build_superedges = %d, want %d", got, st.Superedges)
	}
	if got := reg.Counter("build_elements_split").Value(); got != int64(st.URLSplits+st.ClusteredSplits) {
		t.Fatalf("build_elements_split = %d, want %d", got, st.URLSplits+st.ClusteredSplits)
	}
}
