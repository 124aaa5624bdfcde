package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"snode/internal/admission"
	"snode/internal/metrics"
	"snode/internal/query"
	"snode/internal/repo"
	"snode/internal/serve"
	"snode/internal/snode"
	"snode/internal/store"
	"snode/internal/synth"
	"snode/internal/webgraph"
)

// Sizes shared by the serving workloads. Admission must never shed on
// them (a 429 is a failed operation): two closed-loop clients cannot
// queue.
const (
	serveMaxConcurrent = 8
	serveMaxQueue      = 4096
	hotCacheBytes      = 64 << 20  // the whole decoded 100k-page graph fits: 0 evictions
	coldCacheBytes     = 256 << 10 // ~3% hit ratio on uniform pages
	miningCacheBytes   = 1 << 20   // Figure 11's buffer budget at this scale, per store
)

// buildRepo builds the single-node repository (S-Node fwd + rev, text
// index, PageRank) in dir and reports the wall time of doing it.
func buildRepo(crawl *synth.Crawl, dir string, budget int64, schemes ...string) (*repo.Repository, time.Duration, error) {
	opt := repo.DefaultOptions(dir)
	opt.Schemes = append([]string{repo.SchemeSNode}, schemes...)
	opt.CacheBudget = budget
	opt.Model = diskModel()
	opt.Layout = crawl.Order
	start := time.Now()
	r, err := repo.Build(crawl.Corpus, opt)
	if err != nil {
		return nil, 0, fmt.Errorf("repo.Build: %w", err)
	}
	return r, time.Since(start), nil
}

// sharedRepo is a second view of r whose serving stores can be
// replaced (by tracedStores, by delta overlays) while every index is
// shared with r.
func sharedRepo(r *repo.Repository, fwd, rev store.LinkStore) *repo.Repository {
	return &repo.Repository{
		Corpus:   r.Corpus,
		Text:     r.Text,
		PageRank: r.PageRank,
		Domains:  r.Domains,
		Model:    r.Model,
		Fwd:      map[string]store.LinkStore{repo.SchemeSNode: fwd},
		Rev:      map[string]store.LinkStore{repo.SchemeSNode: rev},
	}
}

// serveRepo starts a serve.Server over r on a loopback listener. With a
// recorder, the stores are wrapped as store.out boundaries and the
// handler as serve.handler spans; with a registry, admission and
// latency metrics are kept.
func serveRepo(r *repo.Repository, rec *recorder, reg *metrics.Registry) (*listener, *serve.Server, error) {
	if rec != nil {
		r = sharedRepo(r, newTracedStore(r.Fwd[repo.SchemeSNode]), newTracedStore(r.Rev[repo.SchemeSNode]))
	}
	eng, err := query.New(r, repo.SchemeSNode)
	if err != nil {
		return nil, nil, err
	}
	srv, err := serve.New(serve.Config{
		Engine:        eng,
		MaxConcurrent: serveMaxConcurrent,
		MaxQueue:      serveMaxQueue,
		Registry:      reg,
	})
	if err != nil {
		return nil, nil, err
	}
	l, err := listen(rec.traceHandler(spanServe, srv.Handler()))
	if err != nil {
		return nil, nil, err
	}
	return l, srv, nil
}

// navStack is the single-node stack nav_hot and nav_cold drive.
type navStack struct {
	dir       string
	repo      *repo.Repository
	fwd, rev  *snode.Representation
	plain     *listener
	srv       *serve.Server
	buildWall time.Duration
	budget    int64 // graph cache of each store
}

func setupNav(crawl *synth.Crawl, dir string, budget int64, prewarm bool) (*navStack, error) {
	r, wall, err := buildRepo(crawl, dir, budget)
	if err != nil {
		return nil, err
	}
	st := &navStack{dir: dir, repo: r, buildWall: wall, budget: budget}
	st.fwd = r.Fwd[repo.SchemeSNode].(*snode.Representation)
	st.rev = r.Rev[repo.SchemeSNode].(*snode.Representation)
	if prewarm {
		// Verify loads every lower-level graph through the buffer
		// manager, which leaves the whole graph resident.
		if err := st.fwd.Verify(); err != nil {
			r.Close()
			return nil, fmt.Errorf("pre-warm: %w", err)
		}
	}
	if st.plain, st.srv, err = serveRepo(r, nil, nil); err != nil {
		r.Close()
		return nil, err
	}
	return st, nil
}

func (s *navStack) close() {
	s.plain.close()
	s.repo.Close()
	os.RemoveAll(s.dir)
}

func (s *navStack) counters() counterSource {
	return counterSource{
		tops: []store.LinkStore{s.fwd, s.rev},
		reps: []*snode.Representation{s.fwd, s.rev},
	}
}

// loadCrawl generates the run's crawl, records it in the result, and
// returns it with the seconds generation took.
func loadCrawl(res *runResult, pages int, p params) (*synth.Crawl, float64, error) {
	start := time.Now()
	crawl, err := genCrawl(pages)
	if err != nil {
		return nil, 0, err
	}
	genS := time.Since(start).Seconds()
	g := crawl.Corpus.Graph
	res.Inputs.Pages, res.Inputs.Edges, res.Inputs.CSRSha256 = g.NumPages(), g.NumEdges(), csrHash(g)
	return crawl, genS, nil
}

// outStream returns, per client, a stream of checked /out operations
// over pages drawn from the labelled stream.
func outStream(p params, g *webgraph.Graph, label string, skewed bool) func(i int) func() op {
	return func(i int) func() op {
		ps := newPageStream(p.seed, fmt.Sprintf("%s/client%d", label, i), g.NumPages(), skewed)
		scratch := new([]webgraph.PageID)
		return func() op { return checkOut(g, scratch, ps.next()) }
	}
}

// repeatSetup runs setup n times, closing all but the last stack, and
// returns the last with the median wall time, in seconds, of a set-up:
// one slow set-up does not move it.
func repeatSetup[T interface{ close() }](n int, setup func(i int) (T, error)) (st T, setupS float64, err error) {
	var walls []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			st.close()
		}
		start := time.Now()
		if st, err = setup(i); err != nil {
			return st, 0, fmt.Errorf("set-up %d: %w", i, err)
		}
		walls = append(walls, time.Since(start).Seconds())
	}
	return st, median(walls), nil
}

// admissionTotals sums a controller's classes.
func admissionTotals(c *admission.Controller) (offered, shed int64) {
	for _, st := range c.Stats() {
		offered += st.Offered
		shed += st.Shed
	}
	return offered, shed
}

// fillServing derives the end-to-end metrics of a serving window.
func fillServing(res *runResult, t *tally, window time.Duration, use windowUse) {
	res.count(t)
	ok := float64(t.ok())
	if ok == 0 {
		ok = 1 // every metric below then reads as a failure already counted
	}
	p99 := windowPercentile(t.samples, window, 0.99)
	res.EndToEnd["ops_per_s"] = windowRate(t.samples, window)
	res.EndToEnd["lat_p50_us"] = medianByClass(t.samples, window)
	res.EndToEnd["cpu_us_per_op"] = use.cpu.Seconds() * 1e6 / ok
	res.EndToEnd["peak_heap_mb"] = use.peakHeapMB
	res.Extras["lat_p99_us"] = p99.us
	res.Extras["modeled_io_ms_per_op"] = use.ctrs.modeledIO().Seconds() * 1e3 / ok
	res.Inputs.Samples = len(t.samples)
	res.Inputs.TailQuantile = p99.q
	res.Inputs.Sliced = p99.sliced
}

// fillCounters derives the per-layer counter ratios of a traced window.
func fillCounters(res *runResult, t *tally, ctrs counterSet) {
	ok := float64(t.ok())
	if ok == 0 {
		return
	}
	L := res.PerLayer
	lookups := float64(ctrs[cCacheHits] + ctrs[cCacheMisses])
	if lookups > 0 {
		L["snode.cache_hit_ratio"] = float64(ctrs[cCacheHits]) / lookups
	}
	L["snode.cache_lookups_per_op"] = lookups / ok
	L["snode.graphs_loaded_per_op"] = float64(ctrs[cGraphsLoaded]) / ok
	L["snode.evictions_per_op"] = float64(ctrs[cEvictions]) / ok
	L["snode.coalesced_per_op"] = float64(ctrs[cCoalesced]) / ok
	L["iosim.seeks_per_op"] = float64(ctrs[cSeeks]) / ok
	L["iosim.reads_per_op"] = float64(ctrs[cReads]) / ok
	L["iosim.bytes_read_per_op"] = float64(ctrs[cBytesRead]) / ok
	L["iosim.modeled_ms_per_op"] = ctrs.modeledIO().Seconds() * 1e3 / ok
	L["serve.response_bytes_per_op"] = float64(t.bodyBytes) / ok
}

// fillSpans derives the per-layer self times of a traced window.
func fillSpans(res *runResult, p params, rec *recorder, t *tally) error {
	spans := rec.snapshot()
	sum := summarize(spans)
	L := res.PerLayer
	L["bench.request_wall_p50_us"] = sum.wallP50Us
	L["bench.span_coverage"] = sum.coverage
	L["bench.spans_linked_ratio"] = sum.linked
	L["serve.http_loopback_us"] = sum.selfP50Us[spanClient]
	L["serve.self_us"] = sum.selfP50Us[spanServe]
	L["store.out_self_us"] = sum.selfP50Us[spanStore]
	L["router.self_ms"] = sum.selfP50Us[spanRouter] / 1e3
	L["router.legs_per_query"] = sum.legsPerReq
	var calls int64
	for _, s := range spans {
		calls += s.Calls
	}
	if sum.requests > 0 {
		L["store.out_calls_per_op"] = float64(calls) / float64(sum.requests)
	}
	var err error
	if sum.linked < 0.99 {
		err = fmt.Errorf("%.4f of the client.request spans have a serve.handler span beneath them, want >= 0.99: the span header is lost on the way", sum.linked)
	}
	res.check(err)
	if err := os.MkdirAll(p.outDir, 0o755); err != nil {
		return err
	}
	return writeTrace(filepath.Join(p.outDir, "trace-"+res.Workload+".json"), spans)
}

// histDelta reads a latency histogram's growth over a window.
func histDelta(before, after metrics.Snapshot, name string) (metrics.HistSnapshot, bool) {
	a, ok := after.Histograms[name]
	if !ok {
		return metrics.HistSnapshot{}, false
	}
	if b, ok := before.Histograms[name]; ok {
		if d, err := a.Sub(b); err == nil {
			return d, true
		}
	}
	return a, true
}

// fillAdmission derives what admission did over a traced window from
// the registry's growth and the controllers' offered and shed counts.
func fillAdmission(L map[string]float64, before, after metrics.Snapshot, offered, shed int64) {
	if h, ok := histDelta(before, after, "admission_nav_wait_seconds"); ok && h.Count > 0 {
		L["admission.wait_p99_us"] = float64(h.P99()) / 1e3
	}
	if offered > 0 {
		L["admission.shed_ratio"] = float64(shed) / float64(offered)
	}
}

func runNavHot(p params) (*runResult, error)  { return runNav("nav_hot", p, true) }
func runNavCold(p params) (*runResult, error) { return runNav("nav_cold", p, false) }

// runNav is nav_hot (Zipf pages, everything resident) and nav_cold
// (uniform pages, a cache forty times too small).
func runNav(name string, p params, hot bool) (*runResult, error) {
	res := newRunResult(name, p)
	// The cold cache keeps its share of the corpus at every -pages.
	budget := max(int64(coldCacheBytes)*int64(p.pages)/defaultPages, 4<<10)
	if hot {
		budget = hotCacheBytes
	}
	res.Inputs.Loop = "closed"
	crawl, genS, err := loadCrawl(res, p.pages, p)
	if err != nil {
		return nil, err
	}
	g := crawl.Corpus.Graph

	st, setupS, err := repeatSetup(p.setups, func(i int) (*navStack, error) {
		return setupNav(crawl, filepath.Join(p.workDir, fmt.Sprintf("%s-%d", name, i)), budget, hot)
	})
	if err != nil {
		return nil, err
	}
	defer st.close()

	warmStart := time.Now()
	runClosed(st.plain.url, nil, p.clients, p.warmup, outStream(p, g, "warmup", hot))
	res.EndToEnd["setup_s"] = genS + setupS + time.Since(warmStart).Seconds()
	res.EndToEnd["bits_per_edge"] = float64(st.repo.SNodeStats.SizeBytes()*8) / float64(g.NumEdges())
	res.PerLayer["repo.build_s"] = st.buildWall.Seconds()

	if !p.trace {
		mon := startWindow(st.counters())
		t := runClosed(st.plain.url, nil, p.clients, p.window, outStream(p, g, "window", hot))
		use := mon.finish()
		fillServing(res, t, p.window, use)
		checkNavContrast(res, hot, t, use.ctrs)
		return res, nil
	}

	// Traced pass: direct timed calls into the layers this workload
	// leans on, an untraced reference window, then the window again
	// through the benchmark's span boundaries.
	if err := navLayers(res, p, st, crawl, hot); err != nil {
		return nil, err
	}
	ref := runClosed(st.plain.url, nil, p.clients, p.window/3, outStream(p, g, "reference", hot))
	res.count(ref)
	refOps := float64(ref.ok()) / (p.window / 3).Seconds()
	if hot {
		if err := programTracerOverhead(res, p, st, g, refOps); err != nil {
			return nil, err
		}
	}

	rec := newRecorder()
	reg := metrics.NewRegistry()
	st.fwd.RegisterMetrics(reg, "snode_fwd")
	traced, tsrv, err := serveRepo(st.repo, rec, reg)
	if err != nil {
		return nil, err
	}
	defer traced.close()
	runClosed(traced.url, rec, p.clients, p.warmup/2, outStream(p, g, "traced-warmup", hot))
	rec.reset()
	before := reg.Snapshot()
	offered0, shed0 := admissionTotals(tsrv.Admission())
	mon := startWindow(st.counters())
	t := runClosed(traced.url, rec, p.clients, p.window, outStream(p, g, "window", hot))
	ctrs := mon.finish().ctrs
	after := reg.Snapshot()
	offered1, shed1 := admissionTotals(tsrv.Admission())
	res.count(t)
	fillCounters(res, t, ctrs)
	L := res.PerLayer
	if t.rows > 0 {
		L["snode.decoded_edges_per_returned_edge"] = float64(ctrs[cDecodedEdges]) / float64(t.rows)
	}
	if h, ok := histDelta(before, after, "snode_fwd_decode_seconds"); ok {
		L["snode.decode_busy_ms"] = float64(h.Sum) / 1e6
	}
	fillAdmission(L, before, after, offered1-offered0, shed1-shed0)
	if refOps > 0 {
		L["bench.trace_overhead_ratio"] = float64(t.ok()) / p.window.Seconds() / refOps
	}
	if err := fillSpans(res, p, rec, t); err != nil {
		return nil, err
	}
	checkNavContrast(res, hot, t, ctrs)
	return res, nil
}

// checkNavContrast holds the two navigation workloads to what makes
// them different: a nav_hot that decodes or a nav_cold that hits its
// cache no longer measures what its name says, and every number of the
// run would be read wrongly. The counters are read in both passes.
func checkNavContrast(res *runResult, hot bool, t *tally, ctrs counterSet) {
	lookups := float64(ctrs[cCacheHits] + ctrs[cCacheMisses])
	if lookups == 0 || t.ok() == 0 {
		res.check(fmt.Errorf("%s made no graph-cache lookups", res.Workload))
		return
	}
	hit := float64(ctrs[cCacheHits]) / lookups
	loaded := float64(ctrs[cGraphsLoaded]) / float64(t.ok())
	var err error
	switch {
	case hot && (hit < 0.99 || loaded >= 1 || ctrs[cEvictions] > 0):
		err = fmt.Errorf("nav_hot lost its contrast: hit ratio %.4f (want >= 0.99), %.2f graphs loaded per request (want < 1), %d evictions (want 0)", hit, loaded, ctrs[cEvictions])
	case !hot && (hit > 0.10 || loaded < 10):
		err = fmt.Errorf("nav_cold lost its contrast: hit ratio %.4f (want <= 0.10), %.2f graphs loaded per request (want >= 10)", hit, loaded)
	}
	res.check(err)
	res.Inputs.Notes = append(res.Inputs.Notes,
		fmt.Sprintf("contrast: graph-cache hit ratio %.4f, %.2f graphs loaded per request", hit, loaded))
}

// sortedCopy returns the ascending copy of a row.
func sortedCopy(row []webgraph.PageID) []webgraph.PageID {
	out := slices.Clone(row)
	slices.Sort(out)
	return out
}
