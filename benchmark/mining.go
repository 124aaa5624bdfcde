package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"snode/internal/metrics"
	"snode/internal/query"
	"snode/internal/repo"
	"snode/internal/router"
	"snode/internal/serve"
	"snode/internal/shard"
	"snode/internal/snode"
	"snode/internal/store"
	"snode/internal/synth"
	"snode/internal/webgraph"
)

// miningShards is K of the routed tier.
const miningShards = 2

// tier is a router over miningShards shard servers, all in process.
type tier struct {
	shards    []*shard.ServingShard
	reps      []*snode.Representation // every shard's fwd and rev base store
	servers   []*serve.Server
	listeners []*listener // shard servers, by shard
	router    *router.Router
	front     *listener
}

// openTier opens the shards under root and starts their servers and
// the router. With a recorder every boundary the benchmark wraps
// records spans: router.handler, the legs' serve.handler, store.out.
func openTier(root string, m *shard.Manifest, rec *recorder, reg *metrics.Registry) (*tier, error) {
	t := &tier{}
	var replicas [][]string
	for s := 0; s < m.NumShards; s++ {
		sh, err := shard.OpenServing(root, s, miningCacheBytes, diskModel())
		if err != nil {
			t.close()
			return nil, fmt.Errorf("shard.OpenServing %d: %w", s, err)
		}
		t.shards = append(t.shards, sh)
		t.reps = append(t.reps,
			sh.NavRepo.Fwd[repo.SchemeSNode].(*snode.Representation),
			sh.NavRepo.Rev[repo.SchemeSNode].(*snode.Representation))
		if rec != nil {
			wrapStores(sh.Repo.Fwd)
			wrapStores(sh.Repo.Rev)
			wrapStores(sh.NavRepo.Fwd)
			wrapStores(sh.NavRepo.Rev)
		}
		eng, err := query.New(sh.Repo, repo.SchemeSNode)
		if err != nil {
			t.close()
			return nil, err
		}
		eng.SetOwner(sh.Owns)
		nav, err := query.New(sh.NavRepo, repo.SchemeSNode)
		if err != nil {
			t.close()
			return nil, err
		}
		srv, err := serve.New(serve.Config{
			Engine:        eng,
			NavEngine:     nav,
			Shard:         &serve.ShardInfo{ID: s, Count: m.NumShards, Version: m.Version},
			MaxConcurrent: serveMaxConcurrent,
			MaxQueue:      serveMaxQueue,
		})
		if err != nil {
			t.close()
			return nil, err
		}
		l, err := listen(rec.traceHandler(spanServe, srv.Handler()))
		if err != nil {
			t.close()
			return nil, err
		}
		t.servers = append(t.servers, srv)
		t.listeners = append(t.listeners, l)
		replicas = append(replicas, []string{l.url})
	}
	bs, err := shard.LoadFwdBoundaries(root, m)
	if err != nil {
		t.close()
		return nil, err
	}
	var legs http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 16, IdleConnTimeout: time.Minute}
	if rec != nil {
		legs = legTransport{next: legs}
	}
	t.router, err = router.New(router.Config{
		Manifest:      m,
		Boundaries:    bs,
		Replicas:      replicas,
		Client:        &http.Client{Transport: legs},
		ProbeInterval: -1,
		Registry:      reg,
	})
	if err != nil {
		t.close()
		return nil, err
	}
	if t.front, err = listen(rec.traceHandler(spanRouter, t.router.Handler())); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func (t *tier) close() {
	if t.front != nil {
		t.front.close()
	}
	if t.router != nil {
		t.router.Close()
	}
	for _, l := range t.listeners {
		l.close()
	}
	for _, sh := range t.shards {
		sh.Close()
	}
}

func (t *tier) counters() counterSource {
	src := counterSource{reps: t.reps}
	for _, r := range t.reps {
		src.tops = append(src.tops, r)
	}
	return src
}

func (t *tier) admission() (offered, shed int64) {
	for _, s := range t.servers {
		o, sh := admissionTotals(s.Admission())
		offered, shed = offered+o, shed+sh
	}
	return offered, shed
}

// miningStack is the built shard set and its running tier.
type miningStack struct {
	root      string
	manifest  *shard.Manifest
	tier      *tier
	buildWall time.Duration
}

func setupMining(crawl *synth.Crawl, root string) (*miningStack, error) {
	start := time.Now()
	m, err := shard.Build(crawl, miningShards, root, snode.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("shard.Build: %w", err)
	}
	st := &miningStack{root: root, manifest: m, buildWall: time.Since(start)}
	if st.tier, err = openTier(root, m, nil, nil); err != nil {
		os.RemoveAll(root)
		return nil, err
	}
	return st, nil
}

func (s *miningStack) close() {
	s.tier.close()
	os.RemoveAll(s.root)
}

// checkQuery is the routed /query operation: the rows must be the rows
// a single-node Engine.Run gave in set-up.
func checkQuery(want [][]query.Row, q int) op {
	return func(c *client) (opStat, error) {
		status, body, err := c.get("/query?q=" + strconv.Itoa(q))
		if err != nil {
			return opStat{}, err
		}
		if status != http.StatusOK {
			return opStat{}, fmt.Errorf("/query?q=%d: status %d", q, status)
		}
		var resp serve.QueryResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return opStat{}, fmt.Errorf("/query?q=%d: %w", q, err)
		}
		if resp.Query != q || len(resp.Rows) != len(want[q]) {
			return opStat{}, fmt.Errorf("/query?q=%d: %d rows, single-node oracle has %d", q, len(resp.Rows), len(want[q]))
		}
		for i, row := range resp.Rows {
			if row != want[q][i] {
				return opStat{}, fmt.Errorf("/query?q=%d: row %d is %v, single-node oracle has %v", q, i, row, want[q][i])
			}
		}
		return opStat{bytes: len(body), rows: len(resp.Rows)}, nil
	}
}

// queryStream returns, per client, Q1..Q6 in turn; the clients start
// half a cycle apart so they do not run the same query in step.
func queryStream(want [][]query.Row, clients int) func(i int) func() op {
	return func(i int) func() op {
		k := i * 6 / clients
		return func() op {
			q := k%6 + 1
			k++
			return checkQuery(want, q)
		}
	}
}

// singleNodeOracle builds the single-node repository the routed rows
// are checked against and runs Q1-Q6 on it, cold, one at a time.
func singleNodeOracle(crawl *synth.Crawl, dir string, schemes ...string) (*repo.Repository, [][]query.Row, []query.NavStats, error) {
	r, _, err := buildRepo(crawl, dir, miningCacheBytes, schemes...)
	if err != nil {
		return nil, nil, nil, err
	}
	rows, navs, err := runQueriesCold(r, repo.SchemeSNode)
	if err != nil {
		r.Close()
		return nil, nil, nil, err
	}
	return r, rows, navs, nil
}

// runQueriesCold runs Q1-Q6 on one scheme of r, each from an empty
// buffer of miningCacheBytes, as Figure 11 does. Index 0 is unused.
func runQueriesCold(r *repo.Repository, scheme string) ([][]query.Row, []query.NavStats, error) {
	eng, err := query.New(r, scheme)
	if err != nil {
		return nil, nil, err
	}
	rows := make([][]query.Row, query.Q6+1)
	navs := make([]query.NavStats, query.Q6+1)
	for _, q := range query.All() {
		for _, s := range []store.LinkStore{r.Fwd[scheme], r.Rev[scheme]} {
			if cr, ok := s.(store.CacheResetter); ok {
				cr.ResetCache(miningCacheBytes)
			}
		}
		res, err := eng.Run(context.Background(), q)
		if err != nil {
			return nil, nil, fmt.Errorf("single-node Q%d on %s: %w", q, scheme, err)
		}
		rows[q], navs[q] = res.Rows, res.Nav
	}
	return rows, navs, nil
}

// runMiningRouted is the mining class through the router at K=2.
func runMiningRouted(p params) (*runResult, error) {
	res := newRunResult("mining_routed", p)
	res.Inputs.Loop = "closed"
	crawl, genS, err := loadCrawl(res, p.pages, p)
	if err != nil {
		return nil, err
	}
	g := crawl.Corpus.Graph
	clients := inFlight(p, miningShards)
	res.Inputs.Clients = clients

	// The oracle is the benchmark's, not the system's: it is built once,
	// outside the timed set-ups. The traced pass also builds Link3 in it
	// for the Figure 11 baseline.
	var baseline []string
	if p.trace {
		baseline = []string{repo.SchemeLink3}
	}
	oracleDir := filepath.Join(p.workDir, "mining-oracle")
	oracle, want, snodeNav, err := singleNodeOracle(crawl, oracleDir, baseline...)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(oracleDir)
	defer oracle.Close()

	st, setupS, err := repeatSetup(p.setups, func(i int) (*miningStack, error) {
		return setupMining(crawl, filepath.Join(p.workDir, fmt.Sprintf("mining-%d", i)))
	})
	if err != nil {
		return nil, err
	}
	defer st.close()

	warmStart := time.Now()
	runClosed(st.tier.front.url, nil, clients, p.warmup, queryStream(want, clients))
	res.EndToEnd["setup_s"] = genS + setupS + time.Since(warmStart).Seconds()
	var bytesStored int64
	for _, sh := range st.tier.shards {
		bytesStored += sh.Repo.Fwd[repo.SchemeSNode].(store.Sized).SizeBytes()
	}
	res.EndToEnd["bits_per_edge"] = float64(bytesStored*8) / float64(g.NumEdges())

	if !p.trace {
		mon := startWindow(st.tier.counters())
		t := runClosed(st.tier.front.url, nil, clients, p.window, queryStream(want, clients))
		fillServing(res, t, p.window, mon.finish())
		return res, nil
	}

	if err := miningLayers(res, p, st, oracle, snodeNav, g); err != nil {
		return nil, err
	}
	ref := runClosed(st.tier.front.url, nil, clients, p.window/3, queryStream(want, clients))
	res.count(ref)
	refOps := float64(ref.ok()) / (p.window / 3).Seconds()

	rec := newRecorder()
	reg := metrics.NewRegistry()
	traced, err := openTier(st.root, st.manifest, rec, reg)
	if err != nil {
		return nil, err
	}
	defer traced.close()
	for _, r := range traced.reps {
		r.RegisterMetrics(reg, "snode")
	}
	runClosed(traced.front.url, rec, clients, p.warmup, queryStream(want, clients))
	rec.reset()
	before := reg.Snapshot()
	offered0, shed0 := traced.admission()
	mon := startWindow(traced.counters())
	t := runClosed(traced.front.url, rec, clients, p.window, queryStream(want, clients))
	ctrs := mon.finish().ctrs
	after := reg.Snapshot()
	offered1, shed1 := traced.admission()
	res.count(t)
	fillCounters(res, t, ctrs)
	L := res.PerLayer
	if h, ok := histDelta(before, after, "snode_decode_seconds"); ok {
		L["snode.decode_busy_ms"] = float64(h.Sum) / 1e6
	}
	fillAdmission(L, before, after, offered1-offered0, shed1-shed0)
	L["router.failovers"] = float64(after.Counters["router_failovers"] - before.Counters["router_failovers"])
	L["router.fanout_errors"] = float64(after.Counters["router_fanout_errors"] - before.Counters["router_fanout_errors"])
	if refOps > 0 {
		L["bench.trace_overhead_ratio"] = float64(t.ok()) / p.window.Seconds() / refOps
	}
	return res, fillSpans(res, p, rec, t)
}

// miningLayers makes the direct timed calls of the layers only the
// routed mining workload exercises: the query plans (full and
// partial), the shard stores, the router's /out path, and the Link3
// baseline of Figure 11.
func miningLayers(res *runResult, p params, st *miningStack, oracle *repo.Repository, snodeNav []query.NavStats, g *webgraph.Graph) error {
	L := res.PerLayer
	var snodeTotal, link3Total time.Duration
	for _, q := range query.All() {
		L[fmt.Sprintf("query.run_cpu_ms.q%d", q)] = snodeNav[q].CPU.Seconds() * 1e3
		L[fmt.Sprintf("query.run_io_ms.q%d", q)] = snodeNav[q].IO.Seconds() * 1e3
		snodeTotal += snodeNav[q].Total()
	}
	_, link3Nav, err := runQueriesCold(oracle, repo.SchemeLink3)
	if err != nil {
		return err
	}
	for _, q := range query.All() {
		link3Total += link3Nav[q].Total()
	}
	L["link3.nav_ms_total"] = link3Total.Seconds() * 1e3
	if link3Total > 0 {
		L["snode.vs_link3_nav_ratio"] = snodeTotal.Seconds() / link3Total.Seconds()
	}

	// Partial plans against full plans on the same single-node stores,
	// owner = all: what the second copy of the six plans costs.
	eng, err := query.New(oracle, repo.SchemeSNode)
	if err != nil {
		return err
	}
	eng = eng.Shared()
	ctx := context.Background()
	var full, partial time.Duration
	for round := 0; round < microRounds; round++ {
		for _, q := range query.All() {
			start := time.Now()
			if _, err := eng.Run(ctx, q); err != nil {
				return err
			}
			full += time.Since(start)
			start = time.Now()
			pr, err := eng.RunPartial(ctx, q)
			if err != nil {
				return err
			}
			query.MergePartials(q, [][]query.PartialRow{pr.Rows})
			partial += time.Since(start)
		}
	}
	if full > 0 {
		L["query.partial_over_full_ratio"] = partial.Seconds() / full.Seconds()
	}

	L["shard.build_s"] = st.buildWall.Seconds()
	var intra, total int64
	for _, e := range st.manifest.Shards {
		intra += e.IntraEdges
		total += e.IntraEdges + e.BoundaryFwdEdges
	}
	if total > 0 {
		L["shard.intra_edge_ratio"] = float64(intra) / float64(total)
	}

	// Hot pages, each asked of the store that owns it.
	const calls = 2000
	ps := newPageStream(p.seed, "micro/routed-out", g.NumPages(), true)
	pages := make([]webgraph.PageID, calls)
	for i := range pages {
		pages[i] = ps.next()
	}
	bs, err := shard.LoadFwdBoundaries(st.root, st.manifest)
	if err != nil {
		return err
	}
	var buf []webgraph.PageID
	ns, err := timeRounds(func() (int, error) {
		for _, pg := range pages {
			sink += len(bs[st.manifest.ShardOf(pg)].Out(pg))
		}
		return calls, nil
	})
	if err != nil {
		return err
	}
	L["shard.boundary_out_ns"] = ns
	if ns, err = timeRounds(func() (int, error) {
		for _, pg := range pages {
			sh := st.tier.shards[st.manifest.ShardOf(pg)]
			var err error
			if buf, err = sh.Repo.Fwd[repo.SchemeSNode].Out(pg, buf[:0]); err != nil {
				return 0, err
			}
		}
		return calls, nil
	}); err != nil {
		return fmt.Errorf("MergedStore.Out: %w", err)
	}
	L["shard.merged_out_us"] = ns / 1e3

	// The same pages over HTTP: through the router, then straight to
	// the owning shard (which answers with its intra-shard edges only,
	// so the direct leg is checked for shape, the routed one against the
	// CSR row).
	front := newClient(st.tier.front.url, nil)
	defer front.close()
	direct := make([]*client, len(st.tier.listeners))
	for i, l := range st.tier.listeners {
		direct[i] = newClient(l.url, nil)
		defer direct[i].close()
	}
	scratch := new([]webgraph.PageID)
	var routedUs, directUs []float64
	for _, pg := range pages {
		start := time.Now()
		_, err := checkOut(g, scratch, pg)(front)
		routedUs = append(routedUs, float64(time.Since(start))/1e3)
		res.check(err)
		start = time.Now()
		_, err = checkOut(nil, scratch, pg)(direct[st.manifest.ShardOf(pg)])
		directUs = append(directUs, float64(time.Since(start))/1e3)
		res.check(err)
	}
	L["router.out_overhead_us"] = median(routedUs) - median(directUs)
	return nil
}
