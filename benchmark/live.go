package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"snode/internal/delta"
	"snode/internal/metrics"
	"snode/internal/repo"
	"snode/internal/serve"
	"snode/internal/snode"
	"snode/internal/store"
	"snode/internal/synth"
	"snode/internal/webgraph"
)

// live_mix is reads beside writes beside background work. The reader
// is one closed-loop client; the writer and the fold-backs run on a
// schedule, so every run sees the same batches and the same cycles
// whatever the reader achieves.
//
// The reader is not the open loop ISSUE 13 asked for (Poisson 2000 GET
// /out a second, a goroutine and a connection per request, timed from
// due times): on this two-core host such a reader's median read took
// 450 us with no writer, no compactor and no fold-back at all, and the
// same at 500 a second, against 50 us for the same request in a closed
// loop. What it timed was a sleeping generator thread, a sleeping
// server thread and a sleeping client thread being woken one after the
// other by the host, and that spread by 17 to 69 % over ten runs of one
// commit. A closed-loop reader keeps the threads it uses awake and
// times the program. What a stall costs shows in ops_per_s, which
// counts the reads of the whole window (a reader stalled for a tenth of
// a second completes a thousand reads fewer), and in lat_p99_us.
//
// Seals and merges are the compactor's, by thresholds chosen once so
// that at the writer's rate each overlay seals about once a second and
// merges whenever it holds two segments. Fold-backs are scheduled by
// the benchmark, as an operator's timer would: the first liveFoldFirst
// into the window, the next every liveFoldEvery, the forward and the
// reverse overlay in turn, none that could not end inside the window
// (two in an 18 s window, one per overlay). Each rebuilds a 100k-page
// store on one build worker, which takes over two seconds of one core.
const (
	liveBatchRate    = 120.0 // Overlay.Apply batches per second, Poisson
	liveBatchSize    = 16    // mutations per batch: half removals of real edges, half adds
	liveSealEntries  = 1600  // seal a memtable holding this many mutations
	liveMaxSegments  = 1     // merge as soon as two segments exist
	liveCompactEvery = 50 * time.Millisecond
	liveFoldFirst    = 2 * time.Second
	liveFoldEvery    = 8 * time.Second
	liveFoldReserve  = 6 * time.Second // no fold-back starts later than this before the window ends
	liveFoldWorkers  = 1
	// memEntryBytes is delta's accounting cost of one memtable entry,
	// which is what SealBytes is compared with.
	memEntryBytes = 16
	// Pages checked against CSR + mutation log after the window.
	liveCheckFwd = 2000
	liveCheckRev = 200
)

// genBatch draws one batch over existing pages, as internal/bench's
// churn experiment does: links between existing pages only, so the
// text, rank and domain indexes stay valid.
func genBatch(g *webgraph.Graph, rng *rand.Rand, n int) []delta.Mutation {
	np := g.NumPages()
	muts := make([]delta.Mutation, 0, n)
	for len(muts) < n {
		src := webgraph.PageID(rng.Intn(np))
		if len(muts)%2 == 0 {
			out := g.Out(src)
			if len(out) == 0 {
				continue
			}
			muts = append(muts, delta.Mutation{Src: src, Dst: out[rng.Intn(len(out))], Op: delta.OpRemove})
		} else {
			muts = append(muts, delta.Mutation{Src: src, Dst: webgraph.PageID(rng.Intn(np)), Op: delta.OpAdd})
		}
	}
	return muts
}

func mirror(muts []delta.Mutation) []delta.Mutation {
	out := make([]delta.Mutation, len(muts))
	for i, m := range muts {
		out[i] = delta.Mutation{Src: m.Dst, Dst: m.Src, Op: m.Op}
	}
	return out
}

// mutationLog is the oracle's view of what the writer applied: per
// source page, the last operation on each target.
type mutationLog map[webgraph.PageID]map[webgraph.PageID]delta.Op

func (l mutationLog) apply(muts []delta.Mutation) {
	for _, m := range muts {
		row := l[m.Src]
		if row == nil {
			row = map[webgraph.PageID]delta.Op{}
			l[m.Src] = row
		}
		row[m.Dst] = m.Op
	}
}

// expect returns page p's row after the log: the base row with removed
// targets dropped and added ones merged in, ascending.
func (l mutationLog) expect(base []webgraph.PageID, p webgraph.PageID) []webgraph.PageID {
	ops := l[p]
	out := make([]webgraph.PageID, 0, len(base)+len(ops))
	for _, q := range base {
		if ops[q] != delta.OpRemove {
			out = append(out, q)
		}
	}
	for q, o := range ops {
		if o == delta.OpAdd {
			i := sort.Search(len(base), func(i int) bool { return base[i] >= q })
			if i == len(base) || base[i] != q {
				out = append(out, q)
			}
		}
	}
	slices.Sort(out)
	return out
}

// liveStack is a single-node stack whose serving stores are overlays
// with background compactors.
type liveStack struct {
	dir        string
	repo       *repo.Repository // the base build
	live       *repo.Repository // overlays in the serving path
	fwd, rev   *delta.Overlay
	compactors []*delta.Compactor
	plain      *listener
	srv        *serve.Server
	buildWall  time.Duration
}

func newOverlay(base store.LinkStore, pages []webgraph.PageMeta, dir string) (*delta.Overlay, error) {
	return delta.NewOverlay(base, delta.Config{Pages: pages, Dir: dir, Model: diskModel()})
}

func setupLive(crawl *synth.Crawl, dir string) (*liveStack, error) {
	r, wall, err := buildRepo(crawl, dir, hotCacheBytes)
	if err != nil {
		return nil, err
	}
	st := &liveStack{dir: dir, repo: r, buildWall: wall}
	if st.fwd, err = newOverlay(r.Fwd[repo.SchemeSNode], crawl.Corpus.Pages, filepath.Join(dir, "delta.fwd")); err != nil {
		st.close()
		return nil, err
	}
	if st.rev, err = newOverlay(r.Rev[repo.SchemeSNode], crawl.Corpus.Pages, filepath.Join(dir, "delta.rev")); err != nil {
		st.close()
		return nil, err
	}
	st.live = sharedRepo(r, st.fwd, st.rev)
	for _, o := range []*delta.Overlay{st.fwd, st.rev} {
		st.compactors = append(st.compactors, delta.StartCompactor(context.Background(), o, delta.CompactorConfig{
			Interval:    liveCompactEvery,
			SealBytes:   liveSealEntries * memEntryBytes,
			MaxSegments: liveMaxSegments,
		}))
	}
	if st.plain, st.srv, err = serveRepo(st.live, nil, nil); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// foldConfig is how a scheduled fold-back rebuilds a base store.
func foldConfig(dir string) delta.FoldConfig {
	cfg := delta.FoldConfig{SNode: snode.DefaultConfig(), Dir: dir, CacheBudget: hotCacheBytes, Model: diskModel()}
	cfg.SNode.BuildWorkers = liveFoldWorkers
	return cfg
}

// foldStarts is when the scheduled fold-backs of a window start.
func foldStarts(window time.Duration) []time.Duration {
	var starts []time.Duration
	for at := liveFoldFirst; at+liveFoldReserve <= window; at += liveFoldEvery {
		starts = append(starts, at)
	}
	return starts
}

// runFolds folds the overlays back on the schedule described above,
// one fold at a time, and returns when the last one has ended.
func (s *liveStack) runFolds(window time.Duration) error {
	overlays := []*delta.Overlay{s.fwd, s.rev}
	start := time.Now()
	for i, at := range foldStarts(window) {
		if d := at - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		dir := filepath.Join(s.dir, fmt.Sprintf("fold.%d", i%2))
		if _, err := overlays[i%2].FoldBack(context.Background(), foldConfig(dir)); err != nil {
			return fmt.Errorf("scheduled fold-back at %v: %w", at, err)
		}
	}
	return nil
}

func (s *liveStack) stopCompactors() {
	for _, c := range s.compactors {
		c.Stop()
	}
	s.compactors = nil
}

func (s *liveStack) close() {
	if s.plain != nil {
		s.plain.close()
	}
	s.stopCompactors()
	for _, o := range []*delta.Overlay{s.fwd, s.rev} {
		if o != nil {
			o.Close()
		}
	}
	s.repo.Close()
	os.RemoveAll(s.dir)
}

// liveWindow runs one window: the closed-loop reader against url, the
// writer and the fold-backs on their schedules. label names the
// window's streams, so that two windows of one run draw different
// pages and batches. It returns the reads, the update batches (timed
// from their due times, with how late each was started) and adds what
// was applied to log.
func liveWindow(p params, st *liveStack, url string, rec *recorder, g *webgraph.Graph, log mutationLog, label string) (reads, updates *tally) {
	batchDue := poissonSchedule(p.seed, label+"/batches", liveBatchRate, p.window)
	rng := newRand(p.seed, label+"/mutations")
	batches := make([][]delta.Mutation, len(batchDue))
	for i := range batches {
		batches[i] = genBatch(g, rng, liveBatchSize)
	}

	var wg sync.WaitGroup
	updates = &tally{attempted: int64(len(batchDue))}
	var foldErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		foldErr = st.runFolds(p.window)
	}()
	go func() {
		defer wg.Done()
		ctx := context.Background()
		pinGenerator()
		start := time.Now()
		for i, muts := range batches {
			if s := batchDue[i] - time.Since(start); s > 0 {
				waitFor(s)
			}
			late := time.Since(start) - batchDue[i]
			updates.late = append(updates.late, float64(late)/float64(time.Microsecond))
			err := st.fwd.Apply(ctx, muts)
			if err == nil {
				// The log follows the forward overlay, whatever else
				// becomes of the batch: the oracle must expect every
				// mutation that was applied.
				log.apply(muts)
				err = st.rev.Apply(ctx, mirror(muts))
			}
			lat := time.Since(start) - batchDue[i]
			switch {
			case err != nil:
				updates.fail("Overlay.Apply batch %d: %v", i, err)
			case late > lateLimit:
				updates.fail("batch %d started %v late", i, late)
			default:
				updates.done(opStat{rows: len(muts)}, batchDue[i], lat)
			}
		}
	}()
	// No oracle inside the window: the row is changing under the reader.
	// Shape and status are checked; content after the window.
	reads = runClosed(url, rec, 1, p.window, func(i int) func() op {
		ps := newPageStream(p.seed, label+"/pages", g.NumPages(), true)
		scratch := new([]webgraph.PageID)
		return func() op { return checkOut(nil, scratch, ps.next()) }
	})
	wg.Wait()
	if foldErr != nil {
		updates.attempted++
		updates.fail("%v", foldErr)
	}
	return reads, updates
}

// checkLive compares, after the window, liveCheckFwd pages over HTTP
// and liveCheckRev in-neighbour rows read straight from the reverse
// overlay with CSR + the applied mutation log.
func checkLive(res *runResult, p params, st *liveStack, url string, g *webgraph.Graph, log mutationLog) {
	var mutated []webgraph.PageID
	for src := range log {
		mutated = append(mutated, src)
	}
	sort.Slice(mutated, func(i, j int) bool { return mutated[i] < mutated[j] })
	rng := newRand(p.seed, "live/check")
	rng.Shuffle(len(mutated), func(i, j int) { mutated[i], mutated[j] = mutated[j], mutated[i] })
	pages := mutated
	if len(pages) > liveCheckFwd/2 {
		pages = pages[:liveCheckFwd/2]
	}
	for len(pages) < liveCheckFwd {
		pages = append(pages, webgraph.PageID(rng.Intn(g.NumPages())))
	}
	c := newClient(url, nil)
	defer c.close()
	var scratch []webgraph.PageID
	for _, pg := range pages {
		_, body, err := c.get(fmt.Sprintf("/out?page=%d", pg))
		if err == nil {
			page, nbrs, ok := parseOut(body, scratch)
			scratch = nbrs
			want := log.expect(g.Out(pg), pg)
			if !ok || page != pg || !slices.Equal(nbrs, want) {
				err = fmt.Errorf("/out?page=%d after the window: %d neighbours, CSR + mutation log has %d or differs", pg, len(nbrs), len(want))
			}
		}
		res.check(err)
	}

	revLog := mutationLog{}
	for src, row := range log {
		for dst, o := range row {
			revLog.apply([]delta.Mutation{{Src: dst, Dst: src, Op: o}})
		}
	}
	gt := g.Transpose()
	var buf []webgraph.PageID
	for i := 0; i < liveCheckRev; i++ {
		pg := webgraph.PageID(rng.Intn(g.NumPages()))
		if i%2 == 0 && len(mutated) > 0 {
			// Half the rows from targets the log touched.
			for dst := range log[mutated[i%len(mutated)]] {
				pg = dst
				break
			}
		}
		var err error
		if buf, err = st.rev.Out(pg, buf[:0]); err == nil {
			if got, want := sortedCopy(buf), revLog.expect(gt.Out(pg), pg); !slices.Equal(got, want) {
				err = fmt.Errorf("reverse overlay Out(%d) after the window: %d in-neighbours, transposed CSR + mutation log has %d or differs", pg, len(got), len(want))
			}
		}
		res.check(err)
	}
}

// runLiveMix is reads beside writes beside background compaction.
func runLiveMix(p params) (*runResult, error) {
	res := newRunResult("live_mix", p)
	res.Inputs.Loop = "closed reader, scheduled writer"
	crawl, genS, err := loadCrawl(res, p.pages, p)
	if err != nil {
		return nil, err
	}
	g := crawl.Corpus.Graph
	res.Inputs.Clients = 2 // one reader, one writer

	st, setupS, err := repeatSetup(p.setups, func(i int) (*liveStack, error) {
		return setupLive(crawl, filepath.Join(p.workDir, fmt.Sprintf("live-%d", i)))
	})
	if err != nil {
		return nil, err
	}
	defer st.close()

	warmStart := time.Now()
	runClosed(st.plain.url, nil, p.clients, p.warmup, outStream(p, g, "warmup", true))
	res.EndToEnd["setup_s"] = genS + setupS + time.Since(warmStart).Seconds()
	res.PerLayer["repo.build_s"] = st.buildWall.Seconds()
	res.EndToEnd["bits_per_edge"] = float64(st.repo.SNodeStats.SizeBytes()*8) / float64(g.NumEdges())

	url, rec := st.plain.url, (*recorder)(nil)
	var reg *metrics.Registry
	var tsrv *serve.Server
	if p.trace {
		if err := liveLayers(res, p, st, crawl); err != nil {
			return nil, err
		}
		rec, reg = newRecorder(), metrics.NewRegistry()
		st.fwd.RegisterMetrics(reg, "delta_fwd")
		st.rev.RegisterMetrics(reg, "delta_rev")
		traced, srv, err := serveRepo(st.live, rec, reg)
		if err != nil {
			return nil, err
		}
		defer traced.close()
		url, tsrv = traced.url, srv
	}

	log := mutationLog{}
	var refOps float64
	if p.trace {
		// The reference of bench.trace_overhead_ratio: the same window,
		// with other pages and batches, through the untraced server.
		ref, refUpdates := liveWindow(p, st, st.plain.url, nil, g, log, "reference")
		res.count(ref)
		res.count(refUpdates)
		refOps = float64(ref.ok()) / p.window.Seconds()
	}
	stats0 := []delta.DeltaStats{st.fwd.DeltaStatsNow(), st.rev.DeltaStatsNow()}
	var before metrics.Snapshot
	var offered0, shed0 int64
	if p.trace {
		before = reg.Snapshot()
		offered0, shed0 = admissionTotals(tsrv.Admission())
	}
	mon := startWindow(counterSource{tops: []store.LinkStore{st.fwd, st.rev}})
	reads, updates := liveWindow(p, st, url, rec, g, log, "window")
	use := mon.finish()
	ctrs := use.ctrs
	st.stopCompactors()
	stats1 := []delta.DeltaStats{st.fwd.DeltaStatsNow(), st.rev.DeltaStatsNow()}

	fillServing(res, reads, p.window, use)
	// The reads of the whole window, not of its typical part: the reads a
	// fold-back, a merge or a collection held up are the ones missing.
	res.EndToEnd["ops_per_s"] = float64(reads.ok()) / p.window.Seconds()
	res.count(updates)
	up50 := wholeWindow(updates.samples, 0.50)
	up99 := wholeWindow(updates.samples, 0.99)
	sort.Float64s(updates.late)
	late, _ := tailPercentile(updates.late, 0.99)
	res.Inputs.LateP99Us = late
	res.Inputs.Notes = append(res.Inputs.Notes,
		fmt.Sprintf("the writer started its batches at most %.0f us late at the p99 (generator_late_p99_us)", late),
		fmt.Sprintf("update_p99_us reports the %.2f quantile of %d batches", up99.q, len(updates.samples)))
	var seals, merges, folds float64
	for i := range stats0 {
		seals += float64(stats1[i].Seals-stats0[i].Seals) / 2
		merges += float64(stats1[i].Compactions-stats0[i].Compactions) / 2
		folds += float64(stats1[i].Folds-stats0[i].Folds) / 2
	}
	res.Inputs.Notes = append(res.Inputs.Notes, fmt.Sprintf("background cycles per overlay in the window: %.1f seals, %.1f merges, %.1f fold-backs", seals, merges, folds))
	checkLive(res, p, st, url, g, log)

	if !p.trace {
		res.Extras["update_p50_us"] = up50.us
		res.Extras["update_p99_us"] = up99.us
		return res, nil
	}

	fillCounters(res, reads, ctrs)
	L := res.PerLayer
	L["delta.update_p50_us"], L["delta.update_p99_us"] = up50.us, up99.us
	L["delta.seals"], L["delta.compactions"], L["delta.folds"] = seals, merges, folds
	after := reg.Snapshot()
	applied := float64(stats1[0].AppliedOps - stats0[0].AppliedOps + stats1[1].AppliedOps - stats0[1].AppliedOps)
	if applied > 0 {
		in := after.Counters["delta_fwd_merge_bytes_in"] - before.Counters["delta_fwd_merge_bytes_in"] +
			after.Counters["delta_rev_merge_bytes_in"] - before.Counters["delta_rev_merge_bytes_in"]
		L["delta.merge_bytes_in_per_applied_op"] = float64(in) / applied
	}
	offered1, shed1 := admissionTotals(tsrv.Admission())
	fillAdmission(L, before, after, offered1-offered0, shed1-shed0)
	if refOps > 0 {
		L["bench.trace_overhead_ratio"] = float64(reads.ok()) / p.window.Seconds() / refOps
	}
	return res, fillSpans(res, p, rec, reads)
}

// liveLayers makes delta's direct timed calls on a scratch overlay
// over the same base store: the cost of each layer of the LSM and of
// each background step, one at a time and uncontended.
func liveLayers(res *runResult, p params, st *liveStack, crawl *synth.Crawl) error {
	L := res.PerLayer
	g := crawl.Corpus.Graph
	base := st.repo.Fwd[repo.SchemeSNode]
	dir := filepath.Join(p.workDir, "live-scratch")
	sc, err := newOverlay(base, crawl.Corpus.Pages, filepath.Join(dir, "delta"))
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	defer sc.Close()
	ctx := context.Background()

	// The same hot pages through the empty overlay and straight to its
	// base, in alternating rounds so that a drift of the host's speed
	// falls on both.
	const calls = 20000
	var direct, through []float64
	for round := 0; round < 2*microRounds; round++ {
		for _, s := range []store.LinkStore{base, sc} {
			ns, err := timeOut(s, newPageStream(p.seed, "micro/passthrough", g.NumPages(), true), calls)
			if err != nil {
				return err
			}
			if s == base {
				direct = append(direct, ns)
			} else {
				through = append(through, ns)
			}
		}
	}
	L["delta.out_passthrough_ns"] = median(through) - median(direct)

	rng := newRand(p.seed, "micro/mutations")
	var mutated []webgraph.PageID
	fill := func() (time.Duration, int, error) {
		var spent time.Duration
		n := liveSealEntries / liveBatchSize
		for i := 0; i < n; i++ {
			muts := genBatch(g, rng, liveBatchSize)
			start := time.Now()
			if err := sc.Apply(ctx, muts); err != nil {
				return 0, 0, err
			}
			spent += time.Since(start)
			for _, m := range muts {
				mutated = append(mutated, m.Src)
			}
		}
		return spent, n, nil
	}
	timed := func(f func() error) (float64, error) {
		start := time.Now()
		err := f()
		return time.Since(start).Seconds() * 1e3, err
	}

	spent, n, err := fill()
	if err != nil {
		return fmt.Errorf("Overlay.Apply: %w", err)
	}
	L["delta.apply_us_per_batch"] = spent.Seconds() * 1e6 / float64(n)
	if L["delta.seal_ms"], err = timed(func() error { return sc.Seal(ctx) }); err != nil {
		return fmt.Errorf("Overlay.Seal: %w", err)
	}
	if ds := sc.DeltaStatsNow(); ds.SegmentEntries > 0 {
		L["delta.segment_bytes_per_entry"] = float64(ds.SegmentBytes) / float64(ds.SegmentEntries)
	}
	if _, _, err = fill(); err != nil {
		return err
	}
	if err := sc.Seal(ctx); err != nil {
		return err
	}
	if L["delta.merge_ms"], err = timed(func() error { _, err := sc.MergeOnce(ctx); return err }); err != nil {
		return fmt.Errorf("Overlay.MergeOnce: %w", err)
	}
	for sc.SegmentCount() < 4 {
		if _, _, err = fill(); err != nil {
			return err
		}
		if err := sc.Seal(ctx); err != nil {
			return err
		}
	}
	var buf []webgraph.PageID
	ns, err := timeRounds(func() (int, error) {
		for _, pg := range mutated[:calls/10] {
			var err error
			if buf, err = sc.Out(pg, buf[:0]); err != nil {
				return 0, err
			}
		}
		return calls / 10, nil
	})
	if err != nil {
		return fmt.Errorf("Overlay.Out at depth 4: %w", err)
	}
	L["delta.out_depth4_us"] = ns / 1e3
	if L["delta.fold_ms"], err = timed(func() error {
		_, err := sc.FoldBack(ctx, foldConfig(filepath.Join(dir, "fold")))
		return err
	}); err != nil {
		return fmt.Errorf("Overlay.FoldBack: %w", err)
	}
	return nil
}
