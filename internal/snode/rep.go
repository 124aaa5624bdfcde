package snode

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"snode/internal/iosim"
	"snode/internal/metrics"
	"snode/internal/store"
	"snode/internal/trace"
	"snode/internal/webgraph"
)

// Representation is an opened, queryable S-Node representation. It
// implements store.LinkStore. Out-of-line graphs are demand-loaded
// through the buffer manager; the supernode graph and the indexes stay
// in memory, like the paper's setup.
//
// A Representation is safe for concurrent use by any number of
// goroutines; see the package documentation for the thread-safety
// contract.
type Representation struct {
	dir   string
	m     *meta
	cache *graphCache
	acc   *iosim.Accountant
	files []*iosim.File

	// decodeHist, when set via RegisterMetrics, times every lower-level
	// graph decode (atomic pointer: registration may race with serving).
	decodeHist atomic.Pointer[metrics.Histogram]

	// codecHists, when set via RegisterMetrics, times decodes per wire
	// codec (indexed by codec ID), so a mixed "auto" artifact shows
	// which codec its cache misses actually pay for.
	codecHists [numCodecs]atomic.Pointer[metrics.Histogram]

	// decodeFault, when non-nil, is consulted before every decode — the
	// fault-injection hook the error-path regression tests use to fail a
	// mid-span decode on demand. Set it before serving; nil in
	// production.
	decodeFault func(GraphID) error

	// hedgeAfter > 0 arms hedged reads: a goroutine coalesced behind
	// another request's in-flight decode for longer than this launches
	// its own private read+decode rather than waiting out a straggling
	// leader (SetHedge; 0 = off, the default).
	hedgeAfter atomic.Int64

	// Hedge accounting (atomics: bumped from concurrent waiters).
	hedges      atomic.Int64
	hedgeWins   atomic.Int64
	hedgeLosses atomic.Int64
}

// errDecodeAbandoned completes a claimed in-flight decode whose leader
// unwound (panic or early return) without producing a result: waiters
// are released with this error instead of blocking forever.
var errDecodeAbandoned = errors.New("snode: decode abandoned by leader")

// readBufPool recycles per-call read buffers so concurrent queries do
// not contend on a shared scratch buffer (the old single-threaded
// design) or allocate a fresh span buffer per access.
var readBufPool = sync.Pool{New: func() any { return new([]byte) }}

func getReadBuf(n int) *[]byte {
	bp := readBufPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	return bp
}

// Open loads the representation in dir, with the given buffer-manager
// budget and disk model.
func Open(dir string, cacheBudget int64, model iosim.Model) (*Representation, error) {
	m, err := readMeta(filepath.Join(dir, "meta.bin"))
	if err != nil {
		return nil, err
	}
	acc := iosim.NewAccountant(model)
	r := &Representation{
		dir:   dir,
		m:     m,
		cache: newGraphCache(cacheBudget, len(m.Directory)),
		acc:   acc,
	}
	for i := range m.FileSizes {
		f, err := acc.Open(indexFileName(dir, int32(i)))
		if err != nil {
			r.Close()
			return nil, err
		}
		r.files = append(r.files, f)
	}
	return r, nil
}

// Name implements store.LinkStore.
func (r *Representation) Name() string { return "snode" }

// NumPages implements store.LinkStore.
func (r *Representation) NumPages() int { return int(r.m.NumPages) }

// Stats implements store.LinkStore (I/O plus graph loads).
func (r *Representation) Stats() store.AccessStats {
	return store.AccessStats{IO: r.acc.Stats(), GraphsLoaded: r.cache.statsMerged().Loads}
}

// StatsExt reports the extended S-Node statistics (per-shard cache
// counters merged on read).
func (r *Representation) StatsExt() AccessStatsExt {
	return AccessStatsExt{IO: r.acc.Stats(), Cache: r.cache.statsMerged()}
}

// DecodedEdges reports list entries decoded since the last stats reset:
// a graph's edges when it is loaded, except a positive superedge
// graph's, which count when its lists are materialized.
func (r *Representation) DecodedEdges() int64 { return r.cache.decodedEdges() }

// RegisterMetrics exposes the representation's serving counters on a
// registry under the given name prefix (e.g. "snode_fwd"): buffer-
// manager hit/miss/load/coalesce/eviction counters, the decoded-edge
// counter behind the Table 2 throughput metric, resident decoded bytes
// and entry gauges, the I/O accountant's seek/transfer/stall counters,
// and a decode-latency histogram. All values are read from the same
// synchronized state as StatsExt, so a /metrics scrape always
// reconciles with it.
func (r *Representation) RegisterMetrics(reg *metrics.Registry, prefix string) {
	r.acc.RegisterMetrics(reg, prefix+"_io")
	cs := func(f func(CacheStats) int64) func() int64 {
		return func() int64 { return f(r.cache.statsMerged()) }
	}
	reg.CounterFunc(prefix+"_cache_hits", cs(func(s CacheStats) int64 { return s.Hits }))
	reg.CounterFunc(prefix+"_cache_misses", cs(func(s CacheStats) int64 { return s.Misses }))
	reg.CounterFunc(prefix+"_cache_loads", cs(func(s CacheStats) int64 { return s.Loads }))
	reg.CounterFunc(prefix+"_cache_coalesced", cs(func(s CacheStats) int64 { return s.Coalesced }))
	reg.CounterFunc(prefix+"_cache_evictions", cs(func(s CacheStats) int64 { return s.Evictions }))
	reg.CounterFunc(prefix+"_cache_intra_loads", cs(func(s CacheStats) int64 { return s.IntraLoads }))
	reg.CounterFunc(prefix+"_cache_super_loads", cs(func(s CacheStats) int64 { return s.SuperLoads }))
	reg.CounterFunc(prefix+"_cache_materialized", cs(func(s CacheStats) int64 { return s.Materialized }))
	reg.CounterFunc(prefix+"_decoded_edges", r.cache.decodedEdges)
	reg.GaugeFunc(prefix+"_cache_bytes", r.cache.usedBytes)
	reg.GaugeFunc(prefix+"_cache_entries", r.cache.entries)
	reg.CounterFunc(prefix+"_hedges", r.hedges.Load)
	reg.CounterFunc(prefix+"_hedge_wins", r.hedgeWins.Load)
	reg.CounterFunc(prefix+"_hedge_losses", r.hedgeLosses.Load)
	reg.GaugeFunc(prefix+"_inflight_decodes", r.cache.inflightCount)
	r.decodeHist.Store(reg.Histogram(prefix+"_decode_seconds", nil))
	// Per-codec rows: decode latency histograms plus the artifact's
	// static composition (graphs/bytes/edges per wire format, and
	// bits-per-edge in milli-bits since gauges are integers). Rows exist
	// for every registered codec so dashboards have a stable schema;
	// codecs absent from the artifact report zero.
	for id, cd := range codecTable {
		name := cd.Name()
		r.codecHists[id].Store(reg.Histogram(prefix+"_decode_seconds_"+name, nil))
		var st CodecBuildStat
		for _, cs := range r.m.Stats.Codecs {
			if int(cs.ID) == id {
				st = cs
				break
			}
		}
		reg.GaugeFunc(prefix+"_codec_supernodes_"+name, func() int64 { return st.Supernodes })
		reg.GaugeFunc(prefix+"_codec_graphs_"+name, func() int64 { return st.Graphs })
		reg.GaugeFunc(prefix+"_codec_bytes_"+name, func() int64 { return st.Bytes })
		reg.GaugeFunc(prefix+"_codec_edges_"+name, func() int64 { return st.Edges })
		reg.GaugeFunc(prefix+"_bits_per_edge_milli_"+name, func() int64 {
			if st.Edges == 0 {
				return 0
			}
			return st.Bytes * 8 * 1000 / st.Edges
		})
	}
}

// ResetStats implements store.LinkStore. The buffer manager's contents
// are retained (a warm cache between queries, as in the paper's
// repeated-trial methodology); counters are zeroed.
func (r *Representation) ResetStats() {
	r.acc.Reset()
	r.cache.resetStats()
}

// ResetCache empties the buffer manager and sets a new budget (used by
// the Figure 12 sweep).
func (r *Representation) ResetCache(budget int64) {
	r.cache.reset(budget)
	r.acc.Reset()
}

// SetPace implements store.Pacer: every subsequent read stalls its
// calling goroutine for the read's modeled disk time times scale
// (0 disables). The concurrent-serving experiments use this to let
// goroutines overlap modeled I/O waits for real.
func (r *Representation) SetPace(scale float64) { r.acc.SetPace(scale) }

// SetHedge implements store.Hedger: a request coalesced behind another
// request's in-flight decode for longer than after launches its own
// private read+decode of the same graph and takes whichever result
// lands first (0 disables, the default). The hedge never touches the
// buffer manager — only the flight's leader completes it — so hedging
// changes tail latency, never cache contents or correctness.
func (r *Representation) SetHedge(after time.Duration) { r.hedgeAfter.Store(int64(after)) }

// HedgeStats reports hedged-read counts since Open: hedges launched,
// hedges that beat their leader, hedges the leader beat.
func (r *Representation) HedgeStats() (launched, wins, losses int64) {
	return r.hedges.Load(), r.hedgeWins.Load(), r.hedgeLosses.Load()
}

// InflightDecodes reports decodes currently claimed but not completed.
// It must drain to zero once no request is active — the invariant the
// deadline and shutdown tests assert (an orphaned flight would block
// every future request for that graph forever).
func (r *Representation) InflightDecodes() int64 { return r.cache.inflightCount() }

// BuildStats returns the stored build statistics.
func (r *Representation) BuildStats() BuildStats { return r.m.Stats }

// SizeBytes implements store.Sized (Table 1 accounting).
func (r *Representation) SizeBytes() int64 { return r.m.Stats.SizeBytes() }

// Close releases the index files. It must not race in-flight queries.
func (r *Representation) Close() error {
	var first error
	for _, f := range r.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	r.files = nil
	return first
}

// snOf returns the supernode owning an internal page ID (PageID index:
// binary search over the contiguous ranges).
func (r *Representation) snOf(internal int32) int32 {
	lo, hi := 0, len(r.m.SnBase)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if r.m.SnBase[mid] <= internal {
			lo = mid
		} else {
			hi = mid
		}
	}
	return int32(lo)
}

// DomainSupernodes returns the supernode range [lo, hi) for a domain
// via the domain index, and whether the domain exists.
func (r *Representation) DomainSupernodes(domain string) (lo, hi int32, ok bool) {
	k := sort.SearchStrings(r.m.Domains, domain)
	if k == len(r.m.Domains) || r.m.Domains[k] != domain {
		return 0, 0, false
	}
	return r.m.DomFirstSN[k], r.m.DomFirstSN[k+1], true
}

// load returns the whole decoded graph gid, from cache or disk: a
// positive superedge graph comes back with its lists materialized, and
// resident that way. Concurrent loads of the same graph coalesce onto
// one decode.
func (r *Representation) load(gid GraphID) (decodedGraph, error) {
	return r.loadCtx(context.Background(), gid)
}

// loadCtx is load with request-scoped context: traced requests record
// their coalesced waits and led decodes.
func (r *Representation) loadCtx(ctx context.Context, gid GraphID) (decodedGraph, error) {
	g, err := r.loadCached(ctx, gid)
	if sg, ok := g.(*superPosSources); ok && err == nil {
		return r.materialize(ctx, gid, sg)
	}
	return g, err
}

// loadCached returns gid's cache entry as it stands, loading it on a
// miss.
func (r *Representation) loadCached(ctx context.Context, gid GraphID) (decodedGraph, error) {
	if g, ok := r.cache.get(gid); ok {
		trace.Add(ctx, trace.CtrCacheHits, 1)
		return g, nil
	}
	trace.Add(ctx, trace.CtrCacheMisses, 1)
	g, err, leader := r.claimTraced(ctx, gid)
	if !leader {
		return g, err
	}
	return r.readDecodeComplete(ctx, gid)
}

// claimTraced wraps graphCache.claimNoWait with trace attribution: a
// non-leader outcome is a coalesced miss — either found decoded by
// claim time or waited out another goroutine's in-flight decode — and
// traced requests record the wait as a "cache.wait" span, so a slow
// query that lost time blocked behind someone else's decode shows it.
// The wait itself goes through awaitFlight, which honours ctx
// cancellation and, when armed via SetHedge, hedges a straggling
// leader.
func (r *Representation) claimTraced(ctx context.Context, gid GraphID) (decodedGraph, error, bool) {
	g, fl, leader := r.cache.claimNoWait(gid)
	if leader {
		return nil, nil, true
	}
	trace.Add(ctx, trace.CtrCoalesced, 1)
	if fl == nil {
		return g, nil, false
	}
	if !trace.Active(ctx) {
		g, err := r.awaitFlight(ctx, gid, fl)
		return g, err, false
	}
	start := time.Now()
	g, err := r.awaitFlight(ctx, gid, fl)
	trace.RecordSpan(ctx, "cache.wait", start, time.Since(start),
		trace.Attr{Key: "gid", Val: int64(gid)})
	return g, err, false
}

// awaitFlight waits out another goroutine's in-flight decode of gid,
// with two escapes the plain channel receive lacks: the wait honours
// ctx cancellation (a dead request stops waiting; the flight itself is
// untouched — its leader still completes it), and once the wait
// exceeds the armed hedge threshold the waiter launches a private
// read+decode of the same graph and takes whichever result lands
// first. The hedge never touches the cache, so only the leader ever
// completes the flight — a hedge cannot double-complete or leave an
// orphaned flight by construction. A losing hedge is cancelled via its
// context (the interruptible paced stall makes that prompt) and drains
// into a buffered channel, so it is never leaked either.
func (r *Representation) awaitFlight(ctx context.Context, gid GraphID, fl *inflightDecode) (decodedGraph, error) {
	hedgeAfter := time.Duration(r.hedgeAfter.Load())
	if hedgeAfter <= 0 {
		if ctx.Done() == nil {
			<-fl.done
			return fl.g, fl.err
		}
		select {
		case <-fl.done:
			return fl.g, fl.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	timer := time.NewTimer(hedgeAfter)
	select {
	case <-fl.done:
		timer.Stop()
		return fl.g, fl.err
	case <-ctx.Done():
		timer.Stop()
		return nil, ctx.Err()
	case <-timer.C:
	}

	// The leader is straggling: hedge it.
	r.hedges.Add(1)
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type hedgeResult struct {
		g   decodedGraph
		err error
	}
	res := make(chan hedgeResult, 1) // buffered: a losing hedge never blocks
	start := time.Now()
	go func() {
		g, err := r.readDecodeHedged(hctx, gid)
		res <- hedgeResult{g, err}
	}()
	recordHedge := func(won int64) {
		if trace.Active(ctx) {
			trace.RecordSpan(ctx, "snode.hedge", start, time.Since(start),
				trace.Attr{Key: "gid", Val: int64(gid)},
				trace.Attr{Key: "won", Val: won})
		}
	}
	select {
	case <-fl.done:
		// Leader won; the deferred cancel reaps the hedge.
		r.hedgeLosses.Add(1)
		recordHedge(0)
		return fl.g, fl.err
	case hr := <-res:
		if hr.err != nil {
			// A failed hedge must not mask the leader's result: fall back
			// to the plain wait.
			r.hedgeLosses.Add(1)
			recordHedge(0)
			select {
			case <-fl.done:
				return fl.g, fl.err
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		r.hedgeWins.Add(1)
		recordHedge(1)
		return hr.g, hr.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// readDecodeHedged is the hedge's private copy of the leader's work:
// read gid's bytes and decode them, touching neither the flight table
// nor the cache contents — no claim, no complete, no insert. The
// decoded copy serves exactly one waiter and is garbage afterwards;
// the leader's copy is what the buffer manager keeps. Identical input
// bytes mean the hedge's rows are byte-identical to the leader's,
// which the hedging on/off golden test pins.
func (r *Representation) readDecodeHedged(ctx context.Context, gid GraphID) (decodedGraph, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e := &r.m.Directory[gid]
	if int(e.File) >= len(r.files) {
		return nil, fmt.Errorf("snode: graph %d in missing file %d", gid, e.File)
	}
	bp := getReadBuf(int(e.NumBytes))
	defer readBufPool.Put(bp)
	buf := (*bp)[:e.NumBytes]
	if _, err := r.files[e.File].ReadAtCtx(ctx, buf, e.Offset); err != nil {
		return nil, fmt.Errorf("snode: hedge read graph %d: %w", gid, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return r.decode(gid, buf)
}

// readDecodeComplete performs the leader's half of a claimed decode:
// read the graph's bytes, decode, and complete the flight (releasing
// any coalesced waiters) whether or not anything failed — including a
// panicking decode, which the deferred sweep converts into a released
// flight instead of a permanently blocked waiter set.
func (r *Representation) readDecodeComplete(ctx context.Context, gid GraphID) (decodedGraph, error) {
	e := &r.m.Directory[gid]
	completed := false
	defer func() {
		if !completed {
			r.cache.complete(gid, nil, e.Kind, errDecodeAbandoned)
		}
	}()
	g, err := func() (decodedGraph, error) {
		if int(e.File) >= len(r.files) {
			return nil, fmt.Errorf("snode: graph %d in missing file %d", gid, e.File)
		}
		bp := getReadBuf(int(e.NumBytes))
		defer readBufPool.Put(bp)
		buf := (*bp)[:e.NumBytes]
		if _, err := r.files[e.File].ReadAtCtx(ctx, buf, e.Offset); err != nil {
			return nil, fmt.Errorf("snode: read graph %d: %w", gid, err)
		}
		return r.decodeTraced(ctx, gid, buf)
	}()
	r.cache.complete(gid, g, e.Kind, err)
	completed = true
	return g, err
}

// decodeTraced wraps decode with per-request attribution: the decode
// becomes a "cache.decode" span marked leader=1 (this request paid for
// it; coalesced waiters record "cache.wait" instead) with the graph's
// id, kind, and encoded size.
func (r *Representation) decodeTraced(ctx context.Context, gid GraphID, buf []byte) (decodedGraph, error) {
	if !trace.Active(ctx) {
		return r.decode(gid, buf)
	}
	start := time.Now()
	g, err := r.decode(gid, buf)
	trace.RecordSpan(ctx, "cache.decode", start, time.Since(start),
		trace.Attr{Key: "gid", Val: int64(gid)},
		trace.Attr{Key: "kind", Val: int64(r.m.Directory[gid].Kind)},
		trace.Attr{Key: "bytes", Val: int64(len(buf))},
		trace.Attr{Key: "leader", Val: 1})
	trace.Add(ctx, trace.CtrDecodes, 1)
	trace.Add(ctx, trace.CtrDecodedBytes, int64(len(buf)))
	return g, err
}

// decode parses one graph's encoded bytes into the form the cache
// holds, dispatching on the directory entry's codec ID (validated at
// Open, so the table lookup cannot miss). For a positive superedge
// graph that is its sources with the lists left encoded; materialize
// is the other half.
func (r *Representation) decode(gid GraphID, buf []byte) (decodedGraph, error) {
	if r.decodeFault != nil {
		if err := r.decodeFault(gid); err != nil {
			return nil, err
		}
	}
	e := &r.m.Directory[gid]
	start := r.decodeStart()
	defer r.observeDecode(e.Codec, start)
	if e.Kind == kindSuperPos {
		return newSuperPosSources(codecTable[e.Codec], buf, int(e.NumLists), r.snSize(e.I), r.snSize(e.J))
	}
	return r.decodePayload(e, buf)
}

// snSize is the number of pages in supernode s.
func (r *Representation) snSize(s int32) int32 { return r.m.SnBase[s+1] - r.m.SnBase[s] }

// materialize decodes the lists of a sources-only superedge entry — no
// I/O, the entry holds the bytes — and has the cache replace the entry
// with the whole graph. The time goes to the same decode histograms as
// the sources' half.
func (r *Representation) materialize(ctx context.Context, gid GraphID, sg *superPosSources) (*decodedSuperPos, error) {
	traced := trace.Active(ctx)
	start := r.decodeStart()
	if traced && start.IsZero() {
		start = time.Now()
	}
	full, err := sg.materialize()
	r.observeDecode(sg.codec.ID(), start)
	if err != nil {
		return nil, fmt.Errorf("snode: materialize graph %d: %w", gid, err)
	}
	r.cache.materialized(gid, sg, full)
	if traced {
		trace.RecordSpan(ctx, "cache.materialize", start, time.Since(start),
			trace.Attr{Key: "gid", Val: int64(gid)},
			trace.Attr{Key: "bytes", Val: int64(len(sg.enc.buf))})
		trace.Add(ctx, trace.CtrMaterialized, 1)
	}
	return full, nil
}

// decodeStart and observeDecode time a decode for the histograms
// RegisterMetrics installs; without them the clock is not read.
func (r *Representation) decodeStart() time.Time {
	if r.decodeHist.Load() == nil {
		return time.Time{}
	}
	return time.Now()
}

func (r *Representation) observeDecode(codec uint8, start time.Time) {
	if start.IsZero() {
		return
	}
	d := time.Since(start)
	if h := r.decodeHist.Load(); h != nil {
		h.ObserveDuration(d)
	}
	if hc := r.codecHists[codec].Load(); hc != nil {
		hc.ObserveDuration(d)
	}
}

// decodePayload is the bare codec dispatch: no hooks, no metrics. The
// serving path reaches it through decode; MeasureDecode times it
// directly.
func (r *Representation) decodePayload(e *dirEntry, buf []byte) (decodedGraph, error) {
	cd := codecTable[e.Codec]
	switch e.Kind {
	case kindIntra:
		return cd.DecodeIntra(buf, int(e.NumLists))
	case kindSuperPos:
		return decodeSuperPos(cd, buf, int(e.NumLists), r.snSize(e.I), r.snSize(e.J))
	case kindSuperNeg:
		return cd.DecodeSuperNeg(buf, int(e.NumLists), r.snSize(e.J))
	default:
		return nil, fmt.Errorf("snode: graph has unknown kind %d", e.Kind)
	}
}

// Out implements store.LinkStore: the full adjacency of external page
// p, assembled from the intranode graph and every out-superedge graph
// of p's supernode (the paper's noted trade-off of partitioned
// adjacency lists).
func (r *Representation) Out(p webgraph.PageID, buf []webgraph.PageID) ([]webgraph.PageID, error) {
	return r.OutFilteredCtx(context.Background(), p, nil, buf)
}

// OutFiltered implements store.LinkStore. The filter is exploited
// structurally: a superedge graph is loaded only when its target
// supernode can contain accepted pages, which is how S-Node achieves
// focused access (§1.2, Requirement 2).
func (r *Representation) OutFiltered(p webgraph.PageID, f *store.Filter, buf []webgraph.PageID) ([]webgraph.PageID, error) {
	return r.OutFilteredCtx(context.Background(), p, f, buf)
}

// OutFilteredCtx implements store.ContextLinkStore: OutFiltered with a
// request-scoped context. When ctx carries an execution trace the
// lookup attributes its work to the request — graphs consulted, cache
// hits and misses, coalesced waits behind other goroutines' decodes,
// span reads and the decodes they led. A lookup whose graphs are all
// resident takes no lock and, given room in buf, allocates nothing: the
// filter is resolved to supernode bitsets once per (filter, store), the
// list of graphs to consult lives on the stack, and targets are
// translated in buf itself.
func (r *Representation) OutFilteredCtx(ctx context.Context, p webgraph.PageID, f *store.Filter, buf []webgraph.PageID) ([]webgraph.PageID, error) {
	if p < 0 || p >= r.m.NumPages {
		return buf, fmt.Errorf("snode: page %d out of range", p)
	}
	internal := r.m.Perm[p]
	i := r.snOf(internal)
	local := internal - r.m.SnBase[i]
	cf := r.compile(f)

	// Process each needed graph exactly once, streaming: emit this
	// page's targets from a graph the moment it is available, so a
	// working set larger than the cache budget is read once per access
	// rather than thrashing (load-all then re-read). Uncached graphs are
	// fetched with span reads — §3.3's disk layout puts a supernode's
	// graphs in one contiguous ascending run, so the spans collapse into
	// few sequential reads. The page's local target IDs are appended to
	// buf and turned into external page IDs there, keeping the accepted.
	var firstErr error
	process := func(gid GraphID, j int32, g decodedGraph) {
		if firstErr != nil {
			return
		}
		from := len(buf)
		switch sg := g.(type) {
		case *decodedIntra:
			buf = append(buf, sg.lists.At(int(local))...)
		case *decodedSuperPos:
			buf = append(buf, sg.targetsOf(local)...)
		case *superPosSources:
			// Unless the page is a source it has no link through this
			// graph, and the lists stay encoded.
			if k := findSource(sg.srcs, local); k >= 0 {
				full, err := r.materialize(ctx, gid, sg)
				if err != nil {
					firstErr = err
					return
				}
				buf = append(buf, full.lists.At(k)...)
			}
		case *decodedSuperNeg:
			buf = sg.appendTargets(local, buf)
		default:
			firstErr = fmt.Errorf("snode: graph %d has wrong type", gid)
			return
		}
		inv := r.m.Inv[r.m.SnBase[j]:]
		if cf.allOf(j) {
			for k, t := range buf[from:] {
				buf[from+k] = inv[t]
			}
			return
		}
		kept := buf[:from]
		for _, t := range buf[from:] {
			if ext := inv[t]; f.AcceptsPage(ext) {
				kept = append(kept, ext)
			}
		}
		buf = kept
	}

	// The graphs to consult, in a stack array that spills to the heap
	// only for a supernode with more out-superedges than it holds.
	var scratch [outScratch]needEntry
	need := scratch[:0]
	if cf.wants(i) {
		need = append(need, needEntry{r.m.IntraGID[i], i})
	}
	for k := r.m.SuperOff[i]; k < r.m.SuperOff[i+1]; k++ {
		if j := r.m.SuperAdj[k]; cf.wants(j) {
			need = append(need, needEntry{r.m.SuperGID[k], j})
		}
	}

	// Pass 1: emit from cached graphs; collect misses (ascending gid ==
	// disk order, because the intranode graph precedes its superedges).
	// The misses are compacted into need's own prefix — entry k is read
	// before anything is written at or past it.
	needed := len(need)
	miss := need[:0]
	for _, ne := range need {
		if g, ok := r.cache.lookup(ne.gid); ok {
			process(ne.gid, ne.j, g)
		} else {
			miss = append(miss, ne)
		}
	}
	r.cache.countLookups(r.m.IntraGID[i], int64(needed-len(miss)), int64(len(miss)))
	if trace.Active(ctx) {
		trace.Add(ctx, trace.CtrLookups, 1)
		trace.Add(ctx, trace.CtrGraphsNeeded, int64(needed))
		trace.Add(ctx, trace.CtrCacheHits, int64(needed-len(miss)))
		trace.Add(ctx, trace.CtrCacheMisses, int64(len(miss)))
	}
	// Pass 2: resolve the misses. Each miss is claimed singleflight-
	// style: if another goroutine already decoded (or is decoding) the
	// graph, its result is reused; when this call leads a decode, the
	// span is extended over subsequent misses it can also lead, so the
	// §3.3 contiguous layout still collapses into few sequential reads.
	for k := 0; k < len(miss) && firstErr == nil; {
		// Cancellation checkpoint: no claims are held at the loop head, so
		// a dead request stops here without orphaning a flight.
		if err := ctx.Err(); err != nil {
			return buf, err
		}
		g, err, leader := r.claimTraced(ctx, miss[k].gid)
		if !leader {
			if err != nil {
				return buf, err
			}
			process(miss[k].gid, miss[k].j, g)
			k++
			continue
		}
		first := &r.m.Directory[miss[k].gid]
		spanEnd := first.Offset + int64(first.NumBytes)
		// claimed grows over miss[k:end] in place: it is never longer
		// than the stretch already examined.
		claimed := miss[k : k+1]
		const maxGap = 64 << 10
		end := k + 1
		for end < len(miss) {
			e := &r.m.Directory[miss[end].gid]
			if e.File != first.File || e.Offset-spanEnd > maxGap {
				break
			}
			g2, state := r.cache.tryClaim(miss[end].gid)
			if state == claimBusy {
				// Another goroutine owns this decode; stop extending and
				// wait for it on a later iteration rather than here,
				// while we still have our own claims to serve.
				break
			}
			if state == claimCached {
				// Decoded by someone else since pass 1: emit without
				// reading; its bytes become part of the gap allowance.
				process(miss[end].gid, miss[end].j, g2)
				end++
				continue
			}
			spanEnd = e.Offset + int64(e.NumBytes)
			claimed = append(claimed, miss[end])
			end++
		}
		// From this point the call holds claimed in-flight decodes that
		// coalesced waiters may be blocked on; readDecodeSpan guarantees
		// every one is completed exactly once on every exit path.
		if err := r.readDecodeSpan(ctx, claimed, spanEnd, process); err != nil {
			return buf, err
		}
		k = end
	}
	return buf, firstErr
}

// outScratch is how many graphs a lookup can list on its stack (8 bytes
// each).
const outScratch = 256

// needEntry is one lower-level graph a lookup must consult: the graph
// and the target supernode its lists resolve into.
type needEntry struct {
	gid GraphID
	j   int32
}

// readDecodeSpan reads the contiguous byte span covering the claimed
// graphs in one ReadAt, decodes each, and completes every claimed
// in-flight decode exactly once. The deferred sweep makes the
// completion guarantee unconditional: whether the read fails, a decode
// fails, or a decode (or the process callback) panics, no claimed
// flight is left open — an abandoned flight would block its coalesced
// waiters forever. The first error is returned after all completions.
func (r *Representation) readDecodeSpan(ctx context.Context, claimed []needEntry, spanEnd int64, process func(gid GraphID, j int32, g decodedGraph)) error {
	first := &r.m.Directory[claimed[0].gid]
	completed := 0
	defer func() {
		for _, ne := range claimed[completed:] {
			r.cache.complete(ne.gid, nil, r.m.Directory[ne.gid].Kind, errDecodeAbandoned)
		}
	}()
	if int(first.File) >= len(r.files) {
		err := fmt.Errorf("snode: graph %d in missing file %d", claimed[0].gid, first.File)
		for _, ne := range claimed {
			r.cache.complete(ne.gid, nil, r.m.Directory[ne.gid].Kind, err)
		}
		completed = len(claimed)
		return err
	}
	n := int(spanEnd - first.Offset)
	// The whole span read + decode run becomes one "snode.read_span"
	// span on traced requests, parenting the iosim.read and cache.decode
	// spans it causes.
	spanCtx, sp := trace.Start(ctx, "snode.read_span")
	sp.SetAttr("graphs", int64(len(claimed)))
	sp.SetAttr("bytes", int64(n))
	defer sp.End()
	bp := getReadBuf(n)
	defer readBufPool.Put(bp)
	rb := (*bp)[:n]
	if _, err := r.files[first.File].ReadAtCtx(spanCtx, rb, first.Offset); err != nil {
		readErr := fmt.Errorf("snode: span read: %w", err)
		for _, ne := range claimed {
			r.cache.complete(ne.gid, nil, r.m.Directory[ne.gid].Kind, readErr)
		}
		completed = len(claimed)
		return readErr
	}
	// Decode and complete every claimed graph — even after an error, so
	// no waiter is left blocked on an abandoned flight.
	var decodeErr error
	for _, ne := range claimed {
		e := &r.m.Directory[ne.gid]
		off := e.Offset - first.Offset
		g, err := r.decodeTraced(spanCtx, ne.gid, rb[off:off+int64(e.NumBytes)])
		r.cache.complete(ne.gid, g, e.Kind, err)
		completed++
		if err != nil && decodeErr == nil {
			decodeErr = err
		}
		if err == nil && decodeErr == nil {
			process(ne.gid, ne.j, g)
		}
	}
	return decodeErr
}

// DecodeAll materializes the entire graph in memory as a CSR webgraph
// (external IDs) — the "global access" mode for mining tasks. It
// bypasses the cache.
func (r *Representation) DecodeAll() (*webgraph.Graph, error) {
	b := webgraph.NewBuilder(int(r.m.NumPages))
	var buf []webgraph.PageID
	for p := int32(0); p < r.m.NumPages; p++ {
		var err error
		buf, err = r.Out(p, buf[:0])
		if err != nil {
			return nil, err
		}
		for _, q := range buf {
			b.AddEdge(p, q)
		}
	}
	return b.Build(), nil
}

// Verify decodes every graph in the directory and checks the
// representation's cross-structure invariants: every list decodes
// within its local ID space, positive superedge graphs have sources,
// every superedge graph corresponds to a supernode-graph edge, and the
// total positive edge count matches the recorded NumEdges. It reads the
// whole representation once (sequentially) and leaves the cache as it
// found it budget-wise.
func (r *Representation) Verify() error {
	var edges int64
	for s := int32(0); s < int32(r.m.Stats.Supernodes); s++ {
		g, err := r.load(r.m.IntraGID[s])
		if err != nil {
			return fmt.Errorf("snode: verify intranode %d: %w", s, err)
		}
		ig, ok := g.(*decodedIntra)
		if !ok {
			return fmt.Errorf("snode: intranode pointer of %d resolves to a superedge graph", s)
		}
		size := r.m.SnBase[s+1] - r.m.SnBase[s]
		if int32(ig.lists.Len()) != size {
			return fmt.Errorf("snode: intranode %d has %d lists for %d pages", s, ig.lists.Len(), size)
		}
		edges += ig.edgeCount()
		for k := r.m.SuperOff[s]; k < r.m.SuperOff[s+1]; k++ {
			j := r.m.SuperAdj[k]
			e := &r.m.Directory[r.m.SuperGID[k]]
			if e.I != s || e.J != j {
				return fmt.Errorf("snode: superedge (%d,%d) directory entry labels (%d,%d)",
					s, j, e.I, e.J)
			}
			sg, err := r.load(r.m.SuperGID[k])
			if err != nil {
				return fmt.Errorf("snode: verify superedge (%d,%d): %w", s, j, err)
			}
			njSize := int64(r.m.SnBase[j+1] - r.m.SnBase[j])
			switch t := sg.(type) {
			case *decodedSuperPos:
				pos := t.edgeCount()
				if pos == 0 {
					return fmt.Errorf("snode: superedge (%d,%d) is empty (no such edge should exist)", s, j)
				}
				edges += pos
			case *decodedSuperNeg:
				neg := t.edgeCount()
				pos := int64(size)*njSize - neg
				if pos <= 0 {
					return fmt.Errorf("snode: negative superedge (%d,%d) implies %d links", s, j, pos)
				}
				edges += pos
			default:
				return fmt.Errorf("snode: superedge (%d,%d) has intranode kind", s, j)
			}
		}
	}
	if edges != r.m.NumEdges {
		return fmt.Errorf("snode: representation holds %d links, metadata records %d",
			edges, r.m.NumEdges)
	}
	return nil
}

// Supernodes reports the supernode count; Superedges the superedge
// count (Figure 9 metrics).
func (r *Representation) Supernodes() int   { return r.m.Stats.Supernodes }
func (r *Representation) Superedges() int64 { return r.m.Stats.Superedges }

// Codecs reports the artifact's per-codec composition as recorded at
// build time (one entry per codec that encoded at least one supernode).
// Version-1 artifacts predate the record; readMeta synthesizes a
// paper-only entry for them, so the slice is never empty for a valid
// artifact.
func (r *Representation) Codecs() []CodecBuildStat {
	return append([]CodecBuildStat(nil), r.m.Stats.Codecs...)
}

// DecodeCost is one (codec, payload kind) row of MeasureDecode: the
// cost of decoding every payload of that class in the artifact.
type DecodeCost struct {
	Codec  string `json:"codec"`
	Kind   string `json:"kind"` // "intra", "super_pos", "super_neg"
	Graphs int64  `json:"graphs"`
	Bytes  int64  `json:"bytes"`
	Edges  int64  `json:"edges"` // stored (list) edges
	Ns     int64  `json:"ns"`    // fastest whole-class decode round
}

func kindName(kind uint8) string {
	switch kind {
	case kindIntra:
		return "intra"
	case kindSuperPos:
		return "super_pos"
	case kindSuperNeg:
		return "super_neg"
	}
	return fmt.Sprintf("kind_%d", kind)
}

// MeasureDecode reads every payload in the directory once, then times
// `rounds` full decode passes and reports, per (codec, kind) class, the
// bytes, stored edges, and the fastest round's decode nanoseconds. The
// payload bytes are read up front so the measurement is pure CPU decode
// cost — no I/O, no cache, no metrics hooks. It is the instrument
// behind the codec bake-off grid; serving is unaffected (the graph
// cache is bypassed entirely).
func (r *Representation) MeasureDecode(rounds int) ([]DecodeCost, error) {
	if rounds <= 0 {
		rounds = 1
	}
	bufs := make([][]byte, len(r.m.Directory))
	for gid := range r.m.Directory {
		e := &r.m.Directory[gid]
		buf := make([]byte, e.NumBytes)
		if _, err := r.files[e.File].ReadAtCtx(context.Background(), buf, e.Offset); err != nil {
			return nil, fmt.Errorf("snode: measure read graph %d: %w", gid, err)
		}
		bufs[gid] = buf
	}
	type classKey struct {
		codec uint8
		kind  uint8
	}
	agg := map[classKey]*DecodeCost{}
	// Static tallies (and a correctness pass) once, untimed.
	for gid := range r.m.Directory {
		e := &r.m.Directory[gid]
		g, err := r.decodePayload(e, bufs[gid])
		if err != nil {
			return nil, fmt.Errorf("snode: measure decode graph %d: %w", gid, err)
		}
		k := classKey{e.Codec, e.Kind}
		dc := agg[k]
		if dc == nil {
			dc = &DecodeCost{Codec: codecTable[e.Codec].Name(), Kind: kindName(e.Kind)}
			agg[k] = dc
		}
		dc.Graphs++
		dc.Bytes += int64(e.NumBytes)
		dc.Edges += g.edgeCount()
	}
	for round := 0; round < rounds; round++ {
		perClass := map[classKey]int64{}
		for gid := range r.m.Directory {
			e := &r.m.Directory[gid]
			k := classKey{e.Codec, e.Kind}
			start := time.Now()
			if _, err := r.decodePayload(e, bufs[gid]); err != nil {
				return nil, err
			}
			perClass[k] += time.Since(start).Nanoseconds()
		}
		for k, ns := range perClass {
			if round == 0 || ns < agg[k].Ns {
				agg[k].Ns = ns
			}
		}
	}
	out := make([]DecodeCost, 0, len(agg))
	for _, dc := range agg {
		out = append(out, *dc)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Codec != out[b].Codec {
			return out[a].Codec < out[b].Codec
		}
		return out[a].Kind < out[b].Kind
	})
	return out, nil
}
