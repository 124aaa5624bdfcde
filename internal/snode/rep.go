package snode

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"snode/internal/iosim"
	"snode/internal/metrics"
	"snode/internal/refenc"
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

	// decodeFault, when non-nil, is consulted before every decode — the
	// fault-injection hook the error-path regression tests use to fail a
	// mid-span decode on demand. Set it before serving; nil in
	// production.
	decodeFault func(GraphID) error
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
// every entry of a graph decoded whole (materialized), and every entry a
// one-list decode decoded on the way to its list, the lists before it
// included. A load decodes none: it leaves its graph encoded, with only
// a positive superedge graph's sources decoded.
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
	reg.CounterFunc(prefix+"_cache_list_decodes", cs(func(s CacheStats) int64 { return s.ListDecodes }))
	reg.CounterFunc(prefix+"_decoded_edges", r.cache.decodedEdges)
	reg.GaugeFunc(prefix+"_cache_bytes", r.cache.usedBytes)
	reg.GaugeFunc(prefix+"_cache_entries", r.cache.entries)
	reg.GaugeFunc(prefix+"_inflight_decodes", r.cache.inflightCount)
	r.decodeHist.Store(reg.Histogram(prefix+"_decode_seconds", nil))
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

// claimTraced wraps graphCache.claim with trace attribution: a
// non-leader outcome is a coalesced miss — either found decoded by
// claim time or waited out another goroutine's in-flight decode — and
// traced requests record the wait as a "cache.wait" span, so a slow
// query that lost time blocked behind someone else's decode shows it.
// The wait honours ctx cancellation: a dead request stops waiting, and
// the flight itself is untouched — its leader still completes it.
func (r *Representation) claimTraced(ctx context.Context, gid GraphID) (*graph, error, bool) {
	g, fl, leader := r.cache.claim(gid, true)
	if leader {
		return nil, nil, true
	}
	trace.Add(ctx, trace.CtrCoalesced, 1)
	if fl == nil {
		return g, nil, false
	}
	_, span := trace.Start(ctx, "cache.wait")
	span.SetAttr("gid", int64(gid))
	defer span.End()
	select {
	case <-fl.done:
		return fl.g, fl.err, false
	case <-ctx.Done():
		return nil, ctx.Err(), false
	}
}

// decodeTraced wraps decode with per-request attribution: the decode
// becomes a "cache.decode" span marked leader=1 (this request paid for
// it; coalesced waiters record "cache.wait" instead) with the graph's
// id, kind, and encoded size.
func (r *Representation) decodeTraced(ctx context.Context, gid GraphID, buf []byte, whole bool) (*graph, error) {
	if !trace.Active(ctx) {
		return r.decode(gid, buf, whole)
	}
	_, span := trace.Start(ctx, "cache.decode")
	span.SetAttr("gid", int64(gid))
	span.SetAttr("kind", int64(r.m.Directory[gid].Kind))
	span.SetAttr("bytes", int64(len(buf)))
	span.SetAttr("leader", 1)
	g, err := r.decode(gid, buf, whole)
	span.End()
	trace.Add(ctx, trace.CtrDecodes, 1)
	trace.Add(ctx, trace.CtrDecodedBytes, int64(len(buf)))
	return g, err
}

// decode parses one graph's encoded bytes into the state a load leaves
// in the cache: encoded, which for a positive superedge graph has its
// sources decoded (materialize and decodeList are the two ways on from
// there), or, for a read that wants every list, whole.
func (r *Representation) decode(gid GraphID, buf []byte, whole bool) (*graph, error) {
	if err := r.fault(gid); err != nil {
		return nil, err
	}
	e := &r.m.Directory[gid]
	start := r.decodeStart()
	defer r.observeDecode(start)
	if whole {
		return r.decodePayload(e, buf)
	}
	niSize, njSize := r.sizes(e)
	return newGraph(e.Kind, buf, int(e.NumLists), niSize, njSize)
}

// fault runs the fault-injection hook, if one is set, for a decode of
// gid.
func (r *Representation) fault(gid GraphID) error {
	if r.decodeFault == nil {
		return nil
	}
	return r.decodeFault(gid)
}

// snSize is the number of pages in supernode s.
func (r *Representation) snSize(s int32) int32 { return r.m.SnBase[s+1] - r.m.SnBase[s] }

// sizes returns the sizes of a superedge graph's source and target
// supernodes, and zeros for an intranode graph, whose entry names no
// target supernode.
func (r *Representation) sizes(e *dirEntry) (niSize, njSize int32) {
	if e.Kind == kindIntra {
		return 0, 0
	}
	return r.snSize(e.I), r.snSize(e.J)
}

// materialize decodes every list of an encoded entry — no I/O, the entry
// holds the bytes — and has the cache replace the entry with the whole
// graph. The time goes to the same decode histogram as the load's.
func (r *Representation) materialize(ctx context.Context, gid GraphID, sg *graph) (*graph, error) {
	traced := trace.Active(ctx)
	start := r.decodeStart()
	if traced && start.IsZero() {
		start = time.Now()
	}
	full, err := sg.materialize()
	r.observeDecode(start)
	if err != nil {
		return nil, fmt.Errorf("snode: materialize graph %d: %w", gid, err)
	}
	r.cache.materialized(gid, sg, full)
	if traced {
		trace.RecordSpan(ctx, "cache.materialize", start, time.Since(start),
			trace.Attr{Key: "gid", Val: int64(gid)},
			trace.Attr{Key: "bytes", Val: int64(len(sg.buf))})
		trace.Add(ctx, trace.CtrMaterialized, 1)
	}
	return full, nil
}

// decodeList appends to dst the local targets held by list k of the
// encoded entry sg — a one-list decode, which reads no list after k and
// leaves the cache entry as it is.
func (r *Representation) decodeList(gid GraphID, sg *graph, k int, dst []int32) ([]int32, error) {
	start := r.decodeStart()
	dst, n, err := sg.appendList(k, dst)
	r.observeDecode(start)
	if err != nil {
		return dst, fmt.Errorf("snode: graph %d: %w", gid, err)
	}
	r.cache.listDecoded(gid, n)
	return dst, nil
}

// decodeStart and observeDecode time a decode for the histogram
// RegisterMetrics installs; without it the clock is not read.
func (r *Representation) decodeStart() time.Time {
	if r.decodeHist.Load() == nil {
		return time.Time{}
	}
	return time.Now()
}

func (r *Representation) observeDecode(start time.Time) {
	if start.IsZero() {
		return
	}
	if h := r.decodeHist.Load(); h != nil {
		h.ObserveDuration(time.Since(start))
	}
}

// decodePayload is the bare whole-graph decode of one payload: no hooks,
// no metrics, and no copy of buf. The serving path decodes through
// decode; MeasureDecode times this directly.
func (r *Representation) decodePayload(e *dirEntry, buf []byte) (*graph, error) {
	niSize, njSize := r.sizes(e)
	var g graph // a view of buf: it does not outlive the call
	if err := g.init(e.Kind, buf, int(e.NumLists), niSize, njSize, nil); err != nil {
		return nil, err
	}
	return g.materialize()
}

// consult hands each graph of need — graphs of supernode i, in ascending
// gid — that can hold a link of a page with a local ID in locals to
// process exactly once, streaming: resident graphs first (hit set), then the
// misses as they are read, so a working set larger than the cache budget
// is read once per access rather than thrashing (load-all then re-read).
// Uncached graphs are fetched with span reads — §3.3's disk layout puts
// a supernode's graphs in one contiguous ascending run, so the spans
// collapse into few sequential reads. It is the one way a graph gets
// from disk into the cache: a lookup's misses go in encoded, and
// Verify's (consultAs with whole set) go in decoded whole, each in one
// decode.
//
// A resident graph's source summary, kept in its cache node
// (cacheNode.rulesOutAll), can show that none of the pages is a source
// of it: such a graph is a hit like any other, touched and counted at
// its turn, and is not handed to process. This is the one
// place the summary is read; a miss is handed to process whatever its
// sources. locals is ascending, and nil to hand every graph on.
//
// need is used as scratch; the first error from process, a read or a
// decode ends the walk.
func (r *Representation) consult(ctx context.Context, i int32, locals []int32, need []needEntry, process func(gid GraphID, j int32, g *graph, hit bool) error) error {
	return r.consultAs(ctx, i, locals, need, false, process)
}

// consultAs is consult, with its misses admitted whole when whole is
// set and encoded otherwise.
func (r *Representation) consultAs(ctx context.Context, i int32, locals []int32, need []needEntry, whole bool, process func(gid GraphID, j int32, g *graph, hit bool) error) error {
	// Pass 1: process cached graphs; collect misses (ascending gid ==
	// disk order, because the intranode graph precedes its superedges).
	// The misses are compacted into need's own prefix — entry k is read
	// before anything is written at or past it. The summary is tested
	// here, at each graph's turn, so that reference bits, the
	// materializations process makes and the evictions those make happen
	// in the same order as with no summary at all.
	needed := len(need)
	miss := need[:0]
	var firstErr error
	var lo, hi int32
	var mask uint64
	if len(locals) > 0 {
		lo, hi = locals[0], locals[len(locals)-1]
		for _, local := range locals {
			mask |= 1 << (uint32(local) & 63)
		}
	}
	for _, ne := range need {
		g := r.cache.lookup(ne.gid)
		switch {
		case g == nil:
			miss = append(miss, ne)
		case firstErr != nil, locals != nil && g.rulesOutAll(locals, lo, hi, mask):
			// A hit, touched and counted, with nothing to hand on.
		default:
			firstErr = process(ne.gid, ne.j, g, true)
		}
	}
	r.cache.countLookups(r.m.IntraGID[i], int64(needed-len(miss)), int64(len(miss)))
	if trace.Active(ctx) {
		trace.Add(ctx, trace.CtrLookups, 1)
		trace.Add(ctx, trace.CtrGraphsNeeded, int64(needed))
		trace.Add(ctx, trace.CtrCacheHits, int64(needed-len(miss)))
		trace.Add(ctx, trace.CtrCacheMisses, int64(len(miss)))
	}
	if firstErr != nil {
		return firstErr
	}
	// Pass 2: resolve the misses. Each miss is claimed singleflight-
	// style: if another goroutine already decoded (or is decoding) the
	// graph, its result is reused; when this call leads a decode, the
	// span is extended over subsequent misses it can also lead, so the
	// §3.3 contiguous layout still collapses into few sequential reads.
	for k := 0; k < len(miss); {
		// Cancellation checkpoint: no claims are held at the loop head, so
		// a dead request stops here without orphaning a flight.
		if err := ctx.Err(); err != nil {
			return err
		}
		g, err, leader := r.claimTraced(ctx, miss[k].gid)
		if !leader {
			if err == nil {
				err = process(miss[k].gid, miss[k].j, g, false)
			}
			if err != nil {
				return err
			}
			k++
			continue
		}
		first := &r.m.Directory[miss[k].gid]
		spanEnd := first.Offset + int64(first.NumBytes)
		// claimed grows over miss[k:end] in place: it is never longer
		// than the stretch already examined.
		claimed := miss[k : k+1]
		end := k + 1
		for end < len(miss) {
			e := &r.m.Directory[miss[end].gid]
			if !joins(first, spanEnd, e) {
				break
			}
			g2, _, leader := r.cache.claim(miss[end].gid, false)
			if g2 == nil && !leader {
				// Another goroutine owns this decode; stop extending and
				// wait for it on a later iteration rather than here,
				// while we still have our own claims to serve.
				break
			}
			if g2 != nil {
				// Decoded by someone else since pass 1: process without
				// reading; its bytes become part of the gap allowance.
				if err = process(miss[end].gid, miss[end].j, g2, false); err != nil {
					break // the claims taken so far are still owed their decodes
				}
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
		if spanErr := r.readDecodeSpan(ctx, claimed, spanEnd, whole, process); err == nil {
			err = spanErr
		}
		if err != nil {
			return err
		}
		k = end
	}
	return nil
}

// outScratch is how many graphs a lookup can list on its stack (8 bytes
// each).
const outScratch = 256

// needEntry is one lower-level graph a lookup must consult: the graph
// and the target supernode its lists resolve into. It is aligned to its
// eight bytes so that a lookup's stack array of them is cleared a word
// at a time wherever the frame puts it: at a four-byte offset the same
// 2 KiB took 150 ns to clear, against 40, a fifth of a warm lookup.
type needEntry struct {
	_   [0]int64
	gid GraphID
	j   int32
}

// appendGraphs appends every graph of supernode i to need, in ascending
// gid: its intranode graph, then its superedge graphs.
func (m *meta) appendGraphs(need []needEntry, i int32) []needEntry {
	need = append(need, needEntry{gid: m.IntraGID[i], j: i})
	for k := m.SuperOff[i]; k < m.SuperOff[i+1]; k++ {
		need = append(need, needEntry{gid: m.SuperGID[k], j: m.SuperAdj[k]})
	}
	return need
}

// joins reports whether the graph of entry e can join a span read that
// starts at first's graph and so far ends at spanEnd: one in the same
// file, at most maxSpanGap bytes past the span's end.
func joins(first *dirEntry, spanEnd int64, e *dirEntry) bool {
	const maxSpanGap = 64 << 10
	return e.File == first.File && e.Offset-spanEnd <= maxSpanGap
}

// readSpan reads the bytes from the first graph of a span read to
// spanEnd in one ReadAt, into a pooled buffer, and hands them to use,
// which must not keep them. The read and what use does with it are one
// "snode.read_span" span on traced requests, parenting the iosim.read
// (and cache.decode) spans they cause. It is the one span read, of a
// lookup's misses and of Scan's.
func (r *Representation) readSpan(ctx context.Context, first GraphID, spanEnd int64, graphs int, use func(ctx context.Context, span []byte) error) error {
	e := &r.m.Directory[first]
	if int(e.File) >= len(r.files) {
		return fmt.Errorf("snode: graph %d in missing file %d", first, e.File)
	}
	n := int(spanEnd - e.Offset)
	spanCtx, sp := trace.Start(ctx, "snode.read_span")
	sp.SetAttr("graphs", int64(graphs))
	sp.SetAttr("bytes", int64(n))
	defer sp.End()
	bp := getReadBuf(n)
	defer readBufPool.Put(bp)
	rb := (*bp)[:n]
	if _, err := r.files[e.File].ReadAtCtx(spanCtx, rb, e.Offset); err != nil {
		return fmt.Errorf("snode: span read: %w", err)
	}
	return use(spanCtx, rb)
}

// readDecodeSpan reads the contiguous byte span covering the claimed
// graphs (readSpan), decodes each, whole or encoded, and completes
// every claimed in-flight decode exactly once. The deferred sweep makes
// the completion guarantee unconditional: whether the read fails, a
// decode fails, or a decode (or the process callback) panics, no claimed
// flight is left open — an abandoned flight would block its coalesced
// waiters forever. Each graph is handed to process as it is decoded,
// until a decode or process fails; the first error is returned after all
// completions.
func (r *Representation) readDecodeSpan(ctx context.Context, claimed []needEntry, spanEnd int64, whole bool, process func(gid GraphID, j int32, g *graph, hit bool) error) error {
	first := &r.m.Directory[claimed[0].gid]
	completed := 0
	defer func() {
		for _, ne := range claimed[completed:] {
			r.cache.complete(ne.gid, nil, errDecodeAbandoned)
		}
	}()
	err := r.readSpan(ctx, claimed[0].gid, spanEnd, len(claimed), func(spanCtx context.Context, rb []byte) error {
		// Decode and complete every claimed graph — even after an error,
		// so no waiter is left blocked on an abandoned flight.
		var firstErr error
		for _, ne := range claimed {
			e := &r.m.Directory[ne.gid]
			off := e.Offset - first.Offset
			g, err := r.decodeTraced(spanCtx, ne.gid, rb[off:off+int64(e.NumBytes)], whole)
			r.cache.complete(ne.gid, g, err)
			completed++
			if err == nil && firstErr == nil {
				err = process(ne.gid, ne.j, g, false)
			}
			if firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	})
	// Claims the read never got to share its error.
	for _, ne := range claimed[completed:] {
		r.cache.complete(ne.gid, nil, err)
	}
	completed = len(claimed)
	return err
}

// Scan reads the whole graph once and hands fn each page's out-links in
// external IDs: the "global access" mode. Supernode by supernode in disk
// order it takes the graphs the cache holds as they are, and reads the
// rest with the span reads a lookup makes; each graph's lists are decoded
// into scratch that one refenc decoder reuses, and their targets gathered
// in scratch of the supernode's, from which fn gets its pages' rows in
// internal ID order. A row is valid only during its fn call, and fn may
// call Out. Scan admits, evicts, materializes and marks used nothing:
// the cache is left as it was found, with the graphs Scan read counted
// as loads, and the lookups that follow pay for nothing it read.
//
// It checks what Verify checks (checkWhole, checkEdges). ctx is checked
// between supernodes, and an error from fn ends the scan.
func (r *Representation) Scan(ctx context.Context, fn func(p webgraph.PageID, out []webgraph.PageID) error) error {
	sc := scanner{r: r, dec: refenc.NewDecoder()}
	defer sc.dec.Release()
	var need []needEntry
	for s := int32(0); s < int32(r.m.Stats.Supernodes); s++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		sc.s, sc.from, sc.to = s, sc.from[:0], sc.to[:0]
		need = r.m.appendGraphs(need[:0], s)
		err := sc.supernode(ctx, need)
		if err == nil {
			err = sc.emit(fn)
		}
		if err != nil {
			return fmt.Errorf("snode: scan supernode %d: %w", s, err)
		}
	}
	return r.checkEdges(sc.edges)
}

// scanner is Scan's state: the decoder and the scratch its graphs are
// decoded into, the targets of the supernode being read, and the links
// counted so far. Every scratch array is reused from supernode to
// supernode, so a scan allocates as its largest supernode grows them.
type scanner struct {
	r     *Representation
	dec   refenc.Decoder
	view  graph   // the payload being decoded, encoded, its sources in srcs
	srcs  []int32 // a positive superedge graph's sources
	neg   []int32 // a negative superedge graph's list, complemented
	from  []int32 // the local source of each target in to, as the graphs gave them
	to    []webgraph.PageID
	off   []int32           // per page, where its row ends in rows
	rows  []webgraph.PageID // the supernode's rows, page after page
	s     int32
	edges int64
}

// emit hands fn the rows of supernode sc.s's pages in internal ID order:
// the targets gathered, sorted by source (a counting sort, which keeps
// each row in the order its graphs gave it).
func (sc *scanner) emit(fn func(p webgraph.PageID, out []webgraph.PageID) error) error {
	m := sc.r.m
	base, n := m.SnBase[sc.s], int(sc.r.snSize(sc.s))
	off := slices.Grow(sc.off[:0], n+1)[:n+1]
	clear(off)
	for _, src := range sc.from {
		off[src+1]++
	}
	for k := range n {
		off[k+1] += off[k]
	}
	rows := slices.Grow(sc.rows[:0], len(sc.to))[:len(sc.to)]
	for x, src := range sc.from {
		rows[off[src]] = sc.to[x]
		off[src]++
	}
	sc.off, sc.rows = off, rows
	lo := int32(0)
	for k := range n {
		hi := off[k]
		if err := fn(m.Inv[base+int32(k)], rows[lo:hi:hi]); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// supernode gathers the targets of every graph of need, the graphs of
// supernode sc.s: the resident ones first, as the cache holds them, then
// the rest as their spans are read. It counts the graphs it read as
// loads, and the lookups and list entries decoded, on the cache's
// counters; nothing else of the cache changes.
func (sc *scanner) supernode(ctx context.Context, need []needEntry) error {
	r := sc.r
	miss := need[:0]
	var entries int64
	for _, ne := range need {
		g := r.cache.resident(ne.gid)
		if g == nil {
			miss = append(miss, ne)
			continue
		}
		lists := g.lists
		if !g.whole {
			var err error
			if lists, err = sc.decodeLists(ne.gid, g); err != nil {
				return err
			}
			entries += int64(len(lists.IDs))
		}
		if err := sc.add(ne, g, lists); err != nil {
			return err
		}
	}
	intra := r.m.IntraGID[sc.s]
	r.cache.countLookups(intra, int64(len(need)-len(miss)), int64(len(miss)))
	var loads, superLoads int64
	for k := 0; k < len(miss); {
		first := &r.m.Directory[miss[k].gid]
		spanEnd, end := first.Offset+int64(first.NumBytes), k+1
		for ; end < len(miss); end++ {
			e := &r.m.Directory[miss[end].gid]
			if !joins(first, spanEnd, e) {
				break
			}
			spanEnd = e.Offset + int64(e.NumBytes)
		}
		err := r.readSpan(ctx, miss[k].gid, spanEnd, end-k, func(_ context.Context, span []byte) error {
			for _, ne := range miss[k:end] {
				e := &r.m.Directory[ne.gid]
				off := e.Offset - first.Offset
				if err := r.fault(ne.gid); err != nil {
					return err
				}
				niSize, njSize := r.sizes(e)
				if err := sc.view.init(e.Kind, span[off:off+int64(e.NumBytes)], int(e.NumLists), niSize, njSize, sc.srcs[:0]); err != nil {
					return fmt.Errorf("snode: graph %d: %w", ne.gid, err)
				}
				if e.Kind == kindSuperPos {
					sc.srcs = sc.view.srcs
				}
				lists, err := sc.decodeLists(ne.gid, &sc.view)
				if err != nil {
					return err
				}
				loads++
				if e.Kind != kindIntra {
					superLoads++
				}
				entries += int64(len(lists.IDs))
				if err := sc.add(ne, &sc.view, lists); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		k = end
	}
	r.cache.scanned(intra, loads-superLoads, superLoads, entries)
	return nil
}

// decodeLists decodes every list of the encoded graph g into the
// decoder's scratch, timed like any decode.
func (sc *scanner) decodeLists(gid GraphID, g *graph) (refenc.Lists, error) {
	start := sc.r.decodeStart()
	lists, err := sc.dec.Decode(g.listReader(), int(g.numLists), uint64(g.bound))
	sc.r.observeDecode(start)
	if err != nil {
		return refenc.Lists{}, fmt.Errorf("snode: graph %d: %w", gid, g.listErr(err))
	}
	return lists, nil
}

// add checks the lists of graph ne, of kind and bound as g records them,
// counts its links and gathers its targets, in external IDs, with their
// sources.
func (sc *scanner) add(ne needEntry, g *graph, lists refenc.Lists) error {
	links, err := sc.r.checkWhole(ne.gid, sc.s, ne.j, g.kind, lists, g.bound)
	if err != nil {
		return err
	}
	sc.edges += links
	inv := sc.r.m.Inv[sc.r.m.SnBase[ne.j]:]
	// The graph gives a target per link: room for them all at once.
	w := len(sc.to)
	sc.from = slices.Grow(sc.from, int(links))[:w+int(links)]
	sc.to = slices.Grow(sc.to, int(links))[:w+int(links)]
	for k := range lists.Len() {
		src, targets := int32(k), lists.At(k)
		switch g.kind {
		case kindSuperPos:
			src = g.srcs[k]
		case kindSuperNeg:
			sc.neg = appendComplement(sc.neg[:0], targets, g.bound)
			targets = sc.neg
		}
		from, to := sc.from[w:w+len(targets)], sc.to[w:w+len(targets)]
		for x, t := range targets {
			from[x], to[x] = src, inv[t]
		}
		w += len(targets)
	}
	return nil
}

// checkWhole checks graph gid, of supernode s and target supernode j,
// decoded whole into lists (complements for a negative superedge graph
// over bound), against what only its payload can say — Open has already
// compared the directory with the supernode graph: it has as many lists
// as its directory entry records, and a superedge graph holds links. It
// returns the links the graph holds. Scan and Verify both run it.
func (r *Representation) checkWhole(gid GraphID, s, j int32, kind uint8, lists refenc.Lists, bound int32) (int64, error) {
	links := int64(len(lists.IDs))
	if kind == kindSuperNeg {
		links = int64(lists.Len())*int64(bound) - links
	}
	if e := &r.m.Directory[gid]; lists.Len() != int(e.NumLists) {
		return 0, fmt.Errorf("graph %d decoded to %d lists, its directory entry records %d", gid, lists.Len(), e.NumLists)
	} else if links <= 0 && e.Kind != kindIntra {
		return 0, fmt.Errorf("superedge (%d,%d) holds %d links (no such edge should exist)", s, j, links)
	}
	return links, nil
}

// checkEdges checks the links a whole-graph read counted against the
// recorded NumEdges.
func (r *Representation) checkEdges(edges int64) error {
	if edges != r.m.NumEdges {
		return fmt.Errorf("snode: representation holds %d links, metadata records %d",
			edges, r.m.NumEdges)
	}
	return nil
}

// Verify decodes every graph and runs Scan's checks (checkWhole,
// checkEdges), and leaves what the budget holds resident whole: it reads
// through consult, its misses decoded straight to their whole form and
// admitted so, and a graph found resident encoded materialized in place.
// A pre-warm is Verify under a budget that holds the whole graph.
func (r *Representation) Verify() error {
	ctx := context.Background()
	var edges int64
	var need []needEntry
	for s := int32(0); s < int32(r.m.Stats.Supernodes); s++ {
		need = r.m.appendGraphs(need[:0], s)
		err := r.consultAs(ctx, s, nil, need, true, func(gid GraphID, j int32, g *graph, _ bool) error {
			if !g.whole {
				full, err := r.materialize(ctx, gid, g)
				if err != nil {
					return err
				}
				g = full
			}
			links, err := r.checkWhole(gid, s, j, g.kind, g.lists, g.bound)
			edges += links
			return err
		})
		if err != nil {
			return fmt.Errorf("snode: verify supernode %d: %w", s, err)
		}
	}
	return r.checkEdges(edges)
}

// Supernodes reports the supernode count; Superedges the superedge
// count (Figure 9 metrics).
func (r *Representation) Supernodes() int   { return r.m.Stats.Supernodes }
func (r *Representation) Superedges() int64 { return r.m.Stats.Superedges }

// DecodeCost is one payload-kind row of MeasureDecode: the cost of
// decoding every payload of that kind in the artifact.
type DecodeCost struct {
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
// `rounds` full decode passes and reports, per payload kind, the
// bytes, stored edges, and the fastest round's decode nanoseconds. The
// payload bytes are read up front so the measurement is pure CPU decode
// cost — no I/O, no cache, no metrics hooks. It is the instrument
// behind the suite's snode.decode_ns_per_edge rows; serving is
// unaffected (the graph cache is bypassed entirely).
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
	agg := map[uint8]*DecodeCost{}
	// Static tallies (and a correctness pass) once, untimed.
	for gid := range r.m.Directory {
		e := &r.m.Directory[gid]
		g, err := r.decodePayload(e, bufs[gid])
		if err != nil {
			return nil, fmt.Errorf("snode: measure decode graph %d: %w", gid, err)
		}
		dc := agg[e.Kind]
		if dc == nil {
			dc = &DecodeCost{Kind: kindName(e.Kind)}
			agg[e.Kind] = dc
		}
		dc.Graphs++
		dc.Bytes += int64(e.NumBytes)
		dc.Edges += g.edgeCount()
	}
	for round := 0; round < rounds; round++ {
		perKind := map[uint8]int64{}
		for gid := range r.m.Directory {
			e := &r.m.Directory[gid]
			start := time.Now()
			if _, err := r.decodePayload(e, bufs[gid]); err != nil {
				return nil, err
			}
			perKind[e.Kind] += time.Since(start).Nanoseconds()
		}
		for k, ns := range perKind {
			if round == 0 || ns < agg[k].Ns {
				agg[k].Ns = ns
			}
		}
	}
	out := make([]DecodeCost, 0, len(agg))
	for _, dc := range agg {
		out = append(out, *dc)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Kind < out[b].Kind })
	return out, nil
}
