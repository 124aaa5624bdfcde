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

// claimTraced wraps graphCache.claimNoWait with trace attribution: a
// non-leader outcome is a coalesced miss — either found decoded by
// claim time or waited out another goroutine's in-flight decode — and
// traced requests record the wait as a "cache.wait" span, so a slow
// query that lost time blocked behind someone else's decode shows it.
// The wait honours ctx cancellation: a dead request stops waiting, and
// the flight itself is untouched — its leader still completes it.
func (r *Representation) claimTraced(ctx context.Context, gid GraphID) (decodedGraph, error, bool) {
	g, fl, leader := r.cache.claimNoWait(gid)
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
func (r *Representation) decodeTraced(ctx context.Context, gid GraphID, buf []byte) (decodedGraph, error) {
	if !trace.Active(ctx) {
		return r.decode(gid, buf)
	}
	_, span := trace.Start(ctx, "cache.decode")
	span.SetAttr("gid", int64(gid))
	span.SetAttr("kind", int64(r.m.Directory[gid].Kind))
	span.SetAttr("bytes", int64(len(buf)))
	span.SetAttr("leader", 1)
	g, err := r.decode(gid, buf)
	span.End()
	trace.Add(ctx, trace.CtrDecodes, 1)
	trace.Add(ctx, trace.CtrDecodedBytes, int64(len(buf)))
	return g, err
}

// decode parses one graph's encoded bytes into the form a load leaves
// in the cache — the encoded state, which for a positive superedge graph
// has its sources decoded. materialize and appendEncoded are the two
// ways on from there.
func (r *Representation) decode(gid GraphID, buf []byte) (decodedGraph, error) {
	if r.decodeFault != nil {
		if err := r.decodeFault(gid); err != nil {
			return nil, err
		}
	}
	e := &r.m.Directory[gid]
	start := r.decodeStart()
	defer r.observeDecode(start)
	niSize, njSize := r.sizes(e)
	return newEncodedGraph(e.Kind, buf, int(e.NumLists), niSize, njSize)
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
func (r *Representation) materialize(ctx context.Context, gid GraphID, sg *encodedGraph) (decodedGraph, error) {
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
func (r *Representation) decodeList(gid GraphID, sg *encodedGraph, k int, dst []int32) ([]int32, error) {
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

// decodePayload is the bare whole-graph decode: no hooks, no metrics.
// The serving path decodes through decode; MeasureDecode times this
// directly.
func (r *Representation) decodePayload(e *dirEntry, buf []byte) (decodedGraph, error) {
	niSize, njSize := r.sizes(e)
	return decodeGraph(e.Kind, buf, int(e.NumLists), niSize, njSize)
}

// consult hands each graph of need — graphs of supernode i, in ascending
// gid — that can hold a link of a page with a local ID in locals to
// process exactly once, streaming: resident graphs first (hit set), then the
// misses as they are read, so a working set larger than the cache budget
// is read once per access rather than thrashing (load-all then re-read).
// Uncached graphs are fetched with span reads — §3.3's disk layout puts
// a supernode's graphs in one contiguous ascending run, so the spans
// collapse into few sequential reads. It is the one way a graph gets
// from disk into the cache.
//
// A resident graph is looked up through its cache node, and the node's
// source summary (cacheNode.rulesOutAll) can show that none of the pages
// is a source of it: such a graph is a hit like any other, touched and
// counted at its turn, and is not handed to process. This is the one
// place the summary is read; a miss is handed to process whatever its
// sources. locals is ascending, and nil to hand every graph on (Scan).
//
// need is used as scratch; the first error from process, a read or a
// decode ends the walk.
func (r *Representation) consult(ctx context.Context, i int32, locals []int32, need []needEntry, process func(gid GraphID, j int32, g decodedGraph, hit bool) error) error {
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
		n := r.cache.lookupNode(ne.gid)
		switch {
		case n == nil:
			miss = append(miss, ne)
		case firstErr != nil, locals != nil && n.rulesOutAll(locals, lo, hi, mask):
			// A hit, touched and counted, with nothing to hand on.
		default:
			firstErr = process(ne.gid, ne.j, n.g, true)
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
		if spanErr := r.readDecodeSpan(ctx, claimed, spanEnd, process); err == nil {
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

// readDecodeSpan reads the contiguous byte span covering the claimed
// graphs in one ReadAt, decodes each, and completes every claimed
// in-flight decode exactly once. The deferred sweep makes the
// completion guarantee unconditional: whether the read fails, a decode
// fails, or a decode (or the process callback) panics, no claimed
// flight is left open — an abandoned flight would block its coalesced
// waiters forever. Each graph is handed to process as it is decoded,
// until a decode or process fails; the first error is returned after all
// completions.
func (r *Representation) readDecodeSpan(ctx context.Context, claimed []needEntry, spanEnd int64, process func(gid GraphID, j int32, g decodedGraph, hit bool) error) error {
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
	var firstErr error
	for _, ne := range claimed {
		e := &r.m.Directory[ne.gid]
		off := e.Offset - first.Offset
		g, err := r.decodeTraced(spanCtx, ne.gid, rb[off:off+int64(e.NumBytes)])
		r.cache.complete(ne.gid, g, e.Kind, err)
		completed++
		if err == nil && firstErr == nil {
			err = process(ne.gid, ne.j, g, false)
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Scan reads the whole graph once and hands fn each page's out-links in
// external IDs: the "global access" mode, and the one whole-graph read.
// It reads supernode by supernode in disk order, each graph once through
// the span reads a lookup makes, and emits graph by graph: each graph's
// lists are appended to the rows of its supernode's pages, which fn then
// gets in internal ID order. A row is valid only during its fn call, and
// fn may call Out. It decodes every graph whole, and leaves what the
// budget holds resident so.
//
// It checks what only the payloads can say (Open has already compared
// the directory with the supernode graph): every graph decodes, with as
// many lists as its directory entry records, positive superedge graphs
// hold links, negative ones leave some, and the total positive edge count
// matches the recorded NumEdges. ctx is checked between supernodes, and
// an error from fn ends the scan.
func (r *Representation) Scan(ctx context.Context, fn func(p webgraph.PageID, out []webgraph.PageID) error) error {
	var edges int64
	var need []needEntry
	var rows [][]webgraph.PageID
	var neg []int32
	for s := int32(0); s < int32(r.m.Stats.Supernodes); s++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := int(r.snSize(s))
		rows = slices.Grow(rows[:0], n)[:n] // every row emptied by its emission
		need = r.m.appendGraphs(need[:0], s)
		err := r.consult(ctx, s, nil, need, func(gid GraphID, j int32, g decodedGraph, _ bool) error {
			if sg, ok := g.(*encodedGraph); ok {
				full, err := r.materialize(ctx, gid, sg)
				if err != nil {
					return err
				}
				g = full
			}
			lists, negBound := storedLists(g)
			links := g.edgeCount()
			if negBound > 0 {
				links = int64(n)*int64(negBound) - links
			}
			if e := &r.m.Directory[gid]; lists.Len() != int(e.NumLists) {
				return fmt.Errorf("graph %d decoded to %d lists, its directory entry records %d", gid, lists.Len(), e.NumLists)
			} else if links <= 0 && e.Kind != kindIntra {
				return fmt.Errorf("superedge (%d,%d) holds %d links (no such edge should exist)", s, j, links)
			}
			edges += links
			inv := r.m.Inv[r.m.SnBase[j]:]
			for k := range lists.Len() {
				src, targets := int32(k), lists.At(k)
				if sp, ok := g.(*decodedSuperPos); ok {
					src = sp.srcs[k]
				} else if negBound > 0 {
					neg = appendComplement(neg[:0], targets, negBound)
					targets = neg
				}
				for _, t := range targets {
					rows[src] = append(rows[src], inv[t])
				}
			}
			return nil
		})
		for k := 0; err == nil && k < n; k++ {
			err = fn(r.m.Inv[r.m.SnBase[s]+int32(k)], rows[k])
			rows[k] = rows[k][:0]
		}
		if err != nil {
			return fmt.Errorf("snode: scan supernode %d: %w", s, err)
		}
	}
	if edges != r.m.NumEdges {
		return fmt.Errorf("snode: representation holds %d links, metadata records %d",
			edges, r.m.NumEdges)
	}
	return nil
}

// Verify is Scan with a visitor that does nothing: the whole graph's
// checks, and the cache it leaves behind.
func (r *Representation) Verify() error {
	return r.Scan(context.Background(), func(webgraph.PageID, []webgraph.PageID) error { return nil })
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
