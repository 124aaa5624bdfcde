package delta

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"snode/internal/iosim"
	"snode/internal/metrics"
	"snode/internal/store"
	"snode/internal/trace"
	"snode/internal/webgraph"
)

// Config parameterizes an Overlay.
type Config struct {
	// Pages is the base corpus metadata, indexed by PageID. Required:
	// it is the page side of a fold-back corpus. AddPage appends to it.
	Pages []webgraph.PageMeta
	// Dir holds the segment files. Required.
	Dir string
	// Model is the simulated disk the segment reads are charged under
	// (the same accounting every representation routes through).
	Model iosim.Model
}

// Overlay layers live link mutations over an immutable LinkStore. It
// implements store.LinkStore and store.ContextLinkStore; reads merge
//
//	base < segments (oldest..newest) < sealing memtable < active memtable
//
// with the newest layer's op per (src, dst) pair deciding the link's
// state. Pages no layer mentions are served straight from the base
// store (pass-through), so a zero-delta overlay costs one existence
// probe per lookup.
//
// Thread safety: any number of goroutines may call the read methods,
// Apply, AddPage, Seal, and the compactor's operations concurrently.
// Structural changes (seal, merge, fold) swap layer lists under a
// write lock that waits out in-flight reads, so retired segments are
// closed only when no reader can hold them.
type Overlay struct {
	dir string
	acc *iosim.Accountant

	// active memtable; swapped atomically by seal.
	mt atomic.Pointer[memtable]

	// numPages mirrors len(pages) for lock-free Apply validation.
	numPages atomic.Int64

	// mu guards base, segments, frozen, and pages. Read methods hold it
	// shared for their whole merge so structural swaps cannot retire a
	// segment mid-read.
	mu       sync.RWMutex
	base     store.LinkStore
	baseCtx  store.ContextLinkStore // base's ctx-aware path, nil if absent
	ownsBase bool                   // base came from a fold; Close it on retire
	baseDir  string                 // fold output dir of an owned base ("" otherwise)
	segments []*segment             // oldest .. newest
	frozen   []*memtable            // sealed tables not yet on disk
	pages    []webgraph.PageMeta

	// structMu serializes structural operations (seal, merge, fold), so
	// the segment list only ever changes under it and a fold's snapshot
	// stays a prefix until its swap.
	structMu sync.Mutex
	seq      atomic.Uint64

	// counters (registered as metrics funcs; segReads feeds GraphsLoaded).
	appliedOps    atomic.Int64
	seals         atomic.Int64
	compactions   atomic.Int64
	folds         atomic.Int64
	mergeBytesIn  atomic.Int64
	mergeBytesOut atomic.Int64
	segReads      atomic.Int64
	passthrough   atomic.Int64
	mergedLookups atomic.Int64
}

// NewOverlay wraps base. The segment directory is created if missing.
func NewOverlay(base store.LinkStore, cfg Config) (*Overlay, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("delta: Config.Dir required")
	}
	if len(cfg.Pages) < base.NumPages() {
		return nil, fmt.Errorf("delta: %d pages of metadata for %d-page base",
			len(cfg.Pages), base.NumPages())
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("delta: %w", err)
	}
	o := &Overlay{
		dir:   cfg.Dir,
		acc:   iosim.NewAccountant(cfg.Model),
		base:  base,
		pages: append([]webgraph.PageMeta(nil), cfg.Pages...),
	}
	o.baseCtx, _ = base.(store.ContextLinkStore)
	o.mt.Store(newMemtable())
	o.numPages.Store(int64(len(o.pages)))
	return o, nil
}

// Name implements store.LinkStore.
func (o *Overlay) Name() string {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.base.Name() + "+delta"
}

// NumPages implements store.LinkStore: base pages plus pages added
// through AddPage.
func (o *Overlay) NumPages() int { return int(o.numPages.Load()) }

// AddPage registers a new page (an incremental crawl discovering a
// URL) and returns its ID. Links to and from it are applied as normal
// mutations afterwards.
func (o *Overlay) AddPage(meta webgraph.PageMeta) webgraph.PageID {
	o.mu.Lock()
	o.pages = append(o.pages, meta)
	id := webgraph.PageID(len(o.pages) - 1)
	o.numPages.Store(int64(len(o.pages)))
	o.mu.Unlock()
	return id
}

// Apply records a batch of link mutations in the active memtable. It
// never blocks on structural operations — writers contend only on
// memtable shard mutexes — and is safe to call from any number of
// goroutines. On traced requests the batch becomes a "delta.apply"
// span.
func (o *Overlay) Apply(ctx context.Context, muts []Mutation) error {
	np := int(o.numPages.Load())
	for _, m := range muts {
		if err := m.Validate(np); err != nil {
			return err
		}
	}
	_, span := trace.Start(ctx, "delta.apply")
	for _, m := range muts {
		// A concurrent seal can retire the table between load and
		// apply; retry against the fresh one (seal guarantees a table
		// that accepted a write has it in its snapshot).
		for !o.mt.Load().apply(m) {
		}
	}
	o.appliedOps.Add(int64(len(muts)))
	span.SetAttr("ops", int64(len(muts)))
	span.End()
	return nil
}

// scratchPool recycles base-adjacency buffers for the merged read path.
var scratchPool = sync.Pool{New: func() any { return new([]webgraph.PageID) }}

// Out implements store.LinkStore.
func (o *Overlay) Out(p webgraph.PageID, buf []webgraph.PageID) ([]webgraph.PageID, error) {
	return o.OutFilteredCtx(context.Background(), p, nil, buf)
}

// OutFiltered implements store.LinkStore.
func (o *Overlay) OutFiltered(p webgraph.PageID, f *store.Filter, buf []webgraph.PageID) ([]webgraph.PageID, error) {
	return o.OutFilteredCtx(context.Background(), p, f, buf)
}

// OutFilteredCtx implements store.ContextLinkStore: the merged read.
// Unmutated pages pass through to the base store; mutated pages merge
// the base adjacency with the effective delta ops, removals shadowing
// base links and additions filtered by the same page/domain predicate
// the base applies. Added targets are appended in sorted order after
// the base's own (deterministic) order, so the overlay's output is
// deterministic too.
func (o *Overlay) OutFilteredCtx(ctx context.Context, p webgraph.PageID, f *store.Filter, buf []webgraph.PageID) ([]webgraph.PageID, error) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	if p < 0 || int(p) >= len(o.pages) {
		return buf, fmt.Errorf("delta: page %d out of range", p)
	}
	mt := o.mt.Load()
	touched := mt.hasPage(p)
	if !touched {
		for _, fm := range o.frozen {
			if fm.hasPage(p) {
				touched = true
				break
			}
		}
	}
	if !touched {
		for _, s := range o.segments {
			if _, ok := s.find(p); ok {
				touched = true
				break
			}
		}
	}
	baseN := o.base.NumPages()
	if !touched {
		if int(p) >= baseN {
			return buf, nil // added page without links yet
		}
		o.passthrough.Add(1)
		return o.baseOut(ctx, p, f, buf)
	}

	o.mergedLookups.Add(1)
	// Effective ops for p: layers visited oldest to newest, later
	// layers overwriting — exactly the shadowing rule.
	ops := map[webgraph.PageID]Op{}
	for _, s := range o.segments {
		read, err := s.opsInto(ctx, p, ops)
		if err != nil {
			return buf, err
		}
		if read {
			o.segReads.Add(1)
		}
	}
	for _, fm := range o.frozen {
		fm.opsInto(p, ops)
	}
	mt.opsInto(p, ops)

	// Base adjacency (filter pushed down to the base store), with
	// removals applied and adds the base already holds deduplicated.
	if int(p) < baseN {
		sp := scratchPool.Get().(*[]webgraph.PageID)
		scratch, err := o.baseOut(ctx, p, f, (*sp)[:0])
		if err != nil {
			*sp = scratch
			scratchPool.Put(sp)
			return buf, err
		}
		for _, t := range scratch {
			if op, ok := ops[t]; ok {
				delete(ops, t)
				if op == OpRemove {
					continue
				}
			}
			buf = append(buf, t)
		}
		*sp = scratch
		scratchPool.Put(sp)
	}
	// Remaining adds, under the same filter predicate the base applies.
	addStart := len(buf)
	for d, op := range ops {
		if op != OpAdd {
			continue
		}
		if f.Accepts(d) {
			buf = append(buf, d)
		}
	}
	added := buf[addStart:]
	sort.Slice(added, func(i, j int) bool { return added[i] < added[j] })
	return buf, nil
}

// baseOut routes one base read through the ctx-aware path when the
// base provides it.
func (o *Overlay) baseOut(ctx context.Context, p webgraph.PageID, f *store.Filter, buf []webgraph.PageID) ([]webgraph.PageID, error) {
	if o.baseCtx != nil {
		return o.baseCtx.OutFilteredCtx(ctx, p, f, buf)
	}
	if f == nil {
		return o.base.Out(p, buf)
	}
	return o.base.OutFiltered(p, f, buf)
}

// Stats implements store.LinkStore: the base store's accounting plus
// the overlay's own segment I/O, with segment block reads counted as
// load units.
func (o *Overlay) Stats() store.AccessStats {
	o.mu.RLock()
	s := o.base.Stats()
	o.mu.RUnlock()
	ds := o.acc.Stats()
	s.IO.Seeks += ds.Seeks
	s.IO.BytesRead += ds.BytesRead
	s.IO.SkippedBytes += ds.SkippedBytes
	s.IO.Reads += ds.Reads
	s.IO.Stalls += ds.Stalls
	s.IO.StallNanos += ds.StallNanos
	s.GraphsLoaded += o.segReads.Load()
	return s
}

// ResetStats implements store.LinkStore.
func (o *Overlay) ResetStats() {
	o.mu.RLock()
	o.base.ResetStats()
	o.mu.RUnlock()
	o.acc.Reset()
	o.segReads.Store(0)
}

// ResetCache implements store.CacheResetter by forwarding to the base.
func (o *Overlay) ResetCache(budget int64) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	if cr, ok := o.base.(store.CacheResetter); ok {
		cr.ResetCache(budget)
	}
}

// SetPace implements store.Pacer: both the base store's reads and the
// overlay's segment reads stall for their modeled cost times scale.
func (o *Overlay) SetPace(scale float64) {
	o.mu.RLock()
	if p, ok := o.base.(store.Pacer); ok {
		p.SetPace(scale)
	}
	o.mu.RUnlock()
	o.acc.SetPace(scale)
}

// SizeBytes implements store.Sized: the base representation plus the
// live delta (segments on disk, memtable in memory).
func (o *Overlay) SizeBytes() int64 {
	o.mu.RLock()
	defer o.mu.RUnlock()
	var n int64
	if s, ok := o.base.(store.Sized); ok {
		n = s.SizeBytes()
	}
	for _, s := range o.segments {
		n += s.size
	}
	for _, fm := range o.frozen {
		n += fm.bytes()
	}
	return n + o.mt.Load().bytes()
}

// Close releases the segments and, when the current base came from a
// fold-back, the base as well (a caller-provided base is the caller's
// to close). Must not race in-flight operations.
func (o *Overlay) Close() error {
	o.structMu.Lock()
	defer o.structMu.Unlock()
	o.mu.Lock()
	defer o.mu.Unlock()
	var first error
	for _, s := range o.segments {
		if err := s.close(); err != nil && first == nil {
			first = err
		}
	}
	o.segments = nil
	if o.ownsBase {
		if err := o.base.Close(); err != nil && first == nil {
			first = err
		}
		o.ownsBase = false
	}
	return first
}

// DeltaStats is a point-in-time summary of the overlay's update state,
// reported by the churn experiments next to their latency rows.
type DeltaStats struct {
	MemtableEntries int64 `json:"memtable_entries"`
	MemtableBytes   int64 `json:"memtable_bytes"`
	Segments        int   `json:"segments"`
	SegmentBytes    int64 `json:"segment_bytes"`
	SegmentEntries  int64 `json:"segment_entries"`
	AppliedOps      int64 `json:"applied_ops"`
	Seals           int64 `json:"seals"`
	Compactions     int64 `json:"compactions"`
	Folds           int64 `json:"folds"`
}

// Stats returns the current update-state summary.
func (o *Overlay) DeltaStatsNow() DeltaStats {
	o.mu.RLock()
	defer o.mu.RUnlock()
	ds := DeltaStats{
		Segments:    len(o.segments),
		AppliedOps:  o.appliedOps.Load(),
		Seals:       o.seals.Load(),
		Compactions: o.compactions.Load(),
		Folds:       o.folds.Load(),
	}
	mt := o.mt.Load()
	ds.MemtableEntries = mt.len()
	ds.MemtableBytes = mt.bytes()
	for _, fm := range o.frozen {
		ds.MemtableEntries += fm.len()
		ds.MemtableBytes += fm.bytes()
	}
	for _, s := range o.segments {
		ds.SegmentBytes += s.size
		ds.SegmentEntries += s.entries
	}
	return ds
}

// RegisterMetrics exposes the overlay's counters and gauges on a
// registry under the given prefix (conventionally "delta", giving
// delta_memtable_bytes, delta_segments, delta_compactions, and the
// merge-amplification pair delta_merge_bytes_in/out), plus the segment
// accountant's I/O counters under prefix_io.
func (o *Overlay) RegisterMetrics(reg *metrics.Registry, prefix string) {
	o.acc.RegisterMetrics(reg, prefix+"_io")
	ds := func(f func(DeltaStats) int64) func() int64 {
		return func() int64 { return f(o.DeltaStatsNow()) }
	}
	reg.GaugeFunc(prefix+"_memtable_bytes", ds(func(s DeltaStats) int64 { return s.MemtableBytes }))
	reg.GaugeFunc(prefix+"_memtable_entries", ds(func(s DeltaStats) int64 { return s.MemtableEntries }))
	reg.GaugeFunc(prefix+"_segments", ds(func(s DeltaStats) int64 { return int64(s.Segments) }))
	reg.GaugeFunc(prefix+"_segment_bytes", ds(func(s DeltaStats) int64 { return s.SegmentBytes }))
	reg.GaugeFunc(prefix+"_segment_entries", ds(func(s DeltaStats) int64 { return s.SegmentEntries }))
	reg.CounterFunc(prefix+"_applied_ops", o.appliedOps.Load)
	reg.CounterFunc(prefix+"_seals", o.seals.Load)
	reg.CounterFunc(prefix+"_compactions", o.compactions.Load)
	reg.CounterFunc(prefix+"_folds", o.folds.Load)
	reg.CounterFunc(prefix+"_merge_bytes_in", o.mergeBytesIn.Load)
	reg.CounterFunc(prefix+"_merge_bytes_out", o.mergeBytesOut.Load)
	reg.CounterFunc(prefix+"_lookups_passthrough", o.passthrough.Load)
	reg.CounterFunc(prefix+"_lookups_merged", o.mergedLookups.Load)
	reg.CounterFunc(prefix+"_segment_reads", o.segReads.Load)
}

// Seal freezes the active memtable and writes it out as a new delta
// segment (a no-op on an empty memtable). Mutations arriving during
// the seal land in a fresh memtable; readers see the sealing table
// until its segment is installed, so no window drops updates. Traced
// requests record the write as a "delta.seal" span.
func (o *Overlay) Seal(ctx context.Context) error {
	o.structMu.Lock()
	defer o.structMu.Unlock()
	return o.sealLocked(ctx)
}

// sealLocked is Seal's body; the caller holds structMu.
func (o *Overlay) sealLocked(ctx context.Context) error {
	mt := o.mt.Load()
	o.mu.RLock()
	leftover := len(o.frozen)
	o.mu.RUnlock()
	if mt.len() == 0 && leftover == 0 {
		return nil
	}
	_, span := trace.Start(ctx, "delta.seal")
	defer span.End()
	fresh := newMemtable()
	o.mu.Lock()
	o.frozen = append(o.frozen, mt)
	// Tables a previous failed seal left frozen are retried as part of
	// this one (frozen order is oldest..newest, matching the merge).
	frozen := append([]*memtable(nil), o.frozen...)
	o.mt.Store(fresh)
	o.mu.Unlock()
	mt.seal()

	layers := make([][]pageOps, len(frozen))
	for i, fm := range frozen {
		layers[i] = fm.snapshot()
	}
	pos := mergePageOps(layers...)
	seq := o.seq.Add(1)
	path := filepath.Join(o.dir, fmt.Sprintf("seg-%06d.delta", seq))
	if err := writeSegmentFile(path, pos); err != nil {
		// The frozen table stays in the read path, so no update is
		// lost — the seal just isn't durable. Surface the error and let
		// the caller retry the seal or keep serving from memory.
		return err
	}
	seg, err := openSegment(path, o.acc, seq)
	if err != nil {
		os.Remove(path)
		return err
	}
	// Install the segment and retire the frozen table in one critical
	// section, so readers never see the ops in zero or two layers in a
	// way that changes the outcome (both hold identical latest-wins
	// state, so even the instant before this swap is consistent).
	o.mu.Lock()
	o.segments = append(o.segments, seg)
	// The sealed tables are a prefix of frozen (only sealLocked appends,
	// and structMu serializes it); drop exactly them.
	o.frozen = o.frozen[len(frozen):]
	o.mu.Unlock()
	o.seals.Add(1)
	span.SetAttr("entries", opsEntryCount(pos))
	span.SetAttr("bytes", seg.size)
	return nil
}

// MergeOnce merges the adjacent pair of segments with the smallest
// combined size into one (the size-tiered step the compactor repeats
// until its policy is satisfied). Returns false when fewer than two
// segments exist. Traced requests record a "delta.merge" span.
func (o *Overlay) MergeOnce(ctx context.Context) (bool, error) {
	o.structMu.Lock()
	defer o.structMu.Unlock()
	return o.mergeOnceLocked(ctx)
}

func (o *Overlay) mergeOnceLocked(ctx context.Context) (bool, error) {
	// The segment list only changes under structMu (held), so reading
	// it under RLock and swapping under Lock later is stable.
	o.mu.RLock()
	if len(o.segments) < 2 {
		o.mu.RUnlock()
		return false, nil
	}
	best := 0
	for i := 0; i+1 < len(o.segments); i++ {
		if o.segments[i].size+o.segments[i+1].size <
			o.segments[best].size+o.segments[best+1].size {
			best = i
		}
	}
	a, b := o.segments[best], o.segments[best+1]
	o.mu.RUnlock()

	_, span := trace.Start(ctx, "delta.merge")
	defer span.End()
	aPos, err := a.all(ctx)
	if err != nil {
		return false, err
	}
	bPos, err := b.all(ctx)
	if err != nil {
		return false, err
	}
	merged := mergePageOps(aPos, bPos)
	seq := o.seq.Add(1)
	path := filepath.Join(o.dir, fmt.Sprintf("seg-%06d.delta", seq))
	if err := writeSegmentFile(path, merged); err != nil {
		return false, err
	}
	seg, err := openSegment(path, o.acc, seq)
	if err != nil {
		os.Remove(path)
		return false, err
	}
	o.mu.Lock()
	o.segments[best] = seg
	o.segments = append(o.segments[:best+1], o.segments[best+2:]...)
	o.mu.Unlock()
	// No reader can hold a or b now: lookups pin the segment list with
	// the read lock for their whole merge.
	a.close()
	b.close()
	os.Remove(a.path)
	os.Remove(b.path)
	o.compactions.Add(1)
	o.mergeBytesIn.Add(a.size + b.size)
	o.mergeBytesOut.Add(seg.size)
	span.SetAttr("in_bytes", a.size+b.size)
	span.SetAttr("out_bytes", seg.size)
	return true, nil
}

// SegmentCount reports the current number of on-disk segments.
func (o *Overlay) SegmentCount() int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return len(o.segments)
}

// MemtableBytes reports the active+sealing memtable footprint (the
// compactor's seal trigger).
func (o *Overlay) MemtableBytes() int64 {
	return o.DeltaStatsNow().MemtableBytes
}
