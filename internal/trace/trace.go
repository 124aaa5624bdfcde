// Package trace provides request-scoped execution traces for the
// serving path: a span tree per sampled query, propagated through the
// engine, the S-Node reader, the buffer manager, the worker pool, and
// the simulated disk via context.Context.
//
// The aggregate metrics (internal/metrics) can say "p99 is 40ms"; a
// trace says *why one request was slow* — which supernodes it visited,
// which decodes it led versus waited on, and where the modeled seeks
// and paced stalls landed. The compressed-graph serving literature
// (see PAPERS.md, "Web Graph Compression with Fast Access") makes the
// point this package operationalizes: per-request decode and seek
// behaviour, not averages, decides whether a compressed representation
// can serve traffic.
//
// # Cost model
//
// Tracing is off by default and sampled when on. The untraced hot path
// pays one context.Value lookup and a nil check per instrumentation
// point — no allocations, no atomics, no locks. This is asserted by
// TestTracingPrimitivesUntracedZeroAlloc and by the engine-level
// overhead guard in internal/query (wired into `make check`). Traced
// requests may allocate: they are rare by construction (sampling) and
// buy a full execution tree.
//
// Spans are capped per trace (maxSpans); beyond the cap new
// spans are counted as dropped rather than recorded, so a pathological
// query cannot balloon a trace. Per-request totals (cache hits,
// decoded bytes, seeks, ...) are kept as fixed atomic counters on the
// trace itself, so they stay exact even when spans drop.
package trace

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Per-request counter indices (Trace.Counter, Add). Fixed small set so
// the trace can hold them in a flat atomic array: counting never
// allocates, even from concurrent goroutines of one request.
const (
	CtrLookups      = iota // adjacency lookups (OutFiltered calls)
	CtrGraphsNeeded        // lower-level graphs consulted
	CtrCacheHits           // buffer-manager hits
	CtrCacheMisses         // buffer-manager misses
	CtrCoalesced           // misses resolved by another goroutine's decode
	CtrDecodes             // decodes this request led
	CtrDecodedBytes        // encoded bytes this request decoded
	CtrMaterialized        // encoded cache entries this request decoded whole
	CtrReads               // simulated disk reads
	CtrBytesRead           // bytes transferred
	CtrSeeks               // modeled seeks charged
	CtrStalls              // paced stalls slept
	CtrStallNanos          // wall time slept in paced stalls
	NumCounters
)

// CtrNames maps counter indices to export names.
var CtrNames = [NumCounters]string{
	"lookups", "graphs_needed", "cache_hits", "cache_misses",
	"coalesced", "decodes", "decoded_bytes", "materialized", "reads",
	"bytes_read", "seeks", "stalls", "stall_nanos",
}

// Attr is one span attribute: a static key and an integer value (the
// serving path's attributes are counts, byte sizes, and nanosecond
// durations; keeping them numeric keeps recording allocation-light).
type Attr struct {
	Key string
	Val int64
}

// maxSpans caps spans per trace, the root included.
const maxSpans = 2048

// maxAttrs bounds attributes per span (fixed array, no per-attr
// allocation). Excess attributes are dropped silently.
const maxAttrs = 6

// span is one node of the tree. Offsets are relative to Trace.Start.
type span struct {
	name   string
	parent int32 // index into Trace.spans; -1 for the root
	start  time.Duration
	dur    time.Duration // -1 while open
	nattrs int32
	attrs  [maxAttrs]Attr
}

// Trace is one request's execution record. Safe for concurrent use:
// spans may be recorded from many goroutines of the same request
// (parallel batched lookups, coalesced waiters).
type Trace struct {
	ID    uint64
	Class string // slow-log class, e.g. "Q3"
	// ParentID, when nonzero, names the remote (router-side) trace this
	// trace is one leg of: the trace was force-sampled by StartLinked
	// because a parent process had already sampled the request.
	ParentID uint64
	Start    time.Time

	mu      sync.Mutex
	spans   []span
	dropped int64
	total   time.Duration
	done    bool
	remotes []Remote

	ctrs [NumCounters]atomic.Int64
}

// Remote is a completed span subtree fetched from another process —
// one shard leg of a routed request, stitched under the router trace's
// fanout span. The subtree is stored in exported form: it arrived over
// the wire as the shard's /debug/traces JSON.
type Remote struct {
	// Label names the process lane the subtree renders in, e.g.
	// "shard1 http://127.0.0.1:40213".
	Label string `json:"label"`
	// TraceID is the remote-local trace ID (fetchable from that
	// process's /debug/traces while retained).
	TraceID uint64 `json:"trace_id"`
	// Start is the remote trace's wall-clock start; span offsets in
	// Root are relative to it. Cross-host clock skew shifts the lane,
	// but span durations and nesting stay exact.
	Start time.Time `json:"start"`
	// Root is the remote span tree.
	Root *SpanJSON `json:"root"`
	// Counters are the remote trace's per-request counters.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// AttachRemote stitches a remote subtree onto the trace. Safe to call
// after Finish: remotes are export-side data, fetched once the remote
// leg has answered.
func (t *Trace) AttachRemote(r Remote) {
	if t == nil || r.Root == nil {
		return
	}
	t.mu.Lock()
	t.remotes = append(t.remotes, r)
	t.mu.Unlock()
}

// Counter reads one per-request counter.
func (t *Trace) Counter(ctr int) int64 { return t.ctrs[ctr].Load() }

// Total returns the finished trace's duration (0 while in flight).
func (t *Trace) Total() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// SetAttr attaches an attribute to the trace's root span.
func (t *Trace) SetAttr(key string, v int64) {
	if t == nil {
		return
	}
	t.setAttr(0, key, v)
}

func (t *Trace) startSpan(name string, parent int32, start time.Duration) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: start, dur: -1})
	return int32(len(t.spans) - 1)
}

func (t *Trace) endSpan(idx int32) {
	now := time.Since(t.Start)
	t.mu.Lock()
	if t.spans[idx].dur < 0 {
		t.spans[idx].dur = now - t.spans[idx].start
	}
	t.mu.Unlock()
}

func (t *Trace) setAttr(idx int32, key string, v int64) {
	t.mu.Lock()
	s := &t.spans[idx]
	// Last write wins for a repeated key; excess distinct keys drop.
	for i := int32(0); i < s.nattrs; i++ {
		if s.attrs[i].Key == key {
			s.attrs[i].Val = v
			t.mu.Unlock()
			return
		}
	}
	if s.nattrs < maxAttrs {
		s.attrs[s.nattrs] = Attr{Key: key, Val: v}
		s.nattrs++
	}
	t.mu.Unlock()
}

// record appends an already-measured span (used for intervals measured
// with explicit timestamps, like queue waits and paced stalls).
func (t *Trace) record(name string, parent int32, start time.Time, dur time.Duration, attrs []Attr) {
	off := start.Sub(t.Start)
	t.mu.Lock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		t.mu.Unlock()
		return
	}
	s := span{name: name, parent: parent, start: off, dur: dur}
	for _, a := range attrs {
		if s.nattrs == maxAttrs {
			break
		}
		s.attrs[s.nattrs] = a
		s.nattrs++
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// ctxKey carries a spanRef in a context. The key is a zero-size type:
// looking it up on an untraced context allocates nothing.
type ctxKey struct{}

type spanRef struct {
	t   *Trace
	idx int32
}

func fromCtx(ctx context.Context) spanRef {
	r, _ := ctx.Value(ctxKey{}).(spanRef)
	return r
}

// FromContext returns the trace carried by ctx, or nil.
func FromContext(ctx context.Context) *Trace { return fromCtx(ctx).t }

// Active reports whether ctx carries a trace. Instrumentation points
// use it to skip timestamping and attribute assembly when untraced.
func Active(ctx context.Context) bool { return fromCtx(ctx).t != nil }

// Add bumps a per-request counter; a no-op without a trace in ctx.
func Add(ctx context.Context, ctr int, n int64) {
	if t := fromCtx(ctx).t; t != nil {
		t.ctrs[ctr].Add(n)
	}
}

// Span is a handle to an open span. The zero value is inert: every
// method on it is a nil-check no-op, so instrumented code calls
// End/SetAttr unconditionally.
type Span struct {
	t   *Trace
	idx int32
}

// Start opens a child span under ctx's current span and returns a
// context that parents subsequent spans to it. Without a trace in ctx
// it returns ctx unchanged and an inert Span, allocating nothing.
func Start(ctx context.Context, name string) (context.Context, Span) {
	r := fromCtx(ctx)
	if r.t == nil {
		return ctx, Span{}
	}
	idx := r.t.startSpan(name, r.idx, time.Since(r.t.Start))
	if idx < 0 {
		return ctx, Span{}
	}
	return context.WithValue(ctx, ctxKey{}, spanRef{r.t, idx}), Span{r.t, idx}
}

// RecordSpan records an already-measured interval as a child of ctx's
// current span. Callers on hot paths must guard with Active(ctx): the
// variadic attrs would otherwise allocate per call even untraced.
func RecordSpan(ctx context.Context, name string, start time.Time, dur time.Duration, attrs ...Attr) {
	r := fromCtx(ctx)
	if r.t == nil {
		return
	}
	r.t.record(name, r.idx, start, dur, attrs)
}

// End closes the span (idempotent; only the first End sets duration).
func (s Span) End() {
	if s.t == nil {
		return
	}
	s.t.endSpan(s.idx)
}

// SetAttr attaches an attribute to the span.
func (s Span) SetAttr(key string, v int64) {
	if s.t == nil {
		return
	}
	s.t.setAttr(s.idx, key, v)
}
