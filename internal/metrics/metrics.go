// Package metrics is the serving path's observability substrate: a
// small, dependency-free registry of counters, gauges, and fixed-bucket
// latency histograms. Every hot-path operation (Counter.Add, Gauge.Set,
// Histogram.Observe) is a handful of atomic operations with zero
// allocations, so the instrumented read path — buffer-manager lookups,
// modeled disk reads, worker dispatch — pays no measurable tax. Named
// instruments are created once (get-or-create under a mutex) and held
// by the instrumented component; snapshots, the text exposition, and
// the JSON dump walk the registry without disturbing writers.
//
// The design follows the instrumentation practice the compressed-graph
// serving literature leans on (Log(Graph), Zuckerli): fine-grained
// access counters validate that a compressed representation stays fast
// under real access patterns, and latency quantiles (p50/p95/p99 from
// fixed histogram buckets) make tail behaviour visible without storing
// per-event samples.
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing int64.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n < 0 is ignored: counters only go
// up; use a Gauge for values that move both ways).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous int64 value.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by n (negative allowed).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value reads the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefaultLatencyBuckets spans 1µs..10s exponentially (factor ~3.2),
// bracketing everything from a cache hit to a fully paced 2002-disk
// query. Values are bucket upper bounds in nanoseconds.
var DefaultLatencyBuckets = []int64{
	int64(1 * time.Microsecond),
	int64(3 * time.Microsecond),
	int64(10 * time.Microsecond),
	int64(30 * time.Microsecond),
	int64(100 * time.Microsecond),
	int64(300 * time.Microsecond),
	int64(1 * time.Millisecond),
	int64(3 * time.Millisecond),
	int64(10 * time.Millisecond),
	int64(30 * time.Millisecond),
	int64(100 * time.Millisecond),
	int64(300 * time.Millisecond),
	int64(1 * time.Second),
	int64(3 * time.Second),
	int64(10 * time.Second),
}

// Histogram counts observations into fixed buckets. Observe is
// allocation-free; quantile estimates come from Snapshot. The last
// implicit bucket is +Inf, so no observation is ever dropped.
//
// Each bucket also carries an exemplar slot: the trace ID of the last
// observation recorded into it through ObserveExemplar. Exemplars link
// the aggregate view to the request-scoped one — "p99 is 40ms" in a
// tail bucket points at a concrete retained trace whose span tree
// explains the latency (internal/trace's slow-query log keeps it).
type Histogram struct {
	bounds    []int64 // sorted upper bounds; immutable after construction
	counts    []atomic.Int64
	exemplars []atomic.Uint64 // last trace ID per bucket; 0 = none
	sum       atomic.Int64
	count     atomic.Int64
}

// NewHistogram builds a histogram over the given sorted bucket upper
// bounds (DefaultLatencyBuckets if nil). Standalone use; instrumented
// code normally obtains one from a Registry.
func NewHistogram(bounds []int64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	b := make([]int64, len(bounds))
	copy(b, bounds)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{
		bounds:    b,
		counts:    make([]atomic.Int64, len(b)+1),
		exemplars: make([]atomic.Uint64, len(b)+1),
	}
}

// bucketIdx locates v's bucket by binary search: bounds are few and
// fixed, so this is a handful of compares with no allocation.
func (h *Histogram) bucketIdx(v int64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Observe records one value (for latency histograms, nanoseconds).
func (h *Histogram) Observe(v int64) {
	h.counts[h.bucketIdx(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// ObserveExemplar is Observe plus an exemplar: when traceID is nonzero
// it is stored in the observation's bucket (last write wins), so the
// bucket can name one concrete request that landed in it. With
// traceID 0 (an unsampled request) it costs the same as Observe.
func (h *Histogram) ObserveExemplar(v int64, traceID uint64) {
	idx := h.bucketIdx(v)
	h.counts[idx].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
	if traceID != 0 {
		h.exemplars[idx].Store(traceID)
	}
}

// ObserveDuration records a time.Duration.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// HistSnapshot is a consistent-enough copy of a histogram's state:
// bucket counts are loaded one by one, so a snapshot taken during
// concurrent Observes may be mid-update by a few observations, but
// every counter is a real value that was current during the snapshot.
type HistSnapshot struct {
	Bounds []int64 // bucket upper bounds; Counts has one extra +Inf slot
	Counts []int64
	// Exemplars holds, per bucket, the trace ID of the last exemplar-
	// carrying observation (0 = none) — the aggregate→trace pointer.
	Exemplars []uint64
	Count     int64
	Sum       int64
}

// Snapshot copies the histogram's counters.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds:    h.bounds,
		Counts:    make([]int64, len(h.counts)),
		Exemplars: make([]uint64, len(h.exemplars)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	for i := range h.exemplars {
		s.Exemplars[i] = h.exemplars[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	return s
}

// TailExemplar returns the trace ID in the highest occupied bucket
// that carries one (the p99-side pointer), or 0 when no exemplar has
// been recorded. This is what "pull the trace behind the tail" reads.
func (s HistSnapshot) TailExemplar() (bound int64, traceID uint64) {
	for i := len(s.Counts) - 1; i >= 0; i-- {
		if s.Counts[i] > 0 && i < len(s.Exemplars) && s.Exemplars[i] != 0 {
			b := int64(0)
			if i < len(s.Bounds) {
				b = s.Bounds[i]
			} else if len(s.Bounds) > 0 {
				b = s.Bounds[len(s.Bounds)-1]
			}
			return b, s.Exemplars[i]
		}
	}
	return 0, 0
}

// Quantile estimates the q-th quantile (0 < q <= 1) as the upper bound
// of the bucket holding the q-th observation (the usual fixed-bucket
// estimate; the +Inf bucket reports the largest finite bound). Returns
// 0 when the histogram is empty.
func (s HistSnapshot) Quantile(q float64) int64 {
	total := int64(0)
	for _, c := range s.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	seen := int64(0)
	for i, c := range s.Counts {
		seen += c
		if seen >= rank {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			return s.Bounds[len(s.Bounds)-1] // +Inf bucket: clamp
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

// P50, P95, P99 are the quantiles the serving experiments report.
func (s HistSnapshot) P50() int64 { return s.Quantile(0.50) }
func (s HistSnapshot) P95() int64 { return s.Quantile(0.95) }
func (s HistSnapshot) P99() int64 { return s.Quantile(0.99) }

// Registry holds named instruments. Get-or-create methods are safe for
// concurrent use; the returned instruments are intended to be looked up
// once and cached by the instrumented component.
type Registry struct {
	mu           sync.Mutex
	counters     map[string]*Counter
	gauges       map[string]*Gauge
	counterFuncs map[string]func() int64
	gaugeFuncs   map[string]func() int64
	hists        map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:     map[string]*Counter{},
		gauges:       map[string]*Gauge{},
		counterFuncs: map[string]func() int64{},
		gaugeFuncs:   map[string]func() int64{},
		hists:        map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// CounterFunc registers a callback evaluated at snapshot time for a
// monotonic value — the bridge for components that already keep their
// own synchronized counters (the sharded buffer manager, the I/O
// accountant). The last registration for a name wins.
func (r *Registry) CounterFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counterFuncs[name] = fn
}

// GaugeFunc registers a callback evaluated at snapshot time for an
// instantaneous value (bytes resident in the cache, busy workers). The
// last registration for a name wins.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[name] = fn
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds (DefaultLatencyBuckets if nil) on first use. Bounds are
// fixed by the first caller; later callers get the same histogram.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every instrument in a registry.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistSnapshot
}

// Snapshot evaluates every instrument (including gauge funcs) and
// returns the copies. Gauge funcs are called without the registry lock
// held beyond the map walk, so they may themselves read locked state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	cfuncs := make(map[string]func() int64, len(r.counterFuncs))
	for k, v := range r.counterFuncs {
		cfuncs[k] = v
	}
	gfuncs := make(map[string]func() int64, len(r.gaugeFuncs))
	for k, v := range r.gaugeFuncs {
		gfuncs[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	s := Snapshot{
		Counters:   make(map[string]int64, len(counters)+len(cfuncs)),
		Gauges:     make(map[string]int64, len(gauges)+len(gfuncs)),
		Histograms: make(map[string]HistSnapshot, len(hists)),
	}
	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, fn := range cfuncs {
		s.Counters[k] = fn()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	for k, fn := range gfuncs {
		s.Gauges[k] = fn()
	}
	for k, v := range hists {
		s.Histograms[k] = v.Snapshot()
	}
	return s
}
