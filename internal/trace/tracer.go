package trace

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Config sizes a Tracer.
type Config struct {
	// SampleEvery traces one request in N (1 traces everything, 0
	// disables sampling — nothing is traced).
	SampleEvery int
	// SlowPerClass is how many worst finished traces the slow-query log
	// retains per class (default 4).
	SlowPerClass int
	// Recent is how many most-recent finished traces are retained in
	// the ring regardless of slowness (default 16), so /debug/traces
	// shows activity even before any tail builds up.
	Recent int
}

// Tracer decides which requests get traced and retains finished
// traces: a ring of recent ones plus the N worst per query class (the
// slow-query log). Safe for concurrent use; a nil *Tracer is inert.
type Tracer struct {
	sampleEvery int64
	reqs        atomic.Int64
	nextID      atomic.Uint64

	slow slowLog
}

// New builds a tracer. Zero config fields take the documented defaults.
func New(cfg Config) *Tracer {
	if cfg.SlowPerClass <= 0 {
		cfg.SlowPerClass = 4
	}
	if cfg.Recent <= 0 {
		cfg.Recent = 16
	}
	return &Tracer{
		sampleEvery: int64(cfg.SampleEvery),
		slow: slowLog{
			perClass: cfg.SlowPerClass,
			byClass:  map[string][]*Trace{},
			recent:   make([]*Trace, cfg.Recent),
		},
	}
}

// StartRequest begins a request trace when the sampler selects this
// request, returning a derived context carrying the trace's root span.
// Unsampled requests (and a nil tracer) get the original context back
// with a nil trace — one atomic add, no allocations.
//
// A context that already carries a trace is returned unchanged with a
// nil trace: the outer scope (a force-sampled shard leg, a routed
// request whose handler traced it) owns the trace, and inner
// StartRequest call sites — the engine traces its own entry points —
// compose into it as spans instead of starting a second trace.
func (tr *Tracer) StartRequest(ctx context.Context, class string) (context.Context, *Trace) {
	if tr == nil || tr.sampleEvery <= 0 {
		return ctx, nil
	}
	if Active(ctx) {
		return ctx, nil
	}
	if tr.reqs.Add(1)%tr.sampleEvery != 0 {
		return ctx, nil
	}
	return tr.begin(ctx, class, 0)
}

// StartLinked begins a trace unconditionally — no sampling decision —
// recording parentID as the remote parent (the router-side trace this
// one is a leg of). This is the cross-process force-sampling path: a
// shard must trace a parent-sampled request even when its own
// SampleEvery would never pick it (including SampleEvery = 0, sampling
// disabled), and the forced trace must not consume a slot in the local
// 1-in-N rotation, so the request counter is left untouched.
func (tr *Tracer) StartLinked(ctx context.Context, class string, parentID uint64) (context.Context, *Trace) {
	if tr == nil {
		return ctx, nil
	}
	if Active(ctx) {
		return ctx, nil
	}
	return tr.begin(ctx, class, parentID)
}

func (tr *Tracer) begin(ctx context.Context, class string, parentID uint64) (context.Context, *Trace) {
	t := &Trace{
		ID:       tr.nextID.Add(1),
		Class:    class,
		ParentID: parentID,
		Start:    time.Now(),
	}
	t.spans = make([]span, 1, 32)
	t.spans[0] = span{name: class, parent: -1, dur: -1}
	return context.WithValue(ctx, ctxKey{}, spanRef{t, 0}), t
}

// Finish closes the trace's root span and offers the trace to the
// slow-query log; it returns the request's total duration. Idempotent.
// Finish must be called before the trace's ID is published as a
// histogram exemplar, so an exemplar always points at a finished,
// retrievable trace.
func (tr *Tracer) Finish(t *Trace) time.Duration {
	if tr == nil || t == nil {
		return 0
	}
	t.mu.Lock()
	if t.done {
		d := t.total
		t.mu.Unlock()
		return d
	}
	t.done = true
	t.total = time.Since(t.Start)
	t.spans[0].dur = t.total
	t.mu.Unlock()
	tr.slow.offer(t)
	return t.total
}

// Get returns a retained trace by ID, or nil if it was never retained
// or has been displaced.
func (tr *Tracer) Get(id uint64) *Trace {
	if tr == nil {
		return nil
	}
	return tr.slow.get(id)
}

// Traces returns every retained trace (slow log plus recent ring,
// deduplicated), slowest first.
func (tr *Tracer) Traces() []*Trace {
	if tr == nil {
		return nil
	}
	return tr.slow.all()
}

// slowLog retains finished traces: the perClass worst by total
// duration for each class, plus a ring of the most recent ones.
type slowLog struct {
	mu       sync.Mutex
	perClass int
	byClass  map[string][]*Trace // sorted slowest-first
	recent   []*Trace            // ring; next is the overwrite cursor
	next     int
}

func (l *slowLog) offer(t *Trace) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.recent) > 0 {
		l.recent[l.next] = t
		l.next = (l.next + 1) % len(l.recent)
	}
	worst := l.byClass[t.Class]
	if len(worst) < l.perClass {
		worst = append(worst, t)
	} else if t.total > worst[len(worst)-1].total {
		worst[len(worst)-1] = t
	} else {
		return
	}
	sort.Slice(worst, func(i, j int) bool { return worst[i].total > worst[j].total })
	l.byClass[t.Class] = worst
}

func (l *slowLog) get(id uint64) *Trace {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ts := range l.byClass {
		for _, t := range ts {
			if t.ID == id {
				return t
			}
		}
	}
	for _, t := range l.recent {
		if t != nil && t.ID == id {
			return t
		}
	}
	return nil
}

func (l *slowLog) all() []*Trace {
	l.mu.Lock()
	seen := map[uint64]bool{}
	var out []*Trace
	for _, ts := range l.byClass {
		for _, t := range ts {
			if !seen[t.ID] {
				seen[t.ID] = true
				out = append(out, t)
			}
		}
	}
	for _, t := range l.recent {
		if t != nil && !seen[t.ID] {
			seen[t.ID] = true
			out = append(out, t)
		}
	}
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].total != out[j].total {
			return out[i].total > out[j].total
		}
		return out[i].ID < out[j].ID
	})
	return out
}
