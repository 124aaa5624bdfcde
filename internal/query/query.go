// Package query implements the paper's six complex queries (Table 3)
// against any graph representation, reproducing §4.3's methodology:
// page sets are resolved through the text, PageRank, and domain indexes
// (un-timed, as the paper excludes index access), then the navigation
// component runs against the representation under test and is measured
// as CPU time plus modeled disk time.
package query

import (
	"context"
	"fmt"
	"sort"
	"time"

	"snode/internal/metrics"
	"snode/internal/repo"
	"snode/internal/store"
	"snode/internal/trace"
	"snode/internal/webgraph"
)

// ID identifies a Table 3 query.
type ID int

// The six queries of Table 3.
const (
	Q1 ID = iota + 1 // universities cited by Stanford mobile-networking pages
	Q2               // comic-strip popularity at Stanford
	Q3               // Kleinberg base set for "Internet censorship"
	Q4               // popular quantum-cryptography pages at four universities
	Q5               // computer-music pages ranked by intra-set citations
	Q6               // common citations of Stanford and Berkeley interferometry pages
)

// All lists the six queries.
func All() []ID { return []ID{Q1, Q2, Q3, Q4, Q5, Q6} }

// Description returns the paper's one-line description.
func (q ID) Description() string {
	switch q {
	case Q1:
		return "universities referenced by Stanford 'Mobile networking' pages (Analysis 1)"
	case Q2:
		return "relative popularity of three comic strips at Stanford (Analysis 2)"
	case Q3:
		return "Kleinberg base set for top-100 'Internet censorship' pages"
	case Q4:
		return "10 most popular 'Quantum cryptography' pages at four universities"
	case Q5:
		return "'Computer music synthesis' pages ranked by intra-set citations"
	case Q6:
		return "pages cited by both Stanford and Berkeley 'Optical interferometry' pages"
	}
	return "unknown"
}

// Row is one line of query output.
type Row struct {
	Key   string
	Value float64
}

// NavStats measures the navigation component of one query execution.
type NavStats struct {
	CPU          time.Duration // wall time spent in graph access + decode
	IO           time.Duration // modeled disk time (iosim)
	Seeks        int64
	BytesRead    int64
	GraphsLoaded int64
}

// Total is the navigation time the experiments report.
func (n NavStats) Total() time.Duration { return n.CPU + n.IO }

// Result is a query execution outcome.
type Result struct {
	Query  ID
	Scheme string
	Rows   []Row
	Nav    NavStats
	// Trace is the finished execution trace when this run was sampled
	// by the engine's tracer (nil otherwise). It is already offered to
	// the tracer's slow-query log; callers may render or export it.
	Trace *trace.Trace
}

// Engine executes queries for one scheme over a repository.
type Engine struct {
	R      *repo.Repository
	Scheme string

	// shared marks an engine running alongside other engines on the
	// same stores (the parallel serving path): navigation runs
	// without resetting the shared access statistics, and per-query
	// NavStats carries wall time only, since concurrent streams cannot
	// attribute the shared accountant's bytes to one query.
	shared bool

	// Serving-path instrumentation, wired by SetMetrics (nil without):
	// one latency histogram per Table 3 query plus the per-stage split —
	// index resolution (text/PageRank/domain lookups, un-timed by the
	// paper) versus navigation (the timed component). Pointers, so
	// Shared copies record into the same histograms.
	qHist       [Q6 + 1]*metrics.Histogram
	resolveHist *metrics.Histogram
	navHist     *metrics.Histogram
	navLatHist  *metrics.Histogram

	// tracer, wired by SetTracer (nil without), samples executions into
	// request-scoped traces; Shared copies record into the same tracer.
	tracer *trace.Tracer

	// owned, wired by SetOwner (nil = owns everything), restricts the
	// plans' source page sets to this shard's pages; see partial.go.
	// Shared copies inherit it (struct copy).
	owned func(webgraph.PageID) bool

	// fwdCtx/revCtx cache the one-time type assertion to the stores'
	// optional context-aware read path (store.ContextLinkStore; nil when
	// the scheme — any of the flat baselines — does not provide it), and
	// fwdSet/revSet the one to the set-at-a-time read (nil unless the
	// store is an S-Node representation or a shard's merged store).
	fwdCtx store.ContextLinkStore
	revCtx store.ContextLinkStore
	fwdSet neighborer
	revSet neighborer
}

// neighborer is the set-at-a-time read a store may provide
// (snode.Representation, shard.MergedStore): each page of pages handed to
// visit with its out-links under f, in the order of pages, every graph
// the set needs read once. out is valid only during its visit, which may
// reorder it but must not keep it.
type neighborer interface {
	Neighbors(ctx context.Context, pages []webgraph.PageID, f *store.Filter, visit func(p webgraph.PageID, out []webgraph.PageID) error) error
}

// New returns an engine bound to a scheme built in the repository.
func New(r *repo.Repository, scheme string) (*Engine, error) {
	if _, ok := r.Fwd[scheme]; !ok {
		return nil, fmt.Errorf("query: scheme %q not built", scheme)
	}
	e := &Engine{R: r, Scheme: scheme}
	e.fwdCtx, _ = e.fwd().(store.ContextLinkStore)
	e.revCtx, _ = e.rev().(store.ContextLinkStore)
	e.fwdSet, _ = e.fwd().(neighborer)
	e.revSet, _ = e.rev().(neighborer)
	return e, nil
}

// SetTracer attaches a sampling tracer: every subsequent Run or
// RunPartial consults it, and sampled executions build a span tree
// through the engine, the S-Node reader, the buffer manager, and the
// I/O simulator, finished into the tracer's slow-query log. Engines
// derived via Shared sample into the same tracer. Call before serving;
// nil disables.
func (e *Engine) SetTracer(t *trace.Tracer) { e.tracer = t }

// Tracer returns the tracer wired by SetTracer (nil without).
func (e *Engine) Tracer() *trace.Tracer { return e.tracer }

// classNames are the slow-query-log classes, one per Table 3 query —
// a static table so the untraced hot path never formats a string.
var classNames = [Q6 + 1]string{"", "q1", "q2", "q3", "q4", "q5", "q6"}

// Class is the query's class name ("q1" … "q6"): its slow-query-log
// class, and the value of the pprof label the serving tier runs it
// under. q must be one of the six.
func (q ID) Class() string { return classNames[q] }

// SetMetrics wires the engine's executions (Run and RunPartial alike)
// into a registry: a latency histogram per query ID (query_latency_q1
// .. query_latency_q6) and the per-stage split between index resolution
// and navigation. Call before serving; engines derived via Shared
// record into the same histograms, so concurrent streams aggregate.
func (e *Engine) SetMetrics(reg *metrics.Registry) {
	for _, q := range All() {
		e.qHist[q] = reg.Histogram(fmt.Sprintf("query_latency_q%d", q), nil)
	}
	e.resolveHist = reg.Histogram("query_resolve_seconds", nil)
	e.navHist = reg.Histogram("query_nav_seconds", nil)
	e.navLatHist = reg.Histogram("query_latency_nav", nil)
}

// Neighbors is the navigation-class lookup the serving tier exposes:
// one page's full out-adjacency, an order of magnitude lighter than the
// Table 3 mining queries — the traffic mix's "click a link" class. It
// carries the same serving instrumentation as Run: sampled executions
// are traced under class "nav", and latency lands in the
// query_latency_nav histogram with a trace exemplar. The finished
// trace is returned (nil when unsampled) so the serving tier can
// attribute pre-engine time — admission queue wait — on the root.
func (e *Engine) Neighbors(ctx context.Context, p webgraph.PageID) ([]webgraph.PageID, *trace.Trace, error) {
	var tr *trace.Trace
	if e.tracer != nil {
		ctx, tr = e.tracer.StartRequest(ctx, "nav")
	}
	start := time.Now()
	out, err := e.out(ctx, false, p, nil, nil)
	var traceID uint64
	if tr != nil {
		e.tracer.Finish(tr)
		traceID = tr.ID
	}
	if err != nil {
		return nil, tr, err
	}
	if h := e.navLatHist; h != nil {
		h.ObserveExemplar(int64(time.Since(start)), traceID)
	}
	return out, tr, nil
}

// Run executes one query: the query's plan over the pages this engine
// owns (all of them unless SetOwner says otherwise), merged alone — a
// full run is the K=1 case of the sharded tier's scatter and merge, so
// both go through the same plan and the same MergePartials. The context
// propagates through the whole execution — navigation stops promptly
// when it is cancelled — and, when a tracer is wired and samples this
// run, carries the execution trace down into the reader, cache, and I/O
// layers.
func (e *Engine) Run(ctx context.Context, q ID) (*Result, error) {
	part, err := e.runPlan(ctx, q)
	if err != nil {
		return nil, err
	}
	return &Result{
		Query:  q,
		Scheme: e.Scheme,
		Rows:   MergePartials(q, [][]PartialRow{part.Rows}),
		Nav:    part.Nav,
		Trace:  part.Trace,
	}, nil
}

// runPlan is the one instrumented entry to the plans, shared by Run and
// RunPartial so a shard replica (which only ever serves partials)
// samples traces and records the per-query and per-stage histograms
// exactly as a single node does.
func (e *Engine) runPlan(ctx context.Context, q ID) (*PartialResult, error) {
	switch q {
	case Q1, Q2, Q6:
	case Q3, Q4, Q5:
		if e.rev() == nil {
			return nil, fmt.Errorf("query: Q%d needs in-neighborhood navigation; build the repository with Transpose", q)
		}
	default:
		return nil, fmt.Errorf("query: unknown query %d", q)
	}
	var tr *trace.Trace
	if e.tracer != nil {
		// Inside an already-traced request (a router leg forced by its
		// header) this composes into that trace and returns nil.
		ctx, tr = e.tracer.StartRequest(ctx, classNames[q])
	}
	start := time.Now()
	part, err := e.execute(ctx, q)
	var traceID uint64
	if tr != nil {
		// Finish before publishing the exemplar: a scrape that sees the
		// trace ID in a histogram bucket must be able to look it up.
		e.tracer.Finish(tr)
		traceID = tr.ID
	}
	if err != nil {
		return nil, err
	}
	part.Trace = tr
	if e.qHist[q] == nil {
		return part, nil
	}
	total := time.Since(start)
	e.qHist[q].ObserveExemplar(int64(total), traceID)
	e.navHist.ObserveDuration(part.Nav.CPU)
	if resolve := total - part.Nav.CPU; resolve > 0 {
		e.resolveHist.ObserveDuration(resolve)
	}
	return part, nil
}

// Shared returns a copy of the engine marked for concurrent use: its
// queries may run alongside other engines (or goroutines) over the same
// stores. Shared engines never reset the stores' access statistics and
// report wall time only in NavStats — with concurrent streams the
// accountant's bytes cannot be attributed to one query. The S-Node
// representation is safe for this; the baseline schemes are not (see
// store.LinkStore).
func (e *Engine) Shared() *Engine {
	c := *e
	c.shared = true
	return &c
}

// RunAll executes the six queries in order.
func (e *Engine) RunAll(ctx context.Context) ([]*Result, error) {
	var out []*Result
	for _, q := range All() {
		r, err := e.Run(ctx, q)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func (e *Engine) fwd() store.LinkStore { return e.R.Fwd[e.Scheme] }
func (e *Engine) rev() store.LinkStore { return e.R.Rev[e.Scheme] }

// out is the engine's one-page read, forward or (rev) over the
// transposed graph, for /out and for the plan steps of a store without
// Neighbors: it checks for cancellation, then takes the store's
// context-aware path when there is one, so the request's trace and
// cancellation reach the reader. A nil filter means the full adjacency.
func (e *Engine) out(ctx context.Context, rev bool, p webgraph.PageID, f *store.Filter, buf []webgraph.PageID) ([]webgraph.PageID, error) {
	if err := ctx.Err(); err != nil {
		return buf, err
	}
	sc := e.fwdCtx
	if rev {
		sc = e.revCtx
	}
	if sc != nil {
		return sc.OutFilteredCtx(ctx, p, f, buf)
	}
	s := e.fwd()
	if rev {
		s = e.rev()
	}
	if f == nil {
		return s.Out(p, buf)
	}
	return s.OutFiltered(p, f, buf)
}

// execute runs one query's plan: index resolution (un-timed, as in the
// paper), the navigation steps, then row emission.
func (e *Engine) execute(ctx context.Context, q ID) (*PartialResult, error) {
	pl, err := e.planFor(q)
	if err != nil {
		return nil, err
	}
	nav, err := e.navigate(ctx, pl.steps)
	if err != nil {
		return nil, err
	}
	return &PartialResult{Query: q, Rows: pl.rows(), Nav: nav}, nil
}

// expand reads the out-links of pages under f, forward or (rev) over the
// transposed graph, and hands each page and its list to visit: in one
// Neighbors call when the store reads a set at a time, each graph the
// set needs once, and otherwise page by page through out, with buf as
// the scratch list.
func (e *Engine) expand(ctx context.Context, rev bool, pages []webgraph.PageID, f *store.Filter, visit func(p webgraph.PageID, nbrs []webgraph.PageID), buf []webgraph.PageID) ([]webgraph.PageID, error) {
	set := e.fwdSet
	if rev {
		set = e.revSet
	}
	if set != nil {
		if err := ctx.Err(); err != nil {
			return buf, err
		}
		return buf, set.Neighbors(ctx, pages, f, func(p webgraph.PageID, out []webgraph.PageID) error {
			visit(p, out)
			return nil
		})
	}
	for _, p := range pages {
		var err error
		if buf, err = e.out(ctx, rev, p, f, buf[:0]); err != nil {
			return buf, err
		}
		visit(p, buf)
	}
	return buf, nil
}

// navigate runs a plan's steps and measures them. It is the only loop
// that calls the store on a plan's behalf, so the owned-page
// restriction, the cancellation check, the direction dispatch and the
// scratch buffers exist once. On traced requests the whole navigation
// component becomes a "nav" span — the timed part of the query, as
// distinct from index resolution.
func (e *Engine) navigate(ctx context.Context, steps []step) (NavStats, error) {
	ctx, sp := trace.Start(ctx, "nav")
	defer sp.End()
	fwd, rev := e.fwd(), e.rev()
	if !e.shared {
		fwd.ResetStats()
		if rev != nil {
			rev.ResetStats()
		}
	}
	start := time.Now()
	var buf, owned []webgraph.PageID
	for _, st := range steps {
		src := st.src
		if e.owned != nil {
			owned = owned[:0]
			for _, p := range src {
				if e.owned(p) {
					owned = append(owned, p)
				}
			}
			src = owned
		}
		var err error
		if buf, err = e.expand(ctx, st.rev, src, st.filter, st.visit, buf); err != nil {
			return NavStats{}, err
		}
	}
	nav := NavStats{CPU: time.Since(start)}
	if e.shared {
		// Shared stores: resetting stats would clobber concurrent
		// streams, and the accountant's counters mix all of them, so a
		// shared engine reports wall time only.
		return nav, nil
	}
	st := fwd.Stats()
	if rev != nil {
		rs := rev.Stats()
		st.IO.Seeks += rs.IO.Seeks
		st.IO.BytesRead += rs.IO.BytesRead
		st.IO.Reads += rs.IO.Reads
		st.GraphsLoaded += rs.GraphsLoaded
	}
	nav.IO = st.IO.ModeledTime(e.R.Model)
	nav.Seeks = st.IO.Seeks
	nav.BytesRead = st.IO.BytesRead
	nav.GraphsLoaded = st.GraphsLoaded
	return nav, nil
}

// phraseInDomain resolves the pages of a domain containing a phrase.
func (e *Engine) phraseInDomain(phrase, domain string) []webgraph.PageID {
	dr, ok := e.R.Domains[domain]
	if !ok {
		return nil
	}
	return e.R.Text.LookupInRange(phrase, dr.Lo, dr.Hi)
}

func sortRows(rows []Row) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Value != rows[j].Value {
			return rows[i].Value > rows[j].Value
		}
		return rows[i].Key < rows[j].Key
	})
}
