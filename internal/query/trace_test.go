package query

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"snode/internal/metrics"
	"snode/internal/repo"
	"snode/internal/store"
	"snode/internal/trace"
)

// coldEngine returns an engine over the shared test repository with the
// S-Node caches dropped, so the next query pays real (simulated) I/O and
// the trace covers the full decode path.
func coldEngine(t *testing.T) *Engine {
	t.Helper()
	r := getRepo(t)
	for _, s := range []store.LinkStore{r.Fwd[repo.SchemeSNode], r.Rev[repo.SchemeSNode]} {
		if cr, ok := s.(store.CacheResetter); ok {
			cr.ResetCache(16 << 20)
		}
	}
	e, err := New(r, repo.SchemeSNode)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// spanNames flattens the exported span tree into a name set.
func spanNames(n *trace.SpanJSON, into map[string]int) {
	if n == nil {
		return
	}
	into[n.Name]++
	for _, c := range n.Children {
		spanNames(c, into)
	}
}

// TestTracedRunSpanTree is the tentpole's end-to-end check: a sampled
// query must produce a span tree that reaches from the engine stage
// through the S-Node reader's span reads into cache decodes and
// simulated disk reads, with the request counters populated, and the
// trace must be retrievable from the tracer afterwards (the
// /debug/traces lookup path).
func TestTracedRunSpanTree(t *testing.T) {
	e := coldEngine(t)
	tr := trace.New(trace.Config{SampleEvery: 1})
	e.SetTracer(tr)

	res, err := e.Run(context.Background(), Q1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("SampleEvery=1 run returned no trace")
	}
	if got := tr.Get(res.Trace.ID); got != res.Trace {
		t.Fatalf("tracer.Get(%d) = %p, want the run's trace %p", res.Trace.ID, got, res.Trace)
	}

	js := res.Trace.JSON()
	if js.Class != "q1" {
		t.Fatalf("trace class %q, want q1", js.Class)
	}
	names := map[string]int{}
	spanNames(js.Root, names)
	for _, want := range []string{"q1", "nav", "snode.read_span", "cache.decode", "iosim.read"} {
		if names[want] == 0 {
			t.Errorf("span tree missing %q (got %v)", want, names)
		}
	}
	for _, ctr := range []int{trace.CtrLookups, trace.CtrCacheMisses, trace.CtrDecodes, trace.CtrReads, trace.CtrBytesRead} {
		if v := res.Trace.Counter(ctr); v <= 0 {
			t.Errorf("counter %s = %d, want > 0 on a cold run", trace.CtrNames[ctr], v)
		}
	}
	if res.Trace.Total() <= 0 {
		t.Error("finished trace has non-positive total")
	}

	// The same trace must export cleanly as Chrome trace_event JSON.
	var buf bytes.Buffer
	if err := trace.WriteChromeTrace(&buf, res.Trace); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, `"traceEvents"`) || !strings.Contains(out, "snode.read_span") {
		t.Errorf("chrome export missing expected content:\n%s", out)
	}

	// A warm re-run of the same query must coalesce into cache hits.
	res2, err := e.Run(context.Background(), Q1)
	if err != nil {
		t.Fatal(err)
	}
	if hits := res2.Trace.Counter(trace.CtrCacheHits); hits <= 0 {
		t.Errorf("warm re-run saw %d cache hits, want > 0", hits)
	}
}

// TestExemplarLinksHistogramToTrace checks the metrics bridge: the
// latency histogram's tail bucket must carry the trace ID of a sampled
// slow run, and that ID must resolve through the tracer — the
// "histogram tail → /debug/traces?id=N" workflow.
func TestExemplarLinksHistogramToTrace(t *testing.T) {
	e := coldEngine(t)
	tr := trace.New(trace.Config{SampleEvery: 1})
	e.SetTracer(tr)
	reg := metrics.NewRegistry()
	e.SetMetrics(reg)

	res, err := e.Run(context.Background(), Q2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("no trace on sampled run")
	}

	h, ok := reg.Snapshot().Histograms["query_latency_q2"]
	if !ok {
		t.Fatal("query_latency_q2 histogram not registered")
	}
	bound, id := h.TailExemplar()
	if id == 0 {
		t.Fatal("tail bucket carries no exemplar trace ID")
	}
	if id != res.Trace.ID {
		t.Fatalf("tail exemplar id=%d, want the run's trace %d", id, res.Trace.ID)
	}
	if bound <= 0 {
		t.Errorf("tail exemplar bucket bound %d, want > 0", bound)
	}
	if tr.Get(id) == nil {
		t.Fatalf("exemplar trace %d not retained in the slow-query log", id)
	}
}

// TestRunPartialInstrumented is the shard-replica regression: an engine
// that only ever serves RunPartial must sample traces and move the
// per-query and per-stage histograms exactly as Run does — before the
// two shared one entry, a replica's query_latency_q* stayed at count 0
// and -trace-every never sampled a /query.
func TestRunPartialInstrumented(t *testing.T) {
	e := coldEngine(t)
	tr := trace.New(trace.Config{SampleEvery: 1})
	e.SetTracer(tr)
	reg := metrics.NewRegistry()
	e.SetMetrics(reg)

	if _, err := e.RunPartial(context.Background(), Q2); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, name := range []string{"query_latency_q2", "query_nav_seconds"} {
		if got := snap.Histograms[name].Count; got != 1 {
			t.Errorf("%s count = %d after one RunPartial(Q2), want 1", name, got)
		}
	}
	kept := tr.Traces()
	if len(kept) != 1 {
		t.Fatalf("tracer retained %d traces after one sampled RunPartial, want 1", len(kept))
	}
	js := kept[0].JSON()
	if js.Class != "q2" {
		t.Errorf("trace class %q, want q2", js.Class)
	}
	names := map[string]int{}
	spanNames(js.Root, names)
	if names["nav"] != 1 {
		t.Errorf("span tree has %d nav spans, want 1 (got %v)", names["nav"], names)
	}
	if _, id := snap.Histograms["query_latency_q2"].TailExemplar(); id != kept[0].ID {
		t.Errorf("query_latency_q2 exemplar id=%d, want the retained trace %d", id, kept[0].ID)
	}

	// A router leg arrives already traced (forced by its header): the
	// engine composes its spans into that trace instead of nesting one.
	ctx, forced := trace.New(trace.Config{}).StartLinked(context.Background(), "mining", 7)
	if _, err := e.RunPartial(ctx, Q2); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Traces()); got != 1 {
		t.Errorf("engine tracer holds %d traces after a forced-context run, want still 1", got)
	}
	names = map[string]int{}
	spanNames(forced.JSON().Root, names)
	if names["nav"] != 1 {
		t.Errorf("forced trace has %d nav spans, want 1 (got %v)", names["nav"], names)
	}
}

// TestUntracedTracingAddsNoAllocs is the overhead guard from the issue:
// attaching a tracer that never samples must add zero allocations per
// query over the PR 2 baseline (no tracer at all), on the entry a single
// node serves (Run) and the one a shard replica serves (RunPartial).
// Both measurements run on a warm cache so the only difference is the
// tracing plumbing.
func TestUntracedTracingAddsNoAllocs(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		run  func(e *Engine) error
	}{
		{"Run", func(e *Engine) error { _, err := e.Run(ctx, Q1); return err }},
		{"RunPartial", func(e *Engine) error { _, err := e.RunPartial(ctx, Q1); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := coldEngine(t)
			measure := func() float64 {
				return testing.AllocsPerRun(10, func() {
					if err := tc.run(e); err != nil {
						t.Error(err)
					}
				})
			}
			measure() // warm the cache
			base := measure()
			e.SetTracer(trace.New(trace.Config{SampleEvery: 1 << 30}))
			withTracer := measure()
			if delta := withTracer - base; delta > 0.5 {
				t.Fatalf("unsampled tracing adds %.1f allocs/query (%.1f -> %.1f), want 0",
					delta, base, withTracer)
			}
		})
	}
}

// BenchmarkRunUntraced / BenchmarkRunUnsampled are the bench-trajectory
// pair: compare allocs/op with `go test -bench 'BenchmarkRun' -benchmem`
// to confirm the untraced serving path is unchanged.
func BenchmarkRunUntraced(b *testing.B) {
	e := benchEngine(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(context.Background(), Q1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunUnsampled(b *testing.B) {
	e := benchEngine(b, trace.New(trace.Config{SampleEvery: 1 << 30}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(context.Background(), Q1); err != nil {
			b.Fatal(err)
		}
	}
}

func benchEngine(b *testing.B, tr *trace.Tracer) *Engine {
	b.Helper()
	e, err := New(getRepo(b), repo.SchemeSNode)
	if err != nil {
		b.Fatal(err)
	}
	if tr != nil {
		e.SetTracer(tr)
	}
	if _, err := e.Run(context.Background(), Q1); err != nil { // warm
		b.Fatal(err)
	}
	return e
}

// TestRunParallelPreCancelled: queries run on an already-dead context
// must each return its error at the first store access, with no result.
func TestRunParallelPreCancelled(t *testing.T) {
	e := coldEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := runParallel(ctx, e, All(), 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	for i, r := range res {
		if r != nil {
			t.Fatalf("cancelled Q%d returned a result: %v", All()[i], r)
		}
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("pre-cancelled batch took %v to return", el)
	}
}

// TestRunParallelCancelledMidBatch: cancellation while goroutines serve
// a large batch must interrupt in-flight queries at their next store
// access and return promptly — queries do not run to completion first.
func TestRunParallelCancelledMidBatch(t *testing.T) {
	e := coldEngine(t)
	// 48 cold queries under paced I/O (each cold read stalls for its
	// modeled disk time, so the batch lasts seconds uncancelled); a 2ms
	// deadline lands mid-batch with huge margin. Unpaced the batch takes
	// ~15 ms of CPU, and on a loaded host a late 2 ms timer found it
	// finished: err was nil in 3 of 50 runs beside a CPU burner.
	stores := []store.LinkStore{e.R.Fwd[repo.SchemeSNode], e.R.Rev[repo.SchemeSNode]}
	for _, s := range stores {
		s.(store.Pacer).SetPace(1)
	}
	defer func() {
		for _, s := range stores {
			s.(store.Pacer).SetPace(0)
		}
	}()
	var qs []ID
	for i := 0; i < 8; i++ {
		qs = append(qs, All()...)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := runParallel(ctx, e, qs, 2)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancelled batch took %v to return", elapsed)
	}
}
