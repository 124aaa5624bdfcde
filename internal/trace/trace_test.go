package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSpanTree builds one traced request through the Start/RecordSpan
// primitives and checks the exported tree: parentage, attributes,
// counters, and total.
func TestSpanTree(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	ctx, tc := tr.StartRequest(context.Background(), "q1")
	if tc == nil {
		t.Fatal("SampleEvery=1 must trace every request")
	}
	if !Active(ctx) {
		t.Fatal("derived context must report Active")
	}

	navCtx, nav := Start(ctx, "nav")
	_, read := Start(navCtx, "snode.read_span")
	read.SetAttr("graphs", 3)
	read.SetAttr("bytes", 4096)
	RecordSpan(navCtx, "cache.wait", time.Now(), 2*time.Millisecond, Attr{Key: "gid", Val: 7})
	Add(navCtx, CtrCacheHits, 5)
	Add(navCtx, CtrDecodes, 2)
	read.End()
	nav.End()

	total := tr.Finish(tc)
	if total <= 0 {
		t.Fatalf("Finish returned %v", total)
	}
	if again := tr.Finish(tc); again != total {
		t.Fatalf("Finish not idempotent: %v then %v", total, again)
	}

	j := tc.JSON()
	if j.Root == nil || j.Root.Name != "q1" {
		t.Fatalf("root span = %+v", j.Root)
	}
	if len(j.Root.Children) != 1 || j.Root.Children[0].Name != "nav" {
		t.Fatalf("nav not parented under root: %+v", j.Root.Children)
	}
	navJ := j.Root.Children[0]
	names := map[string]*SpanJSON{}
	for _, c := range navJ.Children {
		names[c.Name] = c
	}
	rs, ok := names["snode.read_span"]
	if !ok {
		t.Fatalf("read_span not under nav: %+v", navJ.Children)
	}
	if rs.Attrs["graphs"] != 3 || rs.Attrs["bytes"] != 4096 {
		t.Fatalf("read_span attrs = %v", rs.Attrs)
	}
	cw, ok := names["cache.wait"]
	if !ok {
		t.Fatalf("cache.wait not under nav: %+v", navJ.Children)
	}
	if cw.Attrs["gid"] != 7 || cw.DurNs != int64(2*time.Millisecond) {
		t.Fatalf("cache.wait = %+v", cw)
	}
	if j.Counters["cache_hits"] != 5 || j.Counters["decodes"] != 2 {
		t.Fatalf("counters = %v", j.Counters)
	}
	if j.TotalNs != int64(total) {
		t.Fatalf("TotalNs %d != total %v", j.TotalNs, total)
	}

	var buf bytes.Buffer
	tc.Render(&buf)
	out := buf.String()
	for _, want := range []string{"q1", "nav", "snode.read_span", "cache.wait", "graphs=3", "cache_hits=5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render output missing %q:\n%s", want, out)
		}
	}
}

// TestSampling checks the 1-in-N selector and the disabled tracer.
func TestSampling(t *testing.T) {
	tr := New(Config{SampleEvery: 3})
	traced := 0
	for i := 0; i < 9; i++ {
		_, tc := tr.StartRequest(context.Background(), "q1")
		if tc != nil {
			traced++
			tr.Finish(tc)
		}
	}
	if traced != 3 {
		t.Fatalf("SampleEvery=3 over 9 requests traced %d, want 3", traced)
	}

	off := New(Config{SampleEvery: 0})
	ctx, tc := off.StartRequest(context.Background(), "q1")
	if tc != nil || Active(ctx) {
		t.Fatal("SampleEvery=0 must disable tracing")
	}

	var nilTr *Tracer
	if _, tc := nilTr.StartRequest(context.Background(), "x"); tc != nil {
		t.Fatal("nil tracer must be inert")
	}
	if nilTr.Finish(nil) != 0 || nilTr.Get(1) != nil || nilTr.Traces() != nil {
		t.Fatal("nil tracer methods must be inert")
	}
}

// finishAfter forges a finished trace with a chosen duration so slow-log
// ordering is deterministic.
func finishAfter(tr *Tracer, class string, d time.Duration) *Trace {
	_, tc := tr.StartRequest(context.Background(), class)
	tc.mu.Lock()
	tc.done = true
	tc.total = d
	tc.spans[0].dur = d
	tc.mu.Unlock()
	tr.slow.offer(tc)
	return tc
}

// TestSlowLogRetention checks per-class worst-N retention, Get lookup,
// and the recent ring.
func TestSlowLogRetention(t *testing.T) {
	tr := New(Config{SampleEvery: 1, SlowPerClass: 2, Recent: 2})
	t10 := finishAfter(tr, "q1", 10*time.Millisecond)
	t30 := finishAfter(tr, "q1", 30*time.Millisecond)
	t20 := finishAfter(tr, "q1", 20*time.Millisecond)
	t5 := finishAfter(tr, "q1", 5*time.Millisecond)
	other := finishAfter(tr, "q2", 1*time.Millisecond)

	// Worst two of q1 are 30ms and 20ms; 10ms was displaced, and 5ms
	// never qualified — but both of the last two offers sit in the
	// recent ring.
	if tr.Get(t30.ID) == nil || tr.Get(t20.ID) == nil {
		t.Fatal("worst-2 traces must be retained")
	}
	if tr.Get(t10.ID) != nil {
		t.Fatal("displaced trace must be gone (not in worst-2, rotated out of recent)")
	}
	if tr.Get(t5.ID) == nil {
		t.Fatal("most recent offer must be in the recent ring")
	}
	if tr.Get(other.ID) == nil {
		t.Fatal("q2's only trace must be retained in its own class")
	}

	all := tr.Traces()
	for i := 1; i < len(all); i++ {
		if all[i-1].Total() < all[i].Total() {
			t.Fatalf("Traces() not slowest-first: %v then %v", all[i-1].Total(), all[i].Total())
		}
	}
}

// TestSpanCap checks the per-trace span bound: excess spans drop and
// are counted, and recording never fails.
func TestSpanCap(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	ctx, tc := tr.StartRequest(context.Background(), "q1")
	for i := 0; i < maxSpans+6; i++ {
		_, sp := Start(ctx, "s")
		sp.End()
	}
	tr.Finish(tc)
	if got := len(tc.JSON().Root.Children); got != maxSpans-1 { // root occupies 1
		t.Fatalf("retained %d child spans, want %d", got, maxSpans-1)
	}
	if d := tc.JSON().Dropped; d != 7 {
		t.Fatalf("dropped = %d, want 7", d)
	}
}

// TestConcurrentTracing hammers one tracer from 32 goroutines — each
// running its own traced request with spans and counters, all finishing
// into the shared slow-query ring — under the race detector.
func TestConcurrentTracing(t *testing.T) {
	tr := New(Config{SampleEvery: 1, SlowPerClass: 4, Recent: 8})
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx, tc := tr.StartRequest(context.Background(), fmt.Sprintf("q%d", g%6+1))
			if tc == nil {
				t.Error("request not sampled at SampleEvery=1")
				return
			}
			// Concurrent span recording within the request too.
			var inner sync.WaitGroup
			for w := 0; w < 4; w++ {
				inner.Add(1)
				go func() {
					defer inner.Done()
					c, sp := Start(ctx, "worker")
					RecordSpan(c, "item", time.Now(), time.Microsecond, Attr{Key: "n", Val: 1})
					Add(c, CtrLookups, 1)
					sp.SetAttr("k", 1)
					sp.End()
				}()
			}
			inner.Wait()
			tr.Finish(tc)
			if tc.Counter(CtrLookups) != 4 {
				t.Errorf("lookups = %d, want 4", tc.Counter(CtrLookups))
			}
		}(g)
	}
	wg.Wait()
	if len(tr.Traces()) == 0 {
		t.Fatal("no traces retained")
	}
	// Exports must be safe on retained traces as well.
	for _, tc := range tr.Traces() {
		_ = tc.JSON()
		_ = tc.Summary()
	}
}

// TestUntracedPrimitivesZeroAlloc asserts the contract the serving path
// depends on: on a context without a trace, every instrumentation
// primitive allocates nothing.
func TestUntracedPrimitivesZeroAlloc(t *testing.T) {
	ctx := context.Background()
	tr := New(Config{SampleEvery: 1 << 30})
	checks := []struct {
		name string
		fn   func()
	}{
		{"Active", func() { _ = Active(ctx) }},
		{"FromContext", func() { _ = FromContext(ctx) }},
		{"Add", func() { Add(ctx, CtrLookups, 1) }},
		{"Start+End", func() { _, sp := Start(ctx, "x"); sp.End() }},
		{"StartRequest(unsampled)", func() { _, _ = tr.StartRequest(ctx, "q1") }},
	}
	for _, c := range checks {
		if n := testing.AllocsPerRun(200, c.fn); n != 0 {
			t.Errorf("%s allocates %.1f per untraced call, want 0", c.name, n)
		}
	}
}

// TestChromeTraceExport validates the trace_event JSON shape.
func TestChromeTraceExport(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	ctx, tc := tr.StartRequest(context.Background(), "q2")
	c2, sp := Start(ctx, "nav")
	RecordSpan(c2, "iosim.read", time.Now(), time.Millisecond, Attr{Key: "bytes", Val: 512})
	sp.End()
	tr.Finish(tc)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tc, nil); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string           `json:"name"`
			Ph   string           `json:"ph"`
			Ts   float64          `json:"ts"`
			Dur  float64          `json:"dur"`
			Pid  uint64           `json:"pid"`
			Tid  int              `json:"tid"`
			Args map[string]int64 `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("got %d events, want 3", len(doc.TraceEvents))
	}
	byName := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			t.Fatalf("event %q has phase %q, want X", e.Name, e.Ph)
		}
		if e.Pid != tc.ID {
			t.Fatalf("event %q pid %d, want trace ID %d", e.Name, e.Pid, tc.ID)
		}
		byName[e.Name] = e.Tid
	}
	if byName["q2"] != 0 || byName["nav"] != 1 || byName["iosim.read"] != 2 {
		t.Fatalf("depth lanes wrong: %v", byName)
	}
}

// TestHandler drives the /debug/traces surface end to end.
func TestHandler(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	ctx, tc := tr.StartRequest(context.Background(), "q5")
	_, sp := Start(ctx, "nav")
	sp.End()
	tr.Finish(tc)
	h := Handler(tr)

	get := func(url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		return rec
	}

	rec := get("/debug/traces")
	var sums []Summary
	if err := json.Unmarshal(rec.Body.Bytes(), &sums); err != nil || len(sums) != 1 {
		t.Fatalf("list: err=%v body=%s", err, rec.Body.String())
	}
	if sums[0].ID != tc.ID || sums[0].Class != "q5" {
		t.Fatalf("summary = %+v", sums[0])
	}

	rec = get(fmt.Sprintf("/debug/traces?id=%d", tc.ID))
	var detail TraceJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &detail); err != nil || detail.Root == nil {
		t.Fatalf("detail: err=%v body=%s", err, rec.Body.String())
	}
	if len(detail.Root.Children) != 1 || detail.Root.Children[0].Name != "nav" {
		t.Fatalf("detail tree = %+v", detail.Root)
	}

	rec = get(fmt.Sprintf("/debug/traces?id=%d&format=chrome", tc.ID))
	if !bytes.Contains(rec.Body.Bytes(), []byte("traceEvents")) {
		t.Fatalf("chrome format: %s", rec.Body.String())
	}
	rec = get(fmt.Sprintf("/debug/traces?id=%d&format=text", tc.ID))
	if !strings.Contains(rec.Body.String(), "q5") {
		t.Fatalf("text format: %s", rec.Body.String())
	}

	if rec = get("/debug/traces?id=99999"); rec.Code != 404 {
		t.Fatalf("missing trace: code %d, want 404", rec.Code)
	}
	if rec = get("/debug/traces?id=bogus"); rec.Code != 400 {
		t.Fatalf("bad id: code %d, want 400", rec.Code)
	}

	// A nil tracer serves an empty list rather than crashing (snserve
	// with -trace-every 0).
	rec = httptest.NewRecorder()
	Handler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 200 {
		t.Fatalf("nil tracer list: code %d", rec.Code)
	}
}

// TestRootAttrAndQueueWait covers SetAttr on the trace root (the
// RunParallel queue-wait attribution path) including after Finish.
func TestRootAttrAndQueueWait(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	_, tc := tr.StartRequest(context.Background(), "q1")
	tr.Finish(tc)
	tc.SetAttr("queue_wait_ns", 12345)
	if got := tc.JSON().Root.Attrs["queue_wait_ns"]; got != 12345 {
		t.Fatalf("root attr = %d", got)
	}
	// nil-trace SetAttr is a no-op.
	var nilT *Trace
	nilT.SetAttr("x", 1)
}
