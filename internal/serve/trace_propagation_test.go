package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"snode/internal/query"
	"snode/internal/repo"
	"snode/internal/trace"
)

// traceServer builds a server whose serve layer AND engine share one
// tracer, the way snserve wires a shard replica.
func traceServer(t *testing.T, tr *trace.Tracer) *Server {
	t.Helper()
	r, _ := getRepo(t)
	e, err := query.New(r, repo.SchemeSNode)
	if err != nil {
		t.Fatal(err)
	}
	e.SetTracer(tr)
	s, err := New(Config{Engine: e, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func doTraced(t *testing.T, s *Server, path, header string) *http.Response {
	t.Helper()
	srv := s.Handler()
	req, err := http.NewRequest(http.MethodGet, "http://shard"+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if header != "" {
		req.Header.Set(trace.HeaderTrace, header)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec.Result()
}

// Regression: the sampled bit must propagate even when router and
// shard SampleEvery differ. A shard with SampleEvery=0 — local
// sampling disabled — must still trace a parent-sampled request, and
// answer with the local trace ID so the router can stitch it.
func TestRemoteSampledBitForcesTraceAtSampleEveryZero(t *testing.T) {
	tr := trace.New(trace.Config{SampleEvery: 0})
	s := traceServer(t, tr)

	resp := doTraced(t, s, "/out?page=3", trace.FormatHeader(77, true))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	idStr := resp.Header.Get(trace.HeaderTraceID)
	if idStr == "" {
		t.Fatal("parent-sampled request returned no X-SNode-Trace-Id")
	}
	id, err := strconv.ParseUint(idStr, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	forced := tr.Get(id)
	if forced == nil {
		t.Fatal("forced trace not retained for fetch-by-ID export")
	}
	if forced.ParentID != 77 {
		t.Fatalf("ParentID = %d, want the router's 77", forced.ParentID)
	}
	if forced.Total() == 0 {
		t.Fatal("forced trace not finished before the response was written")
	}
	names := spanNames(forced.JSON().Root)
	if !names["serve.admission"] {
		t.Fatalf("forced trace missing serve.admission span: %v", names)
	}
	if attrs := forced.JSON().Root.Attrs; attrs["admission_wait_ns"] < 0 {
		t.Fatalf("missing admission_wait_ns attribution: %v", attrs)
	}

	// Parent traced but NOT sampled: no forced trace, no header.
	resp = doTraced(t, s, "/out?page=3", trace.FormatHeader(78, false))
	if got := resp.Header.Get(trace.HeaderTraceID); got != "" {
		t.Fatalf("unsampled parent produced a trace header %q", got)
	}

	// No header at all: nothing traced, nothing returned.
	resp = doTraced(t, s, "/out?page=3", "")
	if got := resp.Header.Get(trace.HeaderTraceID); got != "" {
		t.Fatalf("untraced request produced a trace header %q", got)
	}
}

// Regression: forced sampling must not leak into the shard's own
// 1-in-N rotation. With SampleEvery=3, two local requests then a
// forced one must leave the third local request as the one sampled.
func TestForcedSamplingDoesNotLeakIntoRotation(t *testing.T) {
	tr := trace.New(trace.Config{SampleEvery: 3})
	s := traceServer(t, tr)

	for i := 0; i < 2; i++ {
		resp := doTraced(t, s, "/out?page=3", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	resp := doTraced(t, s, "/out?page=3", trace.FormatHeader(99, true))
	if resp.Header.Get(trace.HeaderTraceID) == "" {
		t.Fatal("forced request not traced")
	}
	// The forced request must not have consumed rotation slot 3: this
	// third LOCAL request is the one the 1-in-3 sampler picks.
	if resp := doTraced(t, s, "/out?page=3", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	var forced, local int
	for _, tc := range tr.Traces() {
		if tc.ParentID != 0 {
			forced++
		} else {
			local++
		}
	}
	if forced != 1 || local != 1 {
		t.Fatalf("retained %d forced / %d local traces, want 1/1 "+
			"(forced sampling perturbed the rotation)", forced, local)
	}
}

// A mining-class forced trace covers the partial path too: the routed
// scatter legs are ?partial=1 requests.
func TestRemoteSampledBitForcesTraceOnPartialQuery(t *testing.T) {
	tr := trace.New(trace.Config{SampleEvery: 0})
	s := traceServer(t, tr)
	resp := doTraced(t, s, "/query?q=1&partial=1", trace.FormatHeader(55, true))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	idStr := resp.Header.Get(trace.HeaderTraceID)
	if idStr == "" {
		t.Fatal("partial leg returned no trace header")
	}
	id, _ := strconv.ParseUint(idStr, 10, 64)
	forced := tr.Get(id)
	if forced == nil || forced.ParentID != 55 || forced.Class != ClassMining {
		t.Fatalf("forced partial trace = %+v", forced)
	}
	if !spanNames(forced.JSON().Root)["serve.admission"] {
		t.Fatal("partial trace missing serve.admission")
	}
}

// Regression: a trace the engine samples itself starts after the
// admission wait, which goes on its root as an attribute — on a partial
// leg, the only /query a shard replica serves, as on a full run.
func TestEngineSampledPartialQueryCarriesAdmissionWait(t *testing.T) {
	for _, path := range []string{"/query?q=1", "/query?q=1&partial=1"} {
		tr := trace.New(trace.Config{SampleEvery: 1})
		s := traceServer(t, tr)
		resp := doTraced(t, s, path, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if strings.HasSuffix(path, "partial=1") {
			body, _ := io.ReadAll(resp.Body)
			if p, err := DecodePartial(body); err != nil || p.Query != 1 {
				t.Fatalf("%s: %+v, %v", path, p, err)
			}
		}
		kept := tr.Traces()
		if len(kept) != 1 || kept[0].Class != "q1" {
			t.Fatalf("%s: retained %d traces, want the engine's one q1 trace", path, len(kept))
		}
		if _, ok := kept[0].JSON().Root.Attrs["admission_wait_ns"]; !ok {
			t.Errorf("%s: engine-sampled trace has no admission_wait_ns on its root: %v", path, kept[0].JSON().Root.Attrs)
		}
	}
}

// The cross-process untraced path — every request reads the
// propagation header — must stay allocation-free and emit no header.
// Wired into make check-overhead.
func TestCrossProcessUntracedZeroAlloc(t *testing.T) {
	tr := trace.New(trace.Config{SampleEvery: 0})
	s := traceServer(t, tr)
	req, err := http.NewRequest(http.MethodGet, "http://shard/out?page=3", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var leaked bool
	allocs := testing.AllocsPerRun(200, func() {
		got, forced := s.startRemote(ctx, req, ClassNav)
		if forced != nil || got != ctx {
			leaked = true
		}
	})
	if leaked {
		t.Fatal("untraced request produced a trace or a derived context")
	}
	if allocs != 0 {
		t.Fatalf("untraced cross-process path allocates %.1f/op, want 0", allocs)
	}
}

// spanNames flattens an exported span tree into a name set.
func spanNames(root *trace.SpanJSON) map[string]bool {
	out := map[string]bool{}
	var walk func(*trace.SpanJSON)
	walk = func(s *trace.SpanJSON) {
		if s == nil {
			return
		}
		out[s.Name] = true
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(root)
	return out
}
