package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snode/internal/admission"
	"snode/internal/metrics"
	"snode/internal/query"
	"snode/internal/repo"
	"snode/internal/snode"
	"snode/internal/synth"
	"snode/internal/webgraph"
)

var (
	testRepo  *repo.Repository
	testCrawl *synth.Crawl
	// fixtureDir holds the shared fixtures — the repo.Build reference
	// under "ref", the K=1 dataset of the same crawl under "k1";
	// TestMain removes it.
	fixtureDir string
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "serve-test-*")
	if err != nil {
		log.Fatal(err)
	}
	fixtureDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func getRepo(t testing.TB) (*repo.Repository, *synth.Crawl) {
	t.Helper()
	if testRepo != nil {
		return testRepo, testCrawl
	}
	crawl, err := synth.Generate(synth.DefaultConfig(6000))
	if err != nil {
		t.Fatal(err)
	}
	opt := repo.DefaultOptions(filepath.Join(fixtureDir, "ref"))
	opt.Schemes = []string{repo.SchemeSNode}
	opt.Layout = crawl.Order
	r, err := repo.Build(crawl.Corpus, opt)
	if err != nil {
		t.Fatalf("repo.Build: %v", err)
	}
	testRepo, testCrawl = r, crawl
	return r, crawl
}

// newTestServer builds a serve.Server plus its engine over the shared
// test repository.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	r, _ := getRepo(t)
	e, err := query.New(r, repo.SchemeSNode)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engine = e
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// snodeReps returns the forward and reverse S-Node representations
// behind the test repository (for pacing and inflight checks).
func snodeReps(t *testing.T) []*snode.Representation {
	t.Helper()
	r, _ := getRepo(t)
	out := []*snode.Representation{
		r.Fwd[repo.SchemeSNode].(*snode.Representation),
	}
	if rev, ok := r.Rev[repo.SchemeSNode].(*snode.Representation); ok {
		out = append(out, rev)
	}
	return out
}

func TestOutEndpointServesCorrectRows(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, crawl := getRepo(t)

	for _, p := range []webgraph.PageID{0, 17, 4242} {
		resp, err := http.Get(fmt.Sprintf("%s/out?page=%d", ts.URL, p))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("/out?page=%d: status %d: %s", p, resp.StatusCode, body)
		}
		var out OutResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		got := append([]webgraph.PageID(nil), out.Neighbors...)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		want := crawl.Corpus.Graph.Out(p)
		if len(got) != len(want) {
			t.Fatalf("page %d: %d neighbors over HTTP, want %d", p, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("page %d neighbor %d: got %d, want %d", p, i, got[i], want[i])
			}
		}
	}
}

func TestQueryEndpointServesRows(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/query?q=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("/query?q=1: status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr.Query != 1 || len(qr.Rows) == 0 {
		t.Fatalf("query response %+v: want query 1 with rows", qr)
	}
}

func TestBadParamsAre400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{
		"/out?page=xyz", "/out", "/query?q=0", "/query?q=7", "/query",
		"/out?page=3&deadline_ms=abc", "/out?page=3&deadline_ms=-5",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, resp.StatusCode)
		}
	}
}

// TestDeadlinePropagatesThroughHTTP is the satellite deadline test: a
// request with a short ?deadline_ms against a paced, thrashing-cache
// store must be cancelled MID-QUERY — the engine/reader observes
// ctx.Err, not the HTTP layer timing out — answer with the shed status
// (429 + Retry-After, reason deadline), return promptly, and leave no
// in-flight cache decode claimed.
func TestDeadlinePropagatesThroughHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	reps := snodeReps(t)
	for _, rep := range reps {
		rep.ResetCache(64 << 10) // thrash: every lookup pays modeled I/O
		rep.SetPace(5.0)         // ~45ms real stall per cold span read
	}
	defer func() {
		for _, rep := range reps {
			rep.SetPace(0)
			rep.ResetCache(16 << 20)
		}
	}()

	start := time.Now()
	resp, err := http.Get(ts.URL + "/query?q=3&deadline_ms=5")
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("short-deadline query: status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After header")
	}
	var shed shedResponse
	if err := json.NewDecoder(resp.Body).Decode(&shed); err != nil {
		t.Fatal(err)
	}
	if shed.Reason != admission.ReasonDeadline {
		t.Fatalf("shed reason %q, want %q (ctx deadline observed mid-query)", shed.Reason, admission.ReasonDeadline)
	}
	if shed.RetryAfterMS <= 0 {
		t.Fatalf("retry_after_ms = %d, want > 0", shed.RetryAfterMS)
	}
	// Q3 against the paced, thrashing store takes seconds; a propagated
	// 30ms deadline must cut the response to well under that.
	if elapsed > 2*time.Second {
		t.Fatalf("shed response took %v; deadline did not propagate into the engine", elapsed)
	}
	// No orphaned in-flight decode: the cancelled request's claims were
	// all completed by their leaders.
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := int64(0)
		for _, rep := range reps {
			n += rep.InflightDecodes()
		}
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d in-flight decodes still claimed after cancelled request", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The server must still serve normally afterwards.
	for _, rep := range reps {
		rep.SetPace(0)
		rep.ResetCache(16 << 20)
	}
	resp2, err := http.Get(ts.URL + "/query?q=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("query after cancelled request: status %d", resp2.StatusCode)
	}
}

// TestOutRejectsNegativePage is the negative-page-ID regression test:
// page=-5 parses fine as an int32, and before the fix it reached the
// engine as a negative PageID instead of answering 400.
func TestOutRejectsNegativePage(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, page := range []string{"-1", "-5", "-2147483648"} {
		resp, err := http.Get(ts.URL + "/out?page=" + page)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("/out?page=%s: status %d, want 400", page, resp.StatusCode)
		}
	}
}

// TestOutRejectsPagePastTheCorpus: a page ID at or past NumPages is not
// in the corpus, and is refused 404 — the router's answer to the same
// request — before the request costs anything: it used to take an
// admission slot and a serve_latency_nav sample on its way to the
// reader's out-of-range error and a 500.
func TestOutRejectsPagePastTheCorpus(t *testing.T) {
	reg := metrics.NewRegistry()
	s, ts := newTestServer(t, Config{Registry: reg})
	_, crawl := getRepo(t)
	n := crawl.Corpus.Graph.NumPages()
	for _, page := range []int{n, n + 1, 2000000000} {
		resp, err := http.Get(fmt.Sprintf("%s/out?page=%d", ts.URL, page))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("/out?page=%d of %d pages: status %d, want 404", page, n, resp.StatusCode)
		}
	}
	if st := s.Admission().Stats()[ClassNav]; st.Offered != 0 {
		t.Errorf("refused requests reached admission: %+v", st)
	}
	if h := reg.Snapshot().Histograms["serve_latency_nav"]; h.Count != 0 {
		t.Errorf("serve_latency_nav count = %d after refused requests, want 0", h.Count)
	}
	// The last page is still served.
	resp, err := http.Get(fmt.Sprintf("%s/out?page=%d", ts.URL, n-1))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/out?page=%d (the last page): status %d, want 200", n-1, resp.StatusCode)
	}
}

// TestLatencyObservedOnShed is the latency-bias regression test: an
// ADMITTED request that is shed mid-query (deadline fires inside the
// engine) still occupied an execution slot end-to-end, and its latency
// must land in serve_latency_mining — before the fix only the success
// path observed, biasing the p99 the load harness reports at the knee.
func TestLatencyObservedOnShed(t *testing.T) {
	reg := metrics.NewRegistry()
	_, ts := newTestServer(t, Config{Registry: reg})
	reps := snodeReps(t)
	for _, rep := range reps {
		rep.ResetCache(64 << 10)
		rep.SetPace(5.0)
	}
	defer func() {
		for _, rep := range reps {
			rep.SetPace(0)
			rep.ResetCache(16 << 20)
		}
	}()

	resp, err := http.Get(ts.URL + "/query?q=3&deadline_ms=5")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("short-deadline query: status %d, want 429 (mid-query shed)", resp.StatusCode)
	}
	h, ok := reg.Snapshot().Histograms["serve_latency_mining"]
	if !ok {
		t.Fatal("serve_latency_mining not registered")
	}
	if h.Count != 1 {
		t.Fatalf("serve_latency_mining count = %d after a mid-query shed, want 1 (admitted requests always observe)", h.Count)
	}
}

// TestQueueFullShedsWith429: with one slot held and the one queue seat
// taken, the next arrival is shed queue_full with 429 + Retry-After.
func TestQueueFullShedsWith429(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 1})
	ctrl := s.Admission()

	// Hold the only execution slot directly.
	release, err := ctrl.Acquire(t.Context(), ClassMining)
	if err != nil {
		t.Fatal(err)
	}

	// One request queues (async; it completes after release).
	queued := make(chan *http.Response, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(ts.URL + "/query?q=1")
		if err == nil {
			queued <- resp
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for ctrl.QueueDepth() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("queued request never reached the admission queue")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue full: this one must shed fast.
	resp, err := http.Get(ts.URL + "/query?q=1")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("overflow request: status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}
	var shed shedResponse
	if err := json.NewDecoder(resp.Body).Decode(&shed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if shed.Reason != admission.ReasonQueueFull {
		t.Fatalf("shed reason %q, want %q", shed.Reason, admission.ReasonQueueFull)
	}

	// Release the slot: the queued request must be admitted and succeed.
	release()
	wg.Wait()
	select {
	case r2 := <-queued:
		if r2.StatusCode != http.StatusOK {
			t.Fatalf("queued request: status %d after slot freed", r2.StatusCode)
		}
		r2.Body.Close()
	default:
		t.Fatal("queued request never completed")
	}

	st := ctrl.Stats()[ClassMining]
	if st.Offered != st.Admitted+st.Shed {
		t.Fatalf("admission accounting: offered %d != admitted %d + shed %d",
			st.Offered, st.Admitted, st.Shed)
	}
	if st.Shed == 0 {
		t.Fatal("shed counter is zero despite a 429")
	}
}

// TestServeMetricsRegistered: the serving registry carries the
// admission counters and per-class latency histograms.
func TestServeMetricsRegistered(t *testing.T) {
	reg := metrics.NewRegistry()
	_, ts := newTestServer(t, Config{Registry: reg})
	for _, url := range []string{ts.URL + "/out?page=5", ts.URL + "/query?q=2"} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	snap := reg.Snapshot()
	for _, name := range []string{
		"admission_nav_offered", "admission_nav_admitted", "admission_nav_shed",
		"admission_mining_offered", "admission_mining_admitted", "admission_mining_shed",
	} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("counter %q not registered", name)
		}
	}
	if snap.Counters["admission_nav_admitted"] != 1 || snap.Counters["admission_mining_admitted"] != 1 {
		t.Errorf("admitted counters = %d/%d, want 1/1",
			snap.Counters["admission_nav_admitted"], snap.Counters["admission_mining_admitted"])
	}
	for _, name := range []string{"serve_latency_nav", "serve_latency_mining"} {
		h, ok := snap.Histograms[name]
		if !ok {
			t.Errorf("histogram %q not registered", name)
			continue
		}
		if h.Count != 1 {
			t.Errorf("%s count = %d, want 1", name, h.Count)
		}
	}
}

// labelledRecord reports whether a debug=1 goroutine profile holds a
// goroutine that carries the pprof label query=<class> and has frame
// on its stack.
func labelledRecord(profile, class, frame string) bool {
	for _, rec := range strings.Split(profile, "\n\n") {
		if strings.Contains(rec, `"query":"`+class+`"`) && strings.Contains(rec, frame) {
			return true
		}
	}
	return false
}

// TestQueryRunsUnderPprofLabel pins the profile split by query class:
// while the engine navigates for /query?q=N — a full run or a router's
// partial leg — its goroutine carries the label query=qN.
func TestQueryRunsUnderPprofLabel(t *testing.T) {
	r, _ := getRepo(t)
	e, err := query.New(r, repo.SchemeSNode)
	if err != nil {
		t.Fatal(err)
	}
	// The ownership predicate runs on the navigating goroutine: take the
	// goroutine profile from inside it, once per request.
	var prof bytes.Buffer
	var armed atomic.Bool
	e.SetOwner(func(webgraph.PageID) bool {
		if armed.CompareAndSwap(true, false) {
			pprof.Lookup("goroutine").WriteTo(&prof, 1)
		}
		return true
	})
	s, err := New(Config{Engine: e})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, path := range []string{"/query?q=3", "/query?q=5&partial=1"} {
		prof.Reset()
		armed.Store(true)
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if strings.HasSuffix(path, "partial=1") {
			if p, err := DecodePartial(body); err != nil || p.Query != 5 || resp.ContentLength != int64(len(body)) {
				t.Fatalf("%s: %v, Q%d, Content-Length %d for %d bytes", path, err, p.Query, resp.ContentLength, len(body))
			}
		}
		class := "q" + path[len("/query?q="):len("/query?q=")+1]
		if !labelledRecord(prof.String(), class, "query.(*Engine).navigate") {
			t.Errorf("%s: no navigating goroutine labelled query=%s in:\n%s", path, class, prof.String())
		}
	}
}
