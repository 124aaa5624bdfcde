package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"snode/internal/iosim"
	"snode/internal/query"
	"snode/internal/repo"
	"snode/internal/shard"
	"snode/internal/snode"
	"snode/internal/synth"
	"snode/internal/trace"
	"snode/internal/webgraph"
)

var datasetOnce sync.Once

// getDataset builds (once) the K=1 dataset of the shared crawl, the
// directory `snbuild -out` writes.
func getDataset(t testing.TB) string {
	t.Helper()
	root := filepath.Join(fixtureDir, "k1")
	datasetOnce.Do(func() {
		_, crawl := getRepo(t)
		if _, err := shard.Build(crawl, 1, root, snode.DefaultConfig()); err != nil {
			t.Fatalf("shard.Build K=1: %v", err)
		}
	})
	return root
}

// openReplica opens the K=1 dataset the way snserve does and wires a
// replica over it; a live one gets a scratch segment directory.
func openReplica(t *testing.T, cfg Config, live bool) *Replica {
	t.Helper()
	sh, err := shard.OpenServing(getDataset(t), 0, 16<<20, iosim.Model2002())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sh.Close() })
	liveDir := ""
	if live {
		liveDir = t.TempDir()
	}
	rep, err := NewReplica(sh, cfg, liveDir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.Close() })
	return rep
}

// do runs one request through h and returns the recorded response.
func do(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// outOf GETs /out?page=p through h and returns the neighbors.
func outOf(t *testing.T, h http.Handler, p webgraph.PageID) []webgraph.PageID {
	t.Helper()
	rec := do(h, http.MethodGet, fmt.Sprintf("/out?page=%d", p), "")
	if rec.Code != http.StatusOK {
		t.Fatalf("/out?page=%d: status %d: %s", p, rec.Code, rec.Body)
	}
	var out OutResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	return out.Neighbors
}

func contains(list []webgraph.PageID, p webgraph.PageID) bool {
	for _, q := range list {
		if q == p {
			return true
		}
	}
	return false
}

// TestReplicaOverDatasetMatchesRepoBuild closes the pipeline: the
// dataset shard.Build writes at K=1, opened and wired the one way a
// server is, answers /out for every page and /query for all six
// queries with the rows of an engine over repo.Build of the same
// crawl — and does so as a shard, headers and ?partial=1 included.
func TestReplicaOverDatasetMatchesRepoBuild(t *testing.T) {
	ref, crawl := getRepo(t)
	refEng, err := query.New(ref, repo.SchemeSNode)
	if err != nil {
		t.Fatal(err)
	}
	rep := openReplica(t, Config{}, false)
	h := rep.Handler()

	g := crawl.Corpus.Graph
	for p := webgraph.PageID(0); int(p) < g.NumPages(); p++ {
		got, want := outOf(t, h, p), g.Out(p)
		if len(got) != len(want) {
			t.Fatalf("page %d: %d neighbors, want %d", p, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("page %d neighbor %d: %d, want %d", p, i, got[i], want[i])
			}
		}
	}
	for _, q := range query.All() {
		want, err := refEng.Run(t.Context(), q)
		if err != nil {
			t.Fatal(err)
		}
		rec := do(h, http.MethodGet, fmt.Sprintf("/query?q=%d", q), "")
		var got QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("/query?q=%d: status %d, %v: %s", q, rec.Code, err, rec.Body)
		}
		if len(got.Rows) != len(want.Rows) || len(got.Rows) == 0 {
			t.Fatalf("Q%d: %d rows, want %d (> 0)", q, len(got.Rows), len(want.Rows))
		}
		for i, w := range want.Rows {
			if got.Rows[i].Key != w.Key || math.Abs(got.Rows[i].Value-w.Value) > 1e-9*math.Max(1, math.Abs(w.Value)) {
				t.Fatalf("Q%d row %d: %+v, want %+v", q, i, got.Rows[i], w)
			}
		}
		if v := rec.Header().Get("X-SNode-Shard"); v != "0/1" {
			t.Fatalf("Q%d: X-SNode-Shard = %q, want 0/1", q, v)
		}
		if v := rec.Header().Get("X-SNode-Shard-Version"); v != rep.Server.shard.Version || v == "" {
			t.Fatalf("Q%d: X-SNode-Shard-Version = %q, want the manifest's %q", q, v, rep.Server.shard.Version)
		}
		// The router's leg: the one shard's partials merge to the same rows.
		rec = do(h, http.MethodGet, fmt.Sprintf("/query?q=%d&partial=1", q), "")
		part, err := DecodePartial(rec.Body.Bytes())
		if err != nil || rec.Code != http.StatusOK {
			t.Fatalf("/query?q=%d&partial=1: status %d, %v", q, rec.Code, err)
		}
		if ct, cl := rec.Header().Get("Content-Type"), rec.Header().Get("Content-Length"); ct != PartialContentType || cl != strconv.Itoa(rec.Body.Len()) {
			t.Fatalf("/query?q=%d&partial=1: Content-Type %q, Content-Length %q for %d bytes", q, ct, cl, rec.Body.Len())
		}
		merged := query.MergePartials(q, [][]query.PartialRow{part.Partials})
		if len(merged) != len(want.Rows) {
			t.Fatalf("Q%d: %d rows merged from the partial leg, want %d", q, len(merged), len(want.Rows))
		}
	}
}

// TestUpdateEndpoint drives POST /update on a live replica: an added
// link shows in /out of its source and, through an engine that reads
// the reverse overlay as its forward store, in /out of its target; a
// removal takes it out of both; and every refusal leaves the graph as
// it was.
func TestUpdateEndpoint(t *testing.T) {
	_, crawl := getRepo(t)
	rep := openReplica(t, Config{}, true)
	h := rep.Handler()

	nav := rep.Server.navEng.R
	revEng, err := query.New(nav.WithStores(repo.SchemeSNode, rep.rev, rep.fwd), repo.SchemeSNode)
	if err != nil {
		t.Fatal(err)
	}
	revSrv, err := New(Config{Engine: revEng})
	if err != nil {
		t.Fatal(err)
	}
	rh := revSrv.Handler()

	// src gains a link to dst, a page it does not point at; keep is a
	// link src already has.
	g := crawl.Corpus.Graph
	src := webgraph.PageID(17)
	keep := g.Out(src)[0]
	dst := webgraph.PageID(0)
	for contains(g.Out(src), dst) || dst == src {
		dst++
	}
	applied := func() int64 { return rep.fwd.DeltaStatsNow().AppliedOps }

	rec := do(h, http.MethodPost, "/update", fmt.Sprintf(`[{"src":%d,"dst":%d,"op":"add"}]`, src, dst))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"applied":1`) {
		t.Fatalf("add: status %d: %s", rec.Code, rec.Body)
	}
	if !contains(outOf(t, h, src), dst) || !contains(outOf(t, rh, dst), src) {
		t.Fatalf("after add: out(%d) = %v, in(%d) = %v", src, outOf(t, h, src), dst, outOf(t, rh, dst))
	}
	rec = do(h, http.MethodPost, "/update", fmt.Sprintf(`[{"src":%d,"dst":%d,"op":"remove"}]`, src, dst))
	if rec.Code != http.StatusOK {
		t.Fatalf("remove: status %d: %s", rec.Code, rec.Body)
	}
	if contains(outOf(t, h, src), dst) || contains(outOf(t, rh, dst), src) {
		t.Fatalf("after remove: out(%d) = %v, in(%d) = %v", src, outOf(t, h, src), dst, outOf(t, rh, dst))
	}

	// Refusals. The contract is validate all, then apply: a batch with a
	// bad op anywhere in it changes nothing, its valid head included.
	before := applied()
	valid := fmt.Sprintf(`{"src":%d,"dst":%d,"op":"remove"}`, src, keep)
	big := "[" + strings.Repeat(valid+",", maxUpdateBody/len(valid)+1) + valid + "]"
	for _, c := range []struct {
		name, method, body string
		want               int
	}{
		{"unknown op after a valid one", http.MethodPost, "[" + valid + `,{"src":1,"dst":2,"op":"flip"}]`, http.StatusBadRequest},
		{"page out of range after a valid op", http.MethodPost, "[" + valid + `,{"src":1,"dst":99999999,"op":"add"}]`, http.StatusBadRequest},
		{"malformed body", http.MethodPost, `[{"src":`, http.StatusBadRequest},
		{"body past the limit", http.MethodPost, big, http.StatusRequestEntityTooLarge},
		{"GET", http.MethodGet, "", http.StatusMethodNotAllowed},
	} {
		if rec := do(h, c.method, "/update", c.body); rec.Code != c.want {
			t.Errorf("%s: status %d, want %d: %s", c.name, rec.Code, c.want, rec.Body)
		}
		if got := applied(); got != before {
			t.Fatalf("%s: applied ops moved %d -> %d", c.name, before, got)
		}
		if !contains(outOf(t, h, src), keep) {
			t.Fatalf("%s: link %d -> %d is gone", c.name, src, keep)
		}
	}

	// A replica that is not live has no /update; a draining one stops
	// taking mutations and reports itself unready.
	static := openReplica(t, Config{}, false).Handler()
	if rec := do(static, http.MethodPost, "/update", "[]"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("/update on a static replica: status %d, want 503", rec.Code)
	}
	if rec := do(h, http.MethodGet, "/healthz", ""); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ready") {
		t.Errorf("/healthz while serving: %d %s", rec.Code, rec.Body)
	}
	rep.draining.Store(true)
	if rec := do(h, http.MethodGet, "/healthz", ""); rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "draining") {
		t.Errorf("/healthz while draining: %d %s", rec.Code, rec.Body)
	}
	if rec := do(h, http.MethodPost, "/update", "["+valid+"]"); rec.Code != http.StatusServiceUnavailable || applied() != before {
		t.Errorf("/update while draining: status %d, applied %d -> %d", rec.Code, before, applied())
	}
}

// TestLiveNeedsOneShard: a live replica over one shard of several is
// refused, since an update applied there would bypass the partition.
func TestLiveNeedsOneShard(t *testing.T) {
	crawl, err := synth.Generate(synth.DefaultConfig(1500))
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	if _, err := shard.Build(crawl, 2, root, snode.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	sh, err := shard.OpenServing(root, 1, 1<<20, iosim.Model2002())
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	if rep, err := NewReplica(sh, Config{}, t.TempDir()); err == nil || !strings.Contains(err.Error(), "one-shard") {
		t.Fatalf("live replica over shard 1/2: %v, %v; want the one-shard refusal", rep, err)
	}
	rep, err := NewReplica(sh, Config{}, "")
	if err != nil {
		t.Fatalf("static replica over shard 1/2: %v", err)
	}
	if v := do(rep.Handler(), http.MethodGet, "/out?page=0", "").Header().Get("X-SNode-Shard"); v != "1/2" {
		t.Fatalf("X-SNode-Shard = %q, want 1/2", v)
	}
}

// TestReplicaSurface: the whole mux, built twice in one process (a
// second expvar.Publish of one name would panic). With local sampling
// off, a leg carrying the router's sampled header is still traced, and
// the subtree is fetched from the same surface; the metrics scrapes and
// the expvar page answer from the replica's registry.
func TestReplicaSurface(t *testing.T) {
	tr := trace.New(trace.Config{SampleEvery: 0})
	rep := openReplica(t, Config{Tracer: tr}, false)
	_ = rep.Handler()
	h := rep.Handler()

	req := httptest.NewRequest(http.MethodGet, "/query?q=2&partial=1", nil)
	req.Header.Set(trace.HeaderTrace, trace.FormatHeader(77, true))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	id := rec.Header().Get(trace.HeaderTraceID)
	if rec.Code != http.StatusOK || id == "" {
		t.Fatalf("sampled leg: status %d, X-SNode-Trace-Id %q", rec.Code, id)
	}
	rec = do(h, http.MethodGet, "/debug/traces?id="+id, "")
	var tj trace.TraceJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &tj); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("/debug/traces?id=%s: status %d, %v", id, rec.Code, err)
	}
	if names := spanNames(tj.Root); tj.Root.Name != ClassMining || !names["serve.admission"] || !names["nav"] {
		t.Fatalf("forced trace: root %q, spans %v; want the mining class with admission and nav", tj.Root.Name, names)
	}
	if do(h, http.MethodGet, "/out?page=3", "").Header().Get(trace.HeaderTraceID) != "" {
		t.Fatal("a request without the header was traced with local sampling off")
	}

	if rec = do(h, http.MethodGet, "/metrics", ""); !strings.Contains(rec.Body.String(), "query_latency_q2_count 1") ||
		!strings.Contains(rec.Body.String(), "admission_mining_admitted 1") {
		t.Errorf("/metrics misses the leg's engine or admission counts:\n%s", rec.Body)
	}
	var vars map[string]json.RawMessage
	rec = do(h, http.MethodGet, "/debug/vars", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil || vars["snode"] == nil || vars["memstats"] == nil {
		t.Errorf("/debug/vars: %v, keys %d; want valid JSON with snode and memstats", err, len(vars))
	}
	for _, path := range []string{"/metrics.json", "/debug/pprof/cmdline", "/healthz"} {
		if rec := do(h, http.MethodGet, path, ""); rec.Code != http.StatusOK {
			t.Errorf("%s: status %d", path, rec.Code)
		}
	}
}

// TestShutdownSequence runs the exit sequence on a listening live
// replica: by the time draining is announced /healthz and /update
// already refuse (the listener is still up, which is how the router
// learns to go elsewhere), a request in flight is let finish, then the
// listener is gone and the accepted mutation sits in a sealed segment.
func TestShutdownSequence(t *testing.T) {
	rep := openReplica(t, Config{MaxConcurrent: 1}, true)
	srv, addr, err := Start("127.0.0.1:0", rep.Handler())
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr.String()
	post := func() int {
		resp, err := http.Post(base+"/update", "application/json", bytes.NewReader([]byte(`[{"src":5,"dst":9,"op":"add"}]`)))
		if err != nil {
			t.Error(err)
			return 0
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(); code != http.StatusOK {
		t.Fatalf("/update before shutdown: status %d", code)
	}

	// One request in flight across the shutdown: it waits for the only
	// admission slot, which the test holds until draining has begun.
	release, err := rep.Server.Admission().Acquire(t.Context(), ClassNav)
	if err != nil {
		t.Fatal(err)
	}
	inflight := make(chan int, 1)
	go func() {
		resp, err := http.Get(base + "/out?page=17")
		if err != nil {
			inflight <- 0
			return
		}
		resp.Body.Close()
		inflight <- resp.StatusCode
	}()
	for deadline := time.Now().Add(5 * time.Second); rep.Server.Admission().QueueDepth() < 1; {
		if time.Now().After(deadline) {
			t.Fatal("the in-flight request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	var steps []string
	err = rep.Shutdown(srv, 5*time.Second, func(format string, args ...any) {
		steps = append(steps, fmt.Sprintf(format, args...))
		if len(steps) > 1 {
			return
		}
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Errorf("/healthz as draining is announced: %v", err)
		} else {
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("/healthz as draining is announced: status %d, want 503", resp.StatusCode)
			}
		}
		if code := post(); code != http.StatusServiceUnavailable {
			t.Errorf("/update as draining is announced: status %d, want 503", code)
		}
		release()
	})
	if err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if code := <-inflight; code != http.StatusOK {
		t.Errorf("the request in flight at shutdown: status %d, want 200", code)
	}
	if len(steps) != 3 || !strings.HasPrefix(steps[0], "draining") || !strings.HasPrefix(steps[1], "sealing") ||
		steps[2] != "delta state at exit: 1 applied ops in 1 segment(s)" {
		t.Errorf("steps = %q, want draining, sealing, then 1 op in 1 segment", steps)
	}
	if ds := rep.fwd.DeltaStatsNow(); ds.MemtableEntries != 0 || ds.SegmentEntries != 1 {
		t.Errorf("after the seal: %d memtable entries, %d segment entries; want 0 and 1", ds.MemtableEntries, ds.SegmentEntries)
	}
	if resp, err := http.Get(base + "/healthz"); err == nil {
		resp.Body.Close()
		t.Error("the listener still accepts after Shutdown")
	}
}
