package router

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
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snode/internal/iosim"
	"snode/internal/metrics"
	"snode/internal/query"
	"snode/internal/serve"
	"snode/internal/shard"
	"snode/internal/snode"
	"snode/internal/synth"
	"snode/internal/trace"
	"snode/internal/webgraph"
)

var (
	testCrawl *synth.Crawl
	testRoots = map[int]string{}
	// fixtureDir holds one dataset per K under "k<K>"; TestMain removes
	// it.
	fixtureDir string
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "router-test-*")
	if err != nil {
		log.Fatal(err)
	}
	fixtureDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func getCrawl(t testing.TB) *synth.Crawl {
	t.Helper()
	if testCrawl == nil {
		c, err := synth.Generate(synth.DefaultConfig(6000))
		if err != nil {
			t.Fatal(err)
		}
		testCrawl = c
	}
	return testCrawl
}

func getRoot(t testing.TB, k int) string {
	t.Helper()
	if root, ok := testRoots[k]; ok {
		return root
	}
	root := filepath.Join(fixtureDir, "k"+strconv.Itoa(k))
	if _, err := shard.Build(getCrawl(t), k, root, snode.DefaultConfig()); err != nil {
		t.Fatalf("shard.Build K=%d: %v", k, err)
	}
	testRoots[k] = root
	return root
}

// flaky wraps a handler with a kill switch: while down, every request
// (including /healthz) answers 500.
type flaky struct {
	h    http.Handler
	down atomic.Bool
}

func (f *flaky) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.down.Load() {
		http.Error(w, "replica down", http.StatusInternalServerError)
		return
	}
	f.h.ServeHTTP(w, r)
}

// world is a running K-shard serving tier: opened shards, one
// serve.Replica per replica (the wiring snserve runs, whole HTTP
// surface included), and the router config pieces. Every replica gets
// its own metrics registry (scraped by /cluster/metrics) and a
// SampleEvery=0 tracer — local sampling off, so any trace a replica
// keeps was forced by the router's sampled bit.
type world struct {
	manifest   *shard.Manifest
	boundaries []*shard.Boundary
	replicas   [][]string        // URLs fed to the router
	flaky      map[string]*flaky // URL → kill switch
	servers    map[string]*httptest.Server
	regs       map[string]*metrics.Registry
	tracers    map[string]*trace.Tracer
}

// startWorld opens every shard under root and starts `perShard` replica
// servers per shard, each with a kill switch.
func startWorld(t *testing.T, root string, k, perShard int) *world {
	t.Helper()
	m, err := shard.LoadManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := shard.LoadFwdBoundaries(root, m)
	if err != nil {
		t.Fatal(err)
	}
	w := &world{
		manifest:   m,
		boundaries: bs,
		flaky:      map[string]*flaky{},
		servers:    map[string]*httptest.Server{},
		regs:       map[string]*metrics.Registry{},
		tracers:    map[string]*trace.Tracer{},
	}
	for s := 0; s < k; s++ {
		sh, err := shard.OpenServing(root, s, 16<<20, iosim.Model2002())
		if err != nil {
			t.Fatalf("OpenServing %d: %v", s, err)
		}
		t.Cleanup(func() { sh.Close() })
		var urls []string
		for rep := 0; rep < perShard; rep++ {
			rreg := metrics.NewRegistry()
			rtr := trace.New(trace.Config{SampleEvery: 0})
			replica, err := serve.NewReplica(sh, serve.Config{Registry: rreg, Tracer: rtr}, "")
			if err != nil {
				t.Fatal(err)
			}
			f := &flaky{h: replica.Handler()}
			ts := httptest.NewServer(f)
			t.Cleanup(ts.Close)
			urls = append(urls, ts.URL)
			w.flaky[ts.URL] = f
			w.servers[ts.URL] = ts
			w.regs[ts.URL] = rreg
			w.tracers[ts.URL] = rtr
		}
		w.replicas = append(w.replicas, urls)
	}
	return w
}

func newRouter(t *testing.T, w *world, cfg Config) (*Router, *httptest.Server) {
	t.Helper()
	cfg.Manifest = w.manifest
	cfg.Boundaries = w.boundaries
	cfg.Replicas = w.replicas
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = -1 // tests drive Probe directly
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	ts := httptest.NewServer(r.Handler())
	t.Cleanup(ts.Close)
	return r, ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("%s: bad body %q: %v", url, body, err)
		}
	}
	return resp.StatusCode
}

// crossShardPages picks pages whose out-list crosses shards (and two
// that do not), the cases the router's boundary merge must cover. A
// one-shard manifest has only the second kind.
func crossShardPages(t *testing.T, m *shard.Manifest, limit int) []webgraph.PageID {
	t.Helper()
	g := getCrawl(t).Corpus.Graph
	var cross, intra []webgraph.PageID
	for p := webgraph.PageID(0); int(p) < g.NumPages(); p++ {
		home := m.ShardOf(p)
		crossing := false
		for _, q := range g.Out(p) {
			if m.ShardOf(q) != home {
				crossing = true
				break
			}
		}
		if crossing && len(cross) < limit {
			cross = append(cross, p)
		} else if !crossing && len(g.Out(p)) > 0 && len(intra) < 2 {
			intra = append(intra, p)
		}
		if len(cross) >= limit && len(intra) >= 2 {
			break
		}
	}
	if len(cross) == 0 && m.NumShards > 1 {
		t.Fatal("no cross-shard pages in corpus")
	}
	return append(cross, intra...)
}

// TestRouterBadParams: the router validates before fanning out.
func TestRouterBadParams(t *testing.T) {
	w := startWorld(t, getRoot(t, 2), 2, 1)
	_, ts := newRouter(t, w, Config{})
	for path, want := range map[string]int{
		"/out?page=xyz":       http.StatusBadRequest,
		"/out?page=-5":        http.StatusBadRequest,
		"/out?page=999999999": http.StatusNotFound,
		"/query?q=0":          http.StatusBadRequest,
		"/query?q=7":          http.StatusBadRequest,
	} {
		if code := getJSON(t, ts.URL+path, nil); code != want {
			t.Errorf("%s: status %d, want %d", path, code, want)
		}
	}
}

// TestKillOneReplicaStillServes: with two replicas per shard and one
// killed, every query class keeps answering through failover, and the
// dead replica is ejected after EjectAfter consecutive failures.
func TestKillOneReplicaStillServes(t *testing.T) {
	k := 2
	w := startWorld(t, getRoot(t, k), k, 2)
	reg := metrics.NewRegistry()
	r, ts := newRouter(t, w, Config{EjectAfter: 2, Registry: reg})

	// Kill the first replica of every shard.
	for _, urls := range w.replicas {
		w.flaky[urls[0]].down.Store(true)
	}
	for _, q := range query.All() {
		var got serve.QueryResponse
		if code := getJSON(t, fmt.Sprintf("%s/query?q=%d", ts.URL, q), &got); code != http.StatusOK {
			t.Fatalf("/query?q=%d with one replica down: status %d", q, code)
		}
		if len(got.Rows) == 0 {
			t.Fatalf("Q%d: no rows through failover", q)
		}
	}
	for _, p := range crossShardPages(t, w.manifest, 2) {
		if code := getJSON(t, fmt.Sprintf("%s/out?page=%d", ts.URL, p), nil); code != http.StatusOK {
			t.Fatalf("/out?page=%d with one replica down: status %d", p, code)
		}
	}
	if got := reg.Snapshot().Counters["router_replica_ejected"]; got < 2 {
		t.Fatalf("router_replica_ejected = %d, want >= 2 (one per shard)", got)
	}
	if got := reg.Snapshot().Counters["router_failovers"]; got == 0 {
		t.Fatal("router_failovers = 0 despite a dead replica")
	}
	// Ejected replicas are skipped: candidates lead with the healthy one.
	for _, set := range r.shards {
		if set.replicas[0].healthy.Load() {
			t.Fatal("killed replica still marked healthy")
		}
	}
}

// TestProbeReadmission: an ejected replica whose /healthz recovers is
// re-admitted by the probe loop and serves again.
func TestProbeReadmission(t *testing.T) {
	k := 2
	w := startWorld(t, getRoot(t, k), k, 2)
	reg := metrics.NewRegistry()
	r, ts := newRouter(t, w, Config{EjectAfter: 1, Registry: reg})

	victim := w.replicas[0][0]
	w.flaky[victim].down.Store(true)
	// Drive traffic until the victim is ejected.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Snapshot().Counters["router_replica_ejected"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("victim was never ejected")
		}
		getJSON(t, ts.URL+"/query?q=1", nil)
	}
	// Probe while still down: stays ejected.
	r.Probe()
	if reg.Snapshot().Counters["router_replica_readmitted"] != 0 {
		t.Fatal("down replica was re-admitted")
	}
	// Recover and probe: re-admitted and healthy again.
	w.flaky[victim].down.Store(false)
	r.Probe()
	if reg.Snapshot().Counters["router_replica_readmitted"] != 1 {
		t.Fatal("recovered replica was not re-admitted by the probe")
	}
	for _, set := range r.shards {
		for _, rep := range set.replicas {
			if !rep.healthy.Load() {
				t.Fatalf("replica %s still ejected after recovery", rep.url)
			}
		}
	}
	if code := getJSON(t, ts.URL+"/query?q=2", nil); code != http.StatusOK {
		t.Fatalf("query after re-admission: status %d", code)
	}
}

// TestOneShardAllDownFailsClosed: when every replica of one shard is
// down, mining queries answer 503 (a partial merge would be silently
// wrong) and /out fails only for pages that shard owns. The per-class
// request and error counters follow: each class counts its requests,
// and every failed scatter is one mining error.
func TestOneShardAllDownFailsClosed(t *testing.T) {
	k := 2
	w := startWorld(t, getRoot(t, k), k, 1)
	reg := metrics.NewRegistry()
	_, ts := newRouter(t, w, Config{EjectAfter: 1, Registry: reg})
	m := w.manifest
	var owned0, owned1 webgraph.PageID = -1, -1
	for p := webgraph.PageID(0); int(p) < m.NumPages; p++ {
		if m.ShardOf(p) == 0 && owned0 < 0 {
			owned0 = p
		}
		if m.ShardOf(p) == 1 && owned1 < 0 {
			owned1 = p
		}
	}

	for i := 0; i < 10; i++ {
		if code := getJSON(t, ts.URL+"/query?q=1", nil); code != http.StatusOK {
			t.Fatalf("/query with every shard up: status %d", code)
		}
		if code := getJSON(t, fmt.Sprintf("%s/out?page=%d", ts.URL, owned1), nil); code != http.StatusOK {
			t.Fatalf("/out with every shard up: status %d", code)
		}
	}
	c := reg.Snapshot().Counters
	if c["router_nav_requests"] != 10 || c["router_mining_requests"] != 10 || c["router_nav_errors"] != 0 || c["router_mining_errors"] != 0 {
		t.Fatalf("healthy counters: nav %d requests %d errors, mining %d requests %d errors; want 10/0 each",
			c["router_nav_requests"], c["router_nav_errors"], c["router_mining_requests"], c["router_mining_errors"])
	}

	w.flaky[w.replicas[1][0]].down.Store(true)
	for i := 0; i < 10; i++ {
		if code := getJSON(t, ts.URL+"/query?q=1", nil); code != http.StatusServiceUnavailable {
			t.Fatalf("/query with shard 1 down: status %d, want 503", code)
		}
	}
	if got := reg.Snapshot().Counters["router_mining_errors"]; got != 10 {
		t.Fatalf("router_mining_errors after 10 scatters with shard 1 down = %d, want 10", got)
	}
	if code := getJSON(t, fmt.Sprintf("%s/out?page=%d", ts.URL, owned0), nil); code != http.StatusOK {
		t.Fatalf("/out for healthy shard: status %d", code)
	}
	if code := getJSON(t, fmt.Sprintf("%s/out?page=%d", ts.URL, owned1), nil); code != http.StatusServiceUnavailable {
		t.Fatalf("/out for dead shard: status %d, want 503", code)
	}
}

// TestShedRelayed: a 429 from a shard is a live replica's answer, not a
// failure. /query relays one 429 whose Retry-After is the largest any
// leg sent, whichever shard sent it; /out relays its one shard's. Each
// is counted as a shed of its class, no leg fails over to the shard's
// second replica and no replica is ejected.
func TestShedRelayed(t *testing.T) {
	root := getRoot(t, 2)
	m, err := shard.LoadManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := shard.LoadFwdBoundaries(root, m)
	if err != nil {
		t.Fatal(err)
	}
	shedding := func(retryAfter string) string {
		ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
			rw.Header().Set("X-SNode-Shard-Version", m.Version)
			rw.Header().Set("Retry-After", retryAfter)
			rw.Header().Set("Content-Type", "application/json")
			rw.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintln(rw, `{"error":"shed"}`)
		}))
		t.Cleanup(ts.Close)
		return ts.URL
	}
	get := func(url string) (int, string) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("Retry-After")
	}
	for _, hints := range [][2]string{{"1", "3"}, {"3", "1"}} {
		w := &world{manifest: m, boundaries: bs, replicas: [][]string{
			{shedding(hints[0]), shedding(hints[0])},
			{shedding(hints[1]), shedding(hints[1])},
		}}
		reg := metrics.NewRegistry()
		r, ts := newRouter(t, w, Config{EjectAfter: 1, Registry: reg})

		if code, ra := get(ts.URL + "/query?q=1"); code != http.StatusTooManyRequests || ra != "3" {
			t.Fatalf("Retry-After %v: /query?q=1 answered %d with Retry-After %q, want 429 with 3", hints, code, ra)
		}
		c := reg.Snapshot().Counters
		if c["router_shed"] != 1 || c["router_mining_shed"] != 1 || c["router_failovers"] != 0 {
			t.Fatalf("Retry-After %v: router_shed %d, router_mining_shed %d, router_failovers %d; want 1, 1, 0",
				hints, c["router_shed"], c["router_mining_shed"], c["router_failovers"])
		}
		for s, set := range r.shards {
			for _, rep := range set.replicas {
				if !rep.healthy.Load() {
					t.Fatalf("Retry-After %v: shard %d's shedding replica %s was ejected", hints, s, rep.url)
				}
			}
		}

		page := webgraph.PageID(0)
		if code, ra := get(fmt.Sprintf("%s/out?page=%d", ts.URL, page)); code != http.StatusTooManyRequests || ra != hints[m.ShardOf(page)] {
			t.Fatalf("Retry-After %v: /out?page=%d answered %d with Retry-After %q, want 429 with %s", hints, page, code, ra, hints[m.ShardOf(page)])
		}
		if got := reg.Snapshot().Counters["router_nav_shed"]; got != 1 {
			t.Fatalf("Retry-After %v: router_nav_shed = %d, want 1", hints, got)
		}
	}
}

// TestVersionSkewRejected: a replica answering with a different
// manifest version is never merged from.
func TestVersionSkewRejected(t *testing.T) {
	w := startWorld(t, getRoot(t, 2), 2, 1)
	// Impersonate shard 1 with a replica built under another partition.
	skewed := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("X-SNode-Shard-Version", "deadbeefdeadbeef")
		rw.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(rw, `{"query":1,"shard":1,"partials":[],"nav_ms":0}`)
	}))
	defer skewed.Close()
	w.replicas[1] = []string{skewed.URL}
	reg := metrics.NewRegistry()
	_, ts := newRouter(t, w, Config{EjectAfter: 1, Registry: reg})

	if code := getJSON(t, ts.URL+"/query?q=1", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("/query against skewed replica: status %d, want 503", code)
	}
	if reg.Snapshot().Counters["router_version_skew"] == 0 {
		t.Fatal("version skew not counted")
	}
}

// TestJSONLegRefused: a replica of the right partition that answers the
// partial leg in JSON — one from before the binary frame — is refused
// with a 502 naming the type it sent, counted as a mining error, and its
// body is never parsed.
func TestJSONLegRefused(t *testing.T) {
	w := startWorld(t, getRoot(t, 2), 2, 1)
	old := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("X-SNode-Shard-Version", w.manifest.Version)
		rw.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(rw, `{"query":1,"shard":1,"partials":[],"nav_ms":0}`)
	}))
	defer old.Close()
	w.replicas[1] = []string{old.URL}
	reg := metrics.NewRegistry()
	_, ts := newRouter(t, w, Config{Registry: reg})

	resp, err := http.Get(ts.URL + "/query?q=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway || !strings.Contains(string(body), `"application/json"`) {
		t.Fatalf("/query?q=1 with a JSON leg: status %d: %s; want 502 naming the type", resp.StatusCode, body)
	}
	if got := reg.Snapshot().Counters["router_mining_errors"]; got != 1 {
		t.Fatalf("router_mining_errors = %d, want 1", got)
	}
}

// TestScatterRunsUnderPprofLabel pins the router's half of the profile
// split by query class: while a leg of /query?q=N is in flight, the
// goroutine fetching it carries the pprof label query=qN (inherited
// from the handler that started it).
func TestScatterRunsUnderPprofLabel(t *testing.T) {
	w := startWorld(t, getRoot(t, 2), 2, 1)
	// Stand a server in front of shard 0's replica that takes the
	// goroutine profile when a leg arrives, before any shard-side code
	// (which labels its own goroutine) runs for it.
	var mu sync.Mutex
	var prof bytes.Buffer
	replica := w.flaky[w.replicas[0][0]]
	front := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/query" {
			mu.Lock()
			pprof.Lookup("goroutine").WriteTo(&prof, 1)
			mu.Unlock()
		}
		replica.ServeHTTP(rw, req)
	}))
	defer front.Close()
	w.replicas[0][0] = front.URL
	_, ts := newRouter(t, w, Config{})
	var got serve.QueryResponse
	if code := getJSON(t, ts.URL+"/query?q=4", &got); code != http.StatusOK {
		t.Fatalf("/query?q=4: status %d", code)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, rec := range strings.Split(prof.String(), "\n\n") {
		if strings.Contains(rec, `"query":"q4"`) && strings.Contains(rec, "router.(*Router).fetch") {
			return
		}
	}
	t.Errorf("no fetching goroutine labelled query=q4 in:\n%s", prof.String())
}
