package router

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"snode/internal/metrics"
	"snode/internal/trace"
)

// TestDistributedTraceStitching is the tentpole's golden test: one
// sampled mining request through a K=2 tier produces ONE stitched
// trace — the router's fanout/merge spans plus both shards' completed
// subtrees, each carrying the admission span the shard recorded — and
// the mining latency histogram's tail exemplar names that trace.
func TestDistributedTraceStitching(t *testing.T) {
	k := 2
	w := startWorld(t, getRoot(t, k), k, 1)
	reg := metrics.NewRegistry()
	tr := trace.New(trace.Config{SampleEvery: 1}) // sample everything
	_, ts := newRouter(t, w, Config{Registry: reg, Tracer: tr})

	resp, err := http.Get(ts.URL + "/query?q=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	idStr := resp.Header.Get(trace.HeaderTraceID)
	if idStr == "" {
		t.Fatal("sampled routed request returned no X-SNode-Trace-Id")
	}
	id, err := strconv.ParseUint(idStr, 10, 64)
	if err != nil {
		t.Fatal(err)
	}

	// The stitched trace is served by the ROUTER's /debug/traces.
	var tj trace.TraceJSON
	if code := getJSON(t, fmt.Sprintf("%s/debug/traces?id=%d", ts.URL, id), &tj); code != http.StatusOK {
		t.Fatalf("/debug/traces?id=%d: status %d", id, code)
	}
	if tj.Root == nil || tj.Root.Name != "router.mining" {
		t.Fatalf("root span = %+v, want router.mining", tj.Root)
	}
	local := map[string]bool{}
	for _, c := range tj.Root.Children {
		local[c.Name] = true
	}
	if !local["router.fanout"] || !local["router.merge"] {
		t.Fatalf("router spans = %v, want fanout and merge", local)
	}
	if len(tj.Remotes) != k {
		t.Fatalf("stitched %d remote subtrees, want %d (one per shard)", len(tj.Remotes), k)
	}
	seenShard := map[int]bool{}
	for _, rm := range tj.Remotes {
		var s int
		if _, err := fmt.Sscanf(rm.Label, "shard%d ", &s); err != nil {
			t.Fatalf("remote label %q not shard-attributed", rm.Label)
		}
		seenShard[s] = true
		if rm.Root == nil {
			t.Fatalf("remote %q has no span tree", rm.Label)
		}
		if rm.Root.Name != "mining" {
			t.Fatalf("remote %q root = %q, want the shard's mining class", rm.Label, rm.Root.Name)
		}
		names := map[string]bool{}
		var walk func(s *trace.SpanJSON)
		walk = func(sp *trace.SpanJSON) {
			names[sp.Name] = true
			for _, c := range sp.Children {
				walk(c)
			}
		}
		walk(rm.Root)
		if !names["serve.admission"] {
			t.Fatalf("remote %q missing serve.admission span: %v", rm.Label, names)
		}
	}
	if !seenShard[0] || !seenShard[1] {
		t.Fatalf("remote subtrees cover shards %v, want both", seenShard)
	}

	// The tail exemplar of the mining latency histogram names the
	// stitched trace — p99 outliers are one click from their breakdown.
	h := reg.Snapshot().Histograms["router_latency_mining"]
	if _, ex := h.TailExemplar(); ex != id {
		t.Fatalf("router_latency_mining tail exemplar = %d, want stitched trace %d", ex, id)
	}
	if got := reg.Snapshot().Counters["router_traces_stitched"]; got != int64(k) {
		t.Fatalf("router_traces_stitched = %d, want %d", got, k)
	}

	// The Chrome export renders per-shard process lanes.
	chromeResp, err := http.Get(fmt.Sprintf("%s/debug/traces?id=%d&format=chrome", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(chromeResp.Body)
	chromeResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	export := string(raw)
	if !strings.Contains(export, "process_name") || !strings.Contains(export, "shard0 ") || !strings.Contains(export, "shard1 ") {
		t.Fatal("chrome export missing per-shard process lanes")
	}

	// A nav request stitches too: one remote subtree, from the owning
	// shard.
	resp, err = http.Get(ts.URL + "/out?page=3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	navID, _ := strconv.ParseUint(resp.Header.Get(trace.HeaderTraceID), 10, 64)
	if navID == 0 {
		t.Fatal("sampled /out returned no trace header")
	}
	var navTJ trace.TraceJSON
	if code := getJSON(t, fmt.Sprintf("%s/debug/traces?id=%d", ts.URL, navID), &navTJ); code != http.StatusOK {
		t.Fatalf("nav trace fetch: status %d", code)
	}
	if len(navTJ.Remotes) != 1 {
		t.Fatalf("nav trace stitched %d remotes, want 1", len(navTJ.Remotes))
	}
}

// TestClusterMetricsInvariant: the federated cluster totals equal the
// sum of the per-replica scrapes — counter by counter, histogram
// bucket by histogram bucket — and a dead replica degrades to its
// cached snapshot with a staleness mark instead of vanishing.
func TestClusterMetricsInvariant(t *testing.T) {
	k := 2
	w := startWorld(t, getRoot(t, k), k, 2)
	reg := metrics.NewRegistry()
	_, ts := newRouter(t, w, Config{Registry: reg})

	for i := 0; i < 6; i++ {
		getJSON(t, fmt.Sprintf("%s/query?q=%d", ts.URL, 1+i%6), nil)
	}
	for _, p := range crossShardPages(t, w.manifest, 4) {
		getJSON(t, fmt.Sprintf("%s/out?page=%d", ts.URL, p), nil)
	}

	var cm ClusterMetrics
	if code := getJSON(t, ts.URL+"/cluster/metrics", &cm); code != http.StatusOK {
		t.Fatalf("/cluster/metrics: status %d", code)
	}
	if len(cm.Errors) != 0 {
		t.Fatalf("scrape errors on a healthy tier: %v", cm.Errors)
	}
	if len(cm.Replicas) != 2*k || cm.Shards != k {
		t.Fatalf("federated %d replicas / %d shards, want %d / %d", len(cm.Replicas), cm.Shards, 2*k, k)
	}

	// Invariant: cluster == sum over replica scrapes.
	wantCounters := map[string]int64{}
	wantHistCount := map[string]int64{}
	for _, rm := range cm.Replicas {
		if rm.Stale || rm.Snapshot == nil {
			t.Fatalf("healthy replica %s scraped stale=%v snap=%v", rm.URL, rm.Stale, rm.Snapshot)
		}
		for name, v := range rm.Snapshot.Counters {
			wantCounters[name] += v
		}
		for name, h := range rm.Snapshot.Histograms {
			wantHistCount[name] += h.Count
		}
	}
	if len(wantCounters) == 0 {
		t.Fatal("replica scrapes exposed no counters")
	}
	for name, want := range wantCounters {
		if got := cm.Cluster.Counters[name]; got != want {
			t.Fatalf("cluster counter %s = %d, want the replica sum %d", name, got, want)
		}
	}
	for name, want := range wantHistCount {
		if got := cm.Cluster.Histograms[name].Count; got != want {
			t.Fatalf("cluster histogram %s count = %d, want the replica sum %d", name, got, want)
		}
	}
	// Per-shard merges partition the cluster.
	var perShardTotal int64
	for _, sm := range cm.PerShard {
		perShardTotal += sm.Merged.Counters["admission_mining_admitted"]
	}
	var admitted int64
	for _, rm := range cm.Replicas {
		admitted += rm.Snapshot.Counters["admission_mining_admitted"]
	}
	if perShardTotal != admitted {
		t.Fatalf("per-shard merge total %d != replica sum %d", perShardTotal, admitted)
	}

	// Kill one replica: the next scrape serves its cached snapshot,
	// marked stale, and the cluster totals still include it.
	victim := w.replicas[0][0]
	w.flaky[victim].down.Store(true)
	time.Sleep(10 * time.Millisecond)
	var cm2 ClusterMetrics
	if code := getJSON(t, ts.URL+"/cluster/metrics", &cm2); code != http.StatusOK {
		t.Fatalf("/cluster/metrics with a dead replica: status %d", code)
	}
	var stale *ReplicaMetrics
	for i := range cm2.Replicas {
		if cm2.Replicas[i].URL == victim {
			stale = &cm2.Replicas[i]
		}
	}
	if stale == nil || !stale.Stale || stale.Snapshot == nil {
		t.Fatalf("dead replica not served from cache with a staleness mark: %+v", stale)
	}
	if stale.AgeSeconds <= 0 {
		t.Fatalf("stale snapshot age = %v, want > 0", stale.AgeSeconds)
	}
	if stale.Error == "" {
		t.Fatal("stale replica entry carries no scrape error")
	}
	// Its cached counters still count toward the cluster.
	name, val := "", int64(0)
	for n, v := range stale.Snapshot.Counters {
		if v > 0 {
			name, val = n, v
			break
		}
	}
	if name != "" && cm2.Cluster.Counters[name] < val {
		t.Fatalf("cluster %s = %d excludes the stale replica's %d", name, cm2.Cluster.Counters[name], val)
	}
}

// TestCrossProcessUntracedZeroAlloc: an unsampled routed request's
// fan-out must add no header and no allocations — the cross-process
// propagation cost is zero until the sampler says otherwise. Wired
// into make check-overhead.
func TestCrossProcessUntracedZeroAlloc(t *testing.T) {
	req, err := http.NewRequest(http.MethodGet, "http://shard/out?page=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		injectTrace(req, "")
	})
	if allocs != 0 {
		t.Fatalf("untraced header injection allocates %.1f/op, want 0", allocs)
	}
	if len(req.Header) != 0 {
		t.Fatalf("untraced request grew headers: %v", req.Header)
	}
	resp := &http.Response{Header: http.Header{}}
	allocs = testing.AllocsPerRun(200, func() {
		if remoteTraceID(resp) != 0 {
			t.Fatal("phantom trace ID")
		}
	})
	if allocs != 0 {
		t.Fatalf("untraced trace-ID read allocates %.1f/op, want 0", allocs)
	}
}
