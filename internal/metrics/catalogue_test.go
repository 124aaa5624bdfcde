package metrics_test

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"snode/internal/ingest"
	"snode/internal/iosim"
	"snode/internal/metrics"
	"snode/internal/router"
	"snode/internal/serve"
	"snode/internal/shard"
	"snode/internal/snode"
	"snode/internal/synth"
)

// entry is one catalogue row: a metric name, its kind and what it
// counts. A name may hold {a,b,...} groups, each spelling one more
// name; codec-suffixed gauges are spelled for the default codec.
type entry struct {
	name, kind, what string
}

// catalogue documents every name the system registers. README's
// "Metrics and observability" table is rendered from it.
var catalogue = []entry{
	{"query_latency_q{1,2,3,4,5,6}", "histogram", "wall time of each Table 3 query (`query.Engine.SetMetrics`), full runs and `?partial=1` legs alike, so on shard replicas too"},
	{"query_resolve_seconds", "histogram", "a query's index-resolution stage"},
	{"query_nav_seconds", "histogram", "a query's navigation stage"},
	{"query_latency_nav", "histogram", "one adjacency lookup through the engine (`/out`), with a trace exemplar"},

	{"snode_{fwd,rev}_cache_{hits,misses}", "counter", "buffer-manager lookups that found their graph cached, and those that did not (`Representation.RegisterMetrics`, registered by `serve.NewReplica`)"},
	{"snode_{fwd,rev}_cache_{loads,coalesced}", "counter", "misses that decoded their graph, and misses resolved by another goroutine's decode"},
	{"snode_{fwd,rev}_cache_{intra,super}_loads", "counter", "loads of intranode graphs, and of superedge graphs"},
	{"snode_{fwd,rev}_cache_evictions", "counter", "second-chance evictions"},
	{"snode_{fwd,rev}_cache_materialized", "counter", "graphs decoded whole from their encoded cache entries by a lookup that found them cached (no disk read, not a load)"},
	{"snode_{fwd,rev}_cache_list_decodes", "counter", "single lists decoded from encoded cache entries, by lookups that missed the graph at their first probe: the one that loaded it, and those that waited on that load or found the graph cached by then (no disk read, not a load)"},
	{"snode_{fwd,rev}_decoded_edges", "counter", "list entries decoded: a whole graph's at materialization, and a single list's with the lists before it (a load decodes none)"},
	{"snode_{fwd,rev}_cache_{bytes,entries}", "gauge", "bytes and graphs resident in the buffer manager, encoded or decoded"},
	{"snode_{fwd,rev}_inflight_decodes", "gauge", "decodes in flight in the single-flight table"},
	{"snode_{fwd,rev}_decode_seconds", "histogram", "every lower-level graph decode: loads, materializations and single-list decodes"},
	{"snode_{fwd,rev}_codec_{supernodes,graphs,bytes,edges}_paper", "gauge", "the artifact's static composition, named for the codec it was built with (`paper` by default, `log` under `-codec log`)"},
	{"snode_{fwd,rev}_bits_per_edge_milli_paper", "gauge", "the artifact's bits per edge, in milli-bits"},
	{"{snode,delta}_{fwd,rev}_io_{seeks,reads,bytes_read,skipped_bytes}", "counter", "modeled disk accounting (`iosim`): seeks charged, reads, bytes transferred, forward gaps absorbed by readahead"},
	{"{snode,delta}_{fwd,rev}_io_{stalls,stall_nanos}", "counter", "paced stalls slept, and the real time they took"},
	{"{snode,delta}_{fwd,rev}_io_modeled_nanos", "gauge", "modeled disk time the I/O counters imply"},

	{"delta_{fwd,rev}_applied_ops", "counter", "link mutations applied through `/update` (live replicas only)"},
	{"delta_{fwd,rev}_{memtable,segment}_{bytes,entries}", "gauge", "bytes and entries held in memtables (active and frozen) and in sealed segments"},
	{"delta_{fwd,rev}_segments", "gauge", "sealed delta segments"},
	{"delta_{fwd,rev}_{seals,compactions,folds}", "counter", "memtables sealed into segments, segment pairs merged, fold-backs into a rebuilt base"},
	{"delta_{fwd,rev}_merge_bytes_{in,out}", "counter", "segment bytes compactions read and wrote (merge amplification)"},
	{"delta_{fwd,rev}_lookups_{passthrough,merged}", "counter", "lookups of pages no delta touches (answered by the base), and lookups with deltas merged in"},
	{"delta_{fwd,rev}_segment_reads", "counter", "segment blocks read by merged lookups"},

	{"admission_{nav,mining}_{offered,admitted,shed}", "counter", "arrivals, admissions and sheds per request class (`offered == admitted + shed` once drained)"},
	{"admission_{nav,mining}_queue_depth", "gauge", "requests queued per class"},
	{"admission_{nav,mining}_wait_seconds", "histogram", "queue wait per class"},
	{"admission_{running,queue_depth}", "gauge", "slots in use, and requests queued over all classes"},
	{"serve_latency_{nav,mining}", "histogram", "admitted-request latency at the HTTP surface, queue wait included"},

	{"router_{nav,mining}_requests", "counter", "routed requests per class at the scatter-gather front"},
	{"router_{nav,mining}_{shed,errors}", "counter", "per-class relayed 429s, and routed requests answered 502 or 503"},
	{"router_latency_{nav,mining}", "histogram", "client-facing latency at the router; tail buckets carry stitched-trace exemplars"},
	{"router_failovers", "counter", "legs retried on another replica"},
	{"router_fanout_errors", "counter", "fan-outs that exhausted every replica of a shard"},
	{"router_shed", "counter", "requests answered 429 because a shard leg shed (the largest `Retry-After` relayed)"},
	{"router_replica_{ejected,readmitted}", "counter", "replicas removed after consecutive failures, and restored by the health probe or an in-band success"},
	{"router_version_skew", "counter", "replica responses rejected for a manifest version other than the router's"},
	{"router_{traces_stitched,stitch_errors}", "counter", "shard trace subtrees fetched back and stitched into distributed traces, and fetches that failed"},

	{"build_refine_rounds", "counter", "refinement rounds (`snode.Config.Metrics`: `shard.Build`, `snbuild`)"},
	{"build_refine_round_ns", "histogram", "wall time of each refinement round"},
	{"build_{url,clustered}_splits", "counter", "supernodes split by URL prefix, and by clustering"},
	{"build_elements_split", "counter", "supernodes split, both kinds together"},
	{"build_refine_aborts", "counter", "split attempts refinement abandoned"},
	{"build_elements", "gauge", "supernodes in the partition so far"},
	{"build_supernodes_encoded", "counter", "supernodes encoded into the artifact"},
	{"build_superedges", "counter", "superedges encoded"},

	{"ingest_{lines,comment_lines,edge_lines}", "counter", "lines read, comment and blank lines skipped, edge lines parsed (`ingest.Options.Metrics`: `snbuild -ingest`)"},
	{"ingest_{dup_edges,self_loops}", "counter", "duplicate pairs coalesced away, and self-loops kept"},
	{"ingest_{nodes,edges}", "gauge", "distinct pages and edges of the ingested graph"},
	{"ingest_runs_spilled", "counter", "sorted runs spilled under the heap budget"},
	{"ingest_spill_bytes", "counter", "bytes of those runs"},
	{"ingest_spill_live_bytes", "gauge", "run bytes on disk not yet merged"},
}

// The README section the catalogue renders to lies between these two
// lines.
const (
	beginMarker = "<!-- metrics catalogue: generated from internal/metrics/catalogue_test.go -->"
	endMarker   = "<!-- end metrics catalogue -->"
)

// expand spells out a catalogue name: each {a,b,...} group multiplies
// it by its alternatives.
func expand(name string) []string {
	open := strings.IndexByte(name, '{')
	if open < 0 {
		return []string{name}
	}
	end := open + strings.IndexByte(name[open:], '}')
	var out []string
	for _, alt := range strings.Split(name[open+1:end], ",") {
		out = append(out, expand(name[:open]+alt+name[end+1:])...)
	}
	return out
}

// renderCatalogue is the README section, markers included.
func renderCatalogue() string {
	var b strings.Builder
	b.WriteString(beginMarker + "\n| Metric | Kind | What it counts |\n|---|---|---|\n")
	for _, e := range catalogue {
		b.WriteString("| `" + e.name + "` | " + e.kind + " | " + e.what + " |\n")
	}
	b.WriteString(endMarker + "\n")
	return b.String()
}

// registeredNames puts every component that registers metrics on one
// registry — a build, a live replica over the built dataset, a router
// over it and an ingest that spills — and returns each name's kind.
func registeredNames(t *testing.T) map[string]string {
	reg := metrics.NewRegistry()
	crawl, err := synth.Generate(synth.DefaultConfig(6000))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	root := filepath.Join(dir, "data")
	cfg := snode.DefaultConfig()
	cfg.Metrics = reg
	m, err := shard.Build(crawl, 1, root, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := shard.OpenServing(root, 0, 1<<20, iosim.Model2002())
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	rep, err := serve.NewReplica(sh, serve.Config{Registry: reg}, filepath.Join(dir, "live"))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	ts := httptest.NewServer(rep.Handler())
	defer ts.Close()
	bs, err := shard.LoadFwdBoundaries(root, m)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := router.New(router.Config{Manifest: m, Boundaries: bs, Replicas: [][]string{{ts.URL}}, ProbeInterval: -1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	exp, err := ingest.Export(crawl.Corpus, filepath.Join(dir, "export"), ingest.ExportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := ingest.Ingest(context.Background(), exp.GraphPath, ingest.Options{MaxHeapMB: 1, SpillDir: filepath.Join(dir, "spill"), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if st.Runs == 0 {
		t.Fatal("the ingest did not spill")
	}

	s := reg.Snapshot()
	kinds := map[string]string{}
	for name := range s.Counters {
		kinds[name] = "counter"
	}
	for name := range s.Gauges {
		kinds[name] = "gauge"
	}
	for name := range s.Histograms {
		kinds[name] = "histogram"
	}
	return kinds
}

// TestMetricCatalogue holds the catalogue to what the system registers
// and README to the catalogue: a registered name with no row, a row
// naming something nothing registers, a kind that differs, or a README
// table that is not the catalogue's rendering fails. On the last, the
// expected README section is written to metrics_catalogue.md in the
// temp directory.
func TestMetricCatalogue(t *testing.T) {
	registered := registeredNames(t)
	documented := map[string]bool{}
	for _, e := range catalogue {
		for _, name := range expand(e.name) {
			kind, ok := registered[name]
			switch {
			case documented[name]:
				t.Errorf("%s is in two catalogue rows", name)
			case !ok:
				t.Errorf("catalogue row %s: nothing registers %s", e.name, name)
			case kind != e.kind:
				t.Errorf("catalogue row %s: %s is a %s, not a %s", e.name, name, kind, e.kind)
			}
			documented[name] = true
		}
	}
	for name, kind := range registered {
		if !documented[name] {
			t.Errorf("%s (%s) is registered but has no catalogue row", name, kind)
		}
	}
	t.Logf("%d metric names in %d catalogue rows", len(registered), len(catalogue))

	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	want := renderCatalogue()
	_, after, ok1 := strings.Cut(string(readme), beginMarker)
	body, _, ok2 := strings.Cut(after, endMarker)
	if ok1 && ok2 && beginMarker+body+endMarker+"\n" == want {
		return
	}
	out := filepath.Join(os.TempDir(), "metrics_catalogue.md")
	if err := os.WriteFile(out, []byte(want), 0o644); err != nil {
		t.Logf("could not save the rendering: %v", err)
	}
	t.Fatalf("README's metrics table is not the catalogue's rendering; the expected section, markers included, is in %s", out)
}
