package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// The catalogue names every workload and metric of the benchmark and
// is the one place they are written down: BENCHMARK.json and the
// catalogue section of README.md are generated from it (-catalogue),
// and a test fails when either is stale.

// What BENCHMARK.json says besides the catalogue.
var (
	contractCommand = []string{"bash", "benchmark/run.sh"}
	contractPaths   = []string{"benchmark"}
)

// contractRunSeconds is the window the driver asks for. A run may take
// 30 s in all (114 runs in 3420 s); set-up, warm-up and the checks
// after the window take 4 to 7 s of it, so 18 s leaves a fifth of the
// time unused. ISSUE 13's 25 s windows do not fit.
const contractRunSeconds = 18

type workloadDef struct {
	Name string
	Why  string
	run  func(params) (*runResult, error)
}

// workloads in the order -all runs them.
var workloads = []workloadDef{
	{"nav_hot", "closed loop, GET /out, Zipf pages, whole decoded graph cached: HTTP, admission, query and the snode cache-hit path do all the work and decode none, so a decode change must show no change here", runNavHot},
	{"nav_cold", "closed loop, GET /out, uniform pages, 256 KiB cache (~3% hits, ~120 graph decodes a request): codec decode, refenc, coding, bitio, cache misses and iosim reads do nearly all the work", runNavCold},
	{"mining_routed", "closed loop, GET /query Q1-Q6 in turn through the router at K=2: hundreds of filtered warm Out calls, partial plans, fan-out and merge; the only workload a plan, merge or warm-Out change moves", runMiningRouted},
	{"live_mix", "closed-loop GET /out on delta overlays beside a scheduled writer (120 update batches/s), seals, merges and scheduled fold-backs; shows reads slowed or stalled by writes or background work", runLiveMix},
	{"build_scale", "repeated ingest, refine, encode and open of an exported 250k-page crawl under a heap budget that forces spills: the write side, which no serving workload touches", runBuildScale},
}

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the parent's median it may worsen by; 0: per-layer (no bound) or fail_ratio (any increase)
	Layer  string
	On     string // workloads that measure it; elsewhere a per-layer metric reads 0
	What   string
}

// endToEnd are the metrics every workload reports with tracing off and
// the driver gates. The driver reads every one of them from every
// workload, never as 0, and holds each to one bound of at most a
// quarter on all five, so the list is the metrics that are real on
// every workload and repeat that well on a shared two-core host.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "end-to-end", "all", "generate the corpus once + the median of the run's three set-ups (build, open, pre-warm) + the warm-up; build_scale: generate + median export"},
	{"ops_per_s", "1/s", "higher", 0.25, "end-to-end", "all", "correct 200 responses per second: the mean rate of the middle half of the window's forty parts; live_mix: the reads of the whole window per second of it, so that the reads a fold-back, a merge or a write held up are missing from it; build_scale: verified builds per second of building"},
	{"lat_p50_us", "us", "lower", 0.25, "end-to-end", "all", "client-observed latency, median: the median over the window's forty parts of each part's median (live_mix: of reads); mining_routed: the mean of the six queries' medians, each over the whole window; build_scale: the median ingest-to-open wall of the window's builds, ISSUE 13's build_wall_s"},
	{"cpu_us_per_op", "us", "lower", 0.25, "end-to-end", "all", "user + system CPU time the whole process (clients, servers, background work) used over the window, per correct operation; it leaves out what wall-clock metrics include, the time a neighbour on the host had the processor (build_scale: per build, over the timed phases)"},
	{"bits_per_edge", "bits", "lower", 0.01, "end-to-end", "all", "size of the forward S-Node artifact the workload uses, SizeBytes()*8 / edges; exact. One artifact on nav_hot, nav_cold and live_mix; both shards with their boundary stores on mining_routed; the 250k-page build on build_scale"},
	{"peak_heap_mb", "MiB", "lower", 0.20, "end-to-end", "all", "largest HeapInuse sampled every 20 ms over the window, corpus and oracle of the benchmark included (build_scale: over the timed phases)"},
}

// extras are end-to-end figures the driver cannot gate: they exist on
// some workloads only, read 0 on one, or spread between ten runs by
// close to or more than the quarter a bound may be (README, "What the
// driver gates"). The result file and the compare subcommand carry
// them with these bounds.
var extras = []metricDef{
	{"lat_p99_us", "us", "lower", 0.25, "end-to-end", "nav_hot nav_cold mining_routed live_mix", "client-observed latency, p99: the median of the forty parts' p99 where each holds ten samples beyond it (nav_hot), else the whole window's"},
	{"modeled_io_ms_per_op", "ms", "lower", 0.10, "end-to-end", "nav_hot nav_cold mining_routed live_mix", "iosim modeled 2002-disk time of all stores per completed operation, the I/O half of the paper's navigation time (exactly 0 on nav_hot, where everything is resident)"},
	{"update_p50_us", "us", "lower", 0.10, "end-to-end", "live_mix", "Overlay.Apply of one batch on fwd and mirrored rev, from its due time, median of the window"},
	{"update_p99_us", "us", "lower", 0.25, "end-to-end", "live_mix", "the same, p99"},
	{"fail_ratio", "ratio", "lower", 0, "end-to-end", "all", "failed / attempted: transport errors, non-200, oracle mismatches, update batches started over 1 s late; any increase is a regression"},
}

// perLayer are the metrics of the traced pass: the benchmark's own
// spans and the counters read at the same boundaries during the
// window, plus direct timed calls into single layers during set-up.
var perLayer = []metricDef{
	{"bitio.read_bits_ns", "ns", "lower", 0, "bitio", "nav_cold", "ReadBits(7) per call over a 1 MiB buffer"},
	{"bitio.read_unary_ns", "ns", "lower", 0, "bitio", "nav_cold", "ReadUnary per call over a 1 MiB buffer of gamma-length prefixes"},
	{"coding.gamma_decode_ns", "ns", "lower", 0, "coding", "nav_cold", "ReadGamma per value"},
	{"coding.gaplist_decode_ns_per_edge", "ns", "lower", 0, "coding", "nav_cold", "ReadBoundedGapList per decoded ID over the corpus's first 4096 rows"},
	{"refenc.decode_ns_per_edge", "ns", "lower", 0, "refenc", "nav_cold", "DecodeListsBounded over the first 4096 CSR rows"},
	{"refenc.encode_ns_per_edge", "ns", "lower", 0, "refenc", "build_scale", "EncodeLists over the first 4096 CSR rows"},
	{"snode.decode_ns_per_edge.intra", "ns", "lower", 0, "snode codec", "nav_cold", "MeasureDecode(3), intranode graphs"},
	{"snode.decode_ns_per_edge.super_pos", "ns", "lower", 0, "snode codec", "nav_cold", "MeasureDecode(3), positive superedge graphs"},
	{"snode.decode_ns_per_edge.super_neg", "ns", "lower", 0, "snode codec", "nav_cold", "MeasureDecode(3), negative superedge graphs"},
	{"snode.payload_bits_per_edge.intra", "bits", "lower", 0, "snode codec", "nav_cold", "payload bytes*8 / stored edges, intranode graphs"},
	{"snode.payload_bits_per_edge.super_pos", "bits", "lower", 0, "snode codec", "nav_cold", "the same, positive superedge graphs"},
	{"snode.payload_bits_per_edge.super_neg", "bits", "lower", 0, "snode codec", "nav_cold", "the same, negative superedge graphs"},
	{"snode.out_warm_ns", "ns", "lower", 0, "snode reader", "nav_hot", "direct Representation.Out on resident graphs, per call"},
	{"snode.out_cold_us", "us", "lower", 0, "snode reader", "nav_cold", "direct Representation.Out after ResetCache, per call"},
	{"snode.open_ms", "ms", "lower", 0, "snode reader", "nav_hot nav_cold", "snode.Open of the forward artifact"},
	{"snode.cache_hit_ratio", "ratio", "higher", 0, "snode cache", "nav_hot nav_cold mining_routed", "graph-cache hits / lookups over the window"},
	{"snode.cache_lookups_per_op", "count", "lower", 0, "snode cache", "nav_hot nav_cold mining_routed", "graph-cache lookups per operation"},
	{"snode.graphs_loaded_per_op", "count", "lower", 0, "snode cache", "nav_hot nav_cold mining_routed live_mix", "lower-level graphs (live_mix: and delta segment blocks) read and decoded per operation"},
	{"snode.decoded_edges_per_returned_edge", "ratio", "lower", 0, "snode cache", "nav_hot nav_cold", "edges decoded / edges returned: what a whole-graph decode wastes to return one list"},
	{"snode.evictions_per_op", "count", "lower", 0, "snode cache", "nav_hot nav_cold mining_routed", "graph-cache evictions per operation"},
	{"snode.coalesced_per_op", "count", "lower", 0, "snode cache", "nav_hot nav_cold mining_routed", "misses resolved by another request's decode, per operation"},
	{"snode.decode_busy_ms", "ms", "lower", 0, "snode cache", "nav_hot nav_cold mining_routed", "time spent decoding over the window, from the decode histogram RegisterMetrics keeps"},
	{"iosim.seeks_per_op", "count", "lower", 0, "iosim", "nav_hot nav_cold mining_routed live_mix", "modeled seeks per operation"},
	{"iosim.reads_per_op", "count", "lower", 0, "iosim", "nav_hot nav_cold mining_routed live_mix", "reads per operation"},
	{"iosim.bytes_read_per_op", "B", "lower", 0, "iosim", "nav_hot nav_cold mining_routed live_mix", "bytes read per operation"},
	{"iosim.modeled_ms_per_op", "ms", "lower", 0, "iosim", "nav_hot nav_cold mining_routed live_mix build_scale", "modeled disk time per operation (build_scale: spill and repository scans per build)"},
	{"query.neighbors_us", "us", "lower", 0, "query", "nav_hot", "direct Engine.Neighbors on hot pages, per call"},
	{"query.run_cpu_ms.q1", "ms", "lower", 0, "query", "mining_routed", "single-node Engine.Run, cold 1 MiB cache, navigation CPU"},
	{"query.run_cpu_ms.q2", "ms", "lower", 0, "query", "mining_routed", "the same, Q2"},
	{"query.run_cpu_ms.q3", "ms", "lower", 0, "query", "mining_routed", "the same, Q3"},
	{"query.run_cpu_ms.q4", "ms", "lower", 0, "query", "mining_routed", "the same, Q4"},
	{"query.run_cpu_ms.q5", "ms", "lower", 0, "query", "mining_routed", "the same, Q5"},
	{"query.run_cpu_ms.q6", "ms", "lower", 0, "query", "mining_routed", "the same, Q6"},
	{"query.run_io_ms.q1", "ms", "lower", 0, "query", "mining_routed", "single-node Engine.Run, cold 1 MiB cache, modeled I/O"},
	{"query.run_io_ms.q2", "ms", "lower", 0, "query", "mining_routed", "the same, Q2"},
	{"query.run_io_ms.q3", "ms", "lower", 0, "query", "mining_routed", "the same, Q3"},
	{"query.run_io_ms.q4", "ms", "lower", 0, "query", "mining_routed", "the same, Q4"},
	{"query.run_io_ms.q5", "ms", "lower", 0, "query", "mining_routed", "the same, Q5"},
	{"query.run_io_ms.q6", "ms", "lower", 0, "query", "mining_routed", "the same, Q6"},
	{"query.partial_over_full_ratio", "ratio", "lower", 0, "query", "mining_routed", "sum of RunPartial+MergePartials wall over sum of Run wall, Q1-Q6, owner = all"},
	{"serve.out_handler_us", "us", "lower", 0, "serve", "nav_hot", "the /out handler on an httptest.ResponseRecorder, hot pages, per call"},
	{"serve.self_us", "us", "lower", 0, "serve", "nav_hot nav_cold mining_routed live_mix", "median serve.handler self time of the window's requests (handler minus its store.out)"},
	{"serve.http_loopback_us", "us", "lower", 0, "serve", "nav_hot nav_cold mining_routed live_mix", "median client.request self time: client, loopback and net/http around the outermost handler, the floor no repo change moves"},
	{"serve.response_bytes_per_op", "B", "lower", 0, "serve", "nav_hot nav_cold mining_routed live_mix", "response body bytes per operation"},
	{"store.out_self_us", "us", "lower", 0, "store", "nav_hot nav_cold mining_routed live_mix", "median store.out time per request (all store calls of its handlers)"},
	{"store.out_calls_per_op", "count", "lower", 0, "store", "nav_hot nav_cold mining_routed live_mix", "store calls per operation"},
	{"admission.acquire_ns", "ns", "lower", 0, "admission", "nav_hot", "uncontended Acquire + release"},
	{"admission.wait_p99_us", "us", "lower", 0, "admission", "nav_hot nav_cold mining_routed live_mix", "p99 queue wait over the window (bucket upper bound)"},
	{"admission.shed_ratio", "ratio", "lower", 0, "admission", "nav_hot nav_cold mining_routed live_mix", "shed / offered over the window; must stay 0"},
	{"router.out_overhead_us", "us", "lower", 0, "router", "mining_routed", "median /out through the router minus direct to the owning shard, same hot pages"},
	{"router.self_ms", "ms", "lower", 0, "router", "mining_routed", "median router.handler self time (handler minus its legs)"},
	{"router.legs_per_query", "count", "lower", 0, "router", "mining_routed", "serve.handler spans per routed request"},
	{"router.failovers", "count", "lower", 0, "router", "mining_routed", "replica failovers over the window; must stay 0"},
	{"router.fanout_errors", "count", "lower", 0, "router", "mining_routed", "legs with every replica failed; must stay 0"},
	{"shard.build_s", "s", "lower", 0, "shard", "mining_routed", "shard.Build at K=2"},
	{"shard.intra_edge_ratio", "ratio", "higher", 0, "shard", "mining_routed", "edges with both ends in one shard / edges"},
	{"shard.boundary_out_ns", "ns", "lower", 0, "shard", "mining_routed", "Boundary.Out per call"},
	{"shard.merged_out_us", "us", "lower", 0, "shard", "mining_routed", "MergedStore.Out per call, warm"},
	{"delta.apply_us_per_batch", "us", "lower", 0, "delta", "live_mix", "uncontended Overlay.Apply of one 16-mutation batch"},
	{"delta.out_passthrough_ns", "ns", "lower", 0, "delta", "live_mix", "Out through an empty overlay minus Out on its base, per call"},
	{"delta.out_depth4_us", "us", "lower", 0, "delta", "live_mix", "Out of mutated pages through 4 sealed segments, per call"},
	{"delta.seal_ms", "ms", "lower", 0, "delta", "live_mix", "Seal of one memtable at the workload's seal threshold"},
	{"delta.merge_ms", "ms", "lower", 0, "delta", "live_mix", "MergeOnce of two such segments"},
	{"delta.fold_ms", "ms", "lower", 0, "delta", "live_mix", "FoldBack into a fresh S-Node build"},
	{"delta.seals", "count", "higher", 0, "delta", "live_mix", "seals per overlay over the window (mean of fwd and rev)"},
	{"delta.compactions", "count", "higher", 0, "delta", "live_mix", "segment merges per overlay over the window"},
	{"delta.folds", "count", "higher", 0, "delta", "live_mix", "fold-backs per overlay over the window"},
	{"delta.merge_bytes_in_per_applied_op", "B", "lower", 0, "delta", "live_mix", "bytes the window's merges read per applied mutation"},
	{"delta.segment_bytes_per_entry", "B", "lower", 0, "delta", "live_mix", "segment bytes per entry of a sealed segment"},
	{"delta.update_p50_us", "us", "lower", 0, "delta", "live_mix", "update_p50_us of the traced window"},
	{"delta.update_p99_us", "us", "lower", 0, "delta", "live_mix", "update_p99_us of the traced window"},
	{"ingest.wall_s", "s", "lower", 0, "ingest", "build_scale", "ingest.Ingest, median of the window's builds"},
	{"ingest.edges_per_s", "1/s", "higher", 0, "ingest", "build_scale", "edges / ingest wall"},
	{"ingest.spill_runs", "count", "lower", 0, "ingest", "build_scale", "sorted runs spilled by one ingest"},
	{"ingest.spill_bytes", "B", "lower", 0, "ingest", "build_scale", "bytes of those runs"},
	{"ingest.peak_heap_mb", "MiB", "lower", 0, "ingest", "build_scale", "peak HeapInuse during ingest, median"},
	{"partition.refine_s", "s", "lower", 0, "partition", "build_scale", "partition.RefineCtx, median"},
	{"partition.elements", "count", "lower", 0, "partition", "build_scale", "elements of the final partition"},
	{"partition.peak_heap_mb", "MiB", "lower", 0, "partition", "build_scale", "peak HeapInuse during refinement, median"},
	{"kmeans.run_ms", "ms", "lower", 0, "kmeans", "build_scale", "kmeans.Run, k=8, on the 4096 first rows as points"},
	{"snode.encode_s", "s", "lower", 0, "snode builder", "build_scale", "snode.BuildFromPartitionCtx, median"},
	{"snode.encode_peak_heap_mb", "MiB", "lower", 0, "snode builder", "build_scale", "peak HeapInuse during encode, median"},
	{"snode.supernodes", "count", "lower", 0, "snode builder", "build_scale", "supernodes of the artifact"},
	{"snode.superedges", "count", "lower", 0, "snode builder", "build_scale", "superedges of the artifact"},
	{"snode.index_file_bytes", "B", "lower", 0, "snode builder", "build_scale", "encoded lower-level graphs on disk"},
	{"snode.supernode_graph_bytes", "B", "lower", 0, "snode builder", "build_scale", "Huffman-coded supernode graph with pointers"},
	{"repo.build_s", "s", "lower", 0, "repo", "nav_hot nav_cold live_mix", "repo.Build in set-up: S-Node forward and reverse, text index, PageRank"},
	{"repo.index_build_s", "s", "lower", 0, "repo", "nav_hot", "text index + PageRank + domain index, the share of repo.Build that is not S-Node"},
	{"trace.overhead_ratio", "ratio", "higher", 0, "trace", "nav_hot", "ops_per_s with the program's tracer sampling every request / untraced"},
	{"trace.span_coverage", "ratio", "higher", 0, "trace", "nav_hot", "share of a sampled request's wall covered by the program's own spans"},
	{"bench.trace_overhead_ratio", "ratio", "higher", 0, "bench", "nav_hot nav_cold mining_routed live_mix", "completed operations per second of the benchmark's traced window / of an untraced reference window in the same process"},
	{"bench.span_coverage", "ratio", "higher", 0, "bench", "nav_hot nav_cold mining_routed live_mix", "router, serve and store self times / client.request durations: the share of a request's wall spent inside the program's handlers (above 1 where a routed query's legs run side by side); the rest is client, loopback and net/http"},
	{"bench.spans_linked_ratio", "ratio", "higher", 0, "bench", "nav_hot nav_cold mining_routed live_mix", "client.request spans with a serve.handler span recorded beneath them / all; below 0.99 the span header is being lost and the run fails"},
	{"bench.request_wall_p50_us", "us", "lower", 0, "bench", "nav_hot nav_cold mining_routed live_mix", "median client.request duration of the traced window"},
	{"link3.nav_ms_total", "ms", "lower", 0, "baselines", "mining_routed", "sum of Q1-Q6 navigation time (CPU + modeled I/O) on Link3, single node, 1 MiB buffer"},
	{"snode.vs_link3_nav_ratio", "ratio", "lower", 0, "baselines", "mining_routed", "the same sum on S-Node / on Link3: below 1 is the paper's Figure 11 claim"},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// contract is BENCHMARK.json.
type contract struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []contractWorkload `json:"workloads"`
	EndToEnd   []contractMetric   `json:"end_to_end"`
	PerLayer   []contractMetric   `json:"per_layer"`
}

type contractWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end metrics only
}

// contractJSON renders BENCHMARK.json from the catalogue.
func contractJSON() ([]byte, error) {
	c := contract{Command: contractCommand, Paths: contractPaths, RunSeconds: contractRunSeconds}
	for _, w := range workloads {
		c.Workloads = append(c.Workloads, contractWorkload{w.Name, w.Why})
	}
	for i := range endToEnd {
		d := &endToEnd[i]
		c.EndToEnd = append(c.EndToEnd, contractMetric{d.Name, d.Unit, d.Better, &d.Bound})
	}
	for _, d := range perLayer {
		c.PerLayer = append(c.PerLayer, contractMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	err := enc.Encode(c)
	return buf.Bytes(), err
}

// The README's catalogue section lies between these two lines.
const (
	catalogueBegin = "<!-- catalogue: written by `-catalogue` from catalogue.go, do not edit -->\n"
	catalogueEnd   = "<!-- catalogue ends -->\n"
)

// catalogueMarkdown renders the README's catalogue section.
func catalogueMarkdown() string {
	var b strings.Builder
	bound := func(d metricDef) string {
		if d.Bound == 0 {
			return "any increase"
		}
		return fmt.Sprintf("%g %%", d.Bound*100)
	}
	on := func(d metricDef) string { return strings.ReplaceAll(d.On, " ", ", ") }
	b.WriteString("Gated by the driver (`end_to_end` of `BENCHMARK.json`), reported by every workload:\n\n")
	b.WriteString("| name | unit | better | bound | meaning |\n|---|---|---|---|---|\n")
	for _, d := range endToEnd {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s |\n", d.Name, d.Unit, d.Better, bound(d), d.What)
	}
	b.WriteString("\nEnd-to-end but not gated: in the result file and `compare` only.\n\n")
	b.WriteString("| name | unit | better | on | bound in `compare` | meaning |\n|---|---|---|---|---|---|\n")
	for _, d := range extras {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s | %s |\n", d.Name, d.Unit, d.Better, on(d), bound(d), d.What)
	}
	b.WriteString("\nPer layer (`per_layer` of `BENCHMARK.json`), from the traced pass; 0 on a workload not in \"on\":\n\n")
	b.WriteString("| layer | name | unit | better | on | meaning |\n|---|---|---|---|---|---|\n")
	for _, d := range perLayer {
		fmt.Fprintf(&b, "| %s | `%s` | %s | %s | %s | %s |\n", d.Layer, d.Name, d.Unit, d.Better, on(d), d.What)
	}
	return b.String()
}

// readmeWithCatalogue replaces the catalogue section of a README.
func readmeWithCatalogue(readme string) (string, error) {
	i := strings.Index(readme, catalogueBegin)
	j := strings.Index(readme, catalogueEnd)
	if i < 0 || j < i {
		return "", fmt.Errorf("README.md has no catalogue section (%q ... %q)", strings.TrimSpace(catalogueBegin), strings.TrimSpace(catalogueEnd))
	}
	return readme[:i+len(catalogueBegin)] + catalogueMarkdown() + readme[j:], nil
}

// writeCatalogue regenerates BENCHMARK.json and the README's catalogue
// section under root, the root of the repository.
func writeCatalogue(root string) error {
	data, err := contractJSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(root, "BENCHMARK.json"), data, 0o644); err != nil {
		return err
	}
	path := filepath.Join(root, "benchmark", "README.md")
	old, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	readme, err := readmeWithCatalogue(string(old))
	if err != nil {
		return err
	}
	return os.WriteFile(path, []byte(readme), 0o644)
}
