package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"snode/internal/ingest"
	"snode/internal/iosim"
	"snode/internal/kmeans"
	"snode/internal/partition"
	"snode/internal/snode"
	"snode/internal/webgraph"
)

const (
	// minBuilds is how many builds a window holds at least, so that
	// the build wall is a median and not one reading.
	minBuilds = 2
	// verifyCacheBytes holds the whole decoded artifact while its rows
	// are compared with the ingested graph.
	verifyCacheBytes = 1 << 30
	// rowCheckStride: every 16th page's decoded row is compared with
	// the CSR row (comparing every row costs more than the build).
	rowCheckStride = 16
)

// dataset is the exported crawl build_scale ingests.
type dataset struct {
	dir string
	exp *ingest.ExportResult
}

func (d *dataset) close() { os.RemoveAll(d.dir) }

// buildPhases is one ingest-to-open pass.
type buildPhases struct {
	ingest, refine, encode, open time.Duration
	peakMB                       [3]float64    // ingest, refine, encode (traced pass)
	heapMB                       float64       // peak over the four timed phases
	cpu                          time.Duration // CPU time of the four timed phases
	ingestStats                  *ingest.Stats
	stats                        *snode.BuildStats
	elements                     int
	modeledIO                    time.Duration
}

func (b buildPhases) wall() time.Duration { return b.ingest + b.refine + b.encode + b.open }

// phaseHeap runs f and returns the peak heap in use while it ran.
func phaseHeap(trace bool, f func() error) (float64, error) {
	if !trace {
		return 0, f()
	}
	mon := startMonitor(counterSource{})
	err := f()
	return mon.finish().peakHeapMB, err
}

// buildOnce runs the write path on the exported dataset: ingest under
// a heap budget that forces spills, refine, encode, open. Everything
// after open is the oracle and is not timed.
func buildOnce(res *runResult, p params, ds *dataset, dir string, wantHash string, rec *recorder, n int) (buildPhases, error) {
	var b buildPhases
	ctx := context.Background()
	acct := iosim.NewAccountant(diskModel())
	heapMB := p.buildPages * ingestHeapMBPerMPages / 1_000_000
	if heapMB < 1 {
		heapMB = 1
	}
	out := filepath.Join(dir, "snode")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return b, err
	}
	defer os.RemoveAll(dir)
	cfg := snode.DefaultConfig()
	cfg.BuildIO = acct
	cfg.Partition.IO = acct

	phase := func(label string, d *time.Duration, peak *float64, f func() error) error {
		start := time.Now()
		mb, err := phaseHeap(p.trace && peak != nil, f)
		*d = time.Since(start)
		if peak != nil {
			*peak = mb
		}
		if rec != nil {
			rec.add(span{Name: spanPhase, Label: label, Req: uint64(n + 1), ID: rec.newID(), StartNs: rec.since(start), DurNs: int64(*d)})
		}
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		return nil
	}

	// The heap is sampled over the timed phases only: what the oracle
	// holds afterwards is the benchmark's memory, not the build's.
	mon := startMonitor(counterSource{})
	sampling := true
	stopSampling := func() {
		if sampling {
			use := mon.finish()
			b.heapMB, b.cpu = use.peakHeapMB, use.cpu
			sampling = false
		}
	}
	defer stopSampling()

	start := time.Now()
	var corpus *webgraph.Corpus
	if err := phase("ingest.Ingest", &b.ingest, &b.peakMB[0], func() error {
		crawl, st, err := ingest.Ingest(ctx, ds.exp.GraphPath, ingest.Options{
			Format:    ingest.FormatSNAP,
			MaxHeapMB: heapMB,
			SpillDir:  filepath.Join(dir, "spill"),
			IO:        acct,
		})
		if err == nil {
			corpus, b.ingestStats = crawl.Corpus, st
		}
		return err
	}); err != nil {
		return b, err
	}
	var part *partition.Partition
	if err := phase("partition.RefineCtx", &b.refine, &b.peakMB[1], func() (err error) {
		part, err = partition.RefineCtx(ctx, corpus, cfg.Partition)
		return err
	}); err != nil {
		return b, err
	}
	b.elements = part.NumElements()
	if err := phase("snode.BuildFromPartitionCtx", &b.encode, &b.peakMB[2], func() (err error) {
		b.stats, err = snode.BuildFromPartitionCtx(ctx, corpus, part, cfg, out, start)
		return err
	}); err != nil {
		return b, err
	}
	var rep *snode.Representation
	if err := phase("snode.Open", &b.open, nil, func() (err error) {
		rep, err = snode.Open(out, verifyCacheBytes, diskModel())
		return err
	}); err != nil {
		return b, err
	}
	defer rep.Close()
	stopSampling()
	b.modeledIO = acct.ModeledTime()

	// The oracle: the ingested graph is the generated one, the artifact
	// is consistent with itself, and its rows are the graph's rows.
	g := corpus.Graph
	var err error
	if got := csrHash(g); got != wantHash {
		err = fmt.Errorf("ingested graph %s (%d edges) is not the exported one %s", got[:12], g.NumEdges(), wantHash[:12])
	}
	res.check(err)
	res.check(rep.Verify())
	err = nil
	var buf []webgraph.PageID
	for pg := 0; pg < g.NumPages() && err == nil; pg += rowCheckStride {
		if buf, err = rep.Out(webgraph.PageID(pg), buf[:0]); err == nil && !slices.Equal(sortedCopy(buf), g.Out(webgraph.PageID(pg))) {
			err = fmt.Errorf("built artifact: Out(%d) has %d neighbours, the ingested row %d or differs", pg, len(buf), g.OutDegree(webgraph.PageID(pg)))
		}
	}
	res.check(err)
	return b, nil
}

// runBuildScale is the write side: as many ingest-to-open builds of
// one exported crawl as the window holds.
func runBuildScale(p params) (*runResult, error) {
	res := newRunResult("build_scale", p)
	res.Inputs.Loop, res.Inputs.Clients = "sequential", 1
	crawl, genS, err := loadCrawl(res, p.buildPages, p)
	if err != nil {
		return nil, err
	}
	g := crawl.Corpus.Graph
	hash := res.Inputs.CSRSha256

	ds, exportS, err := repeatSetup(p.setups, func(i int) (*dataset, error) {
		dir := filepath.Join(p.workDir, fmt.Sprintf("dataset-%d", i))
		exp, err := ingest.Export(crawl.Corpus, dir, ingest.ExportOptions{})
		if err != nil {
			return nil, fmt.Errorf("ingest.Export: %w", err)
		}
		return &dataset{dir: dir, exp: exp}, nil
	})
	if err != nil {
		return nil, err
	}
	defer ds.close()
	res.EndToEnd["setup_s"] = genS + exportS

	var rec *recorder
	if p.trace {
		rec = newRecorder()
		rows, edges := firstRows(g)
		if _, _, err := refencEncode(res.PerLayer, rows, edges, uint64(g.NumPages())); err != nil {
			return nil, err
		}
		points := make([]kmeans.Point, len(rows))
		for i, row := range rows {
			points[i] = kmeans.SortPoint(append(kmeans.Point(nil), row...))
		}
		ms, err := timeRounds(func() (int, error) {
			_, err := kmeans.Run(points, kmeans.Config{K: 8, MaxIterations: 20, Seed: derive(p.seed, "micro/kmeans")})
			if errors.Is(err, kmeans.ErrAborted) || errors.Is(err, kmeans.ErrDegenerate) {
				err = nil // the run was still made; its time is what is reported
			}
			return 1, err
		})
		if err != nil {
			return nil, fmt.Errorf("kmeans.Run: %w", err)
		}
		res.PerLayer["kmeans.run_ms"] = ms / 1e6
	}
	// The benchmark's own copy of the crawl is the oracle's hash from
	// here on; the builds must not be measured on top of it.
	crawl, g = nil, nil
	runtime.GC()

	var builds []buildPhases
	var peak float64
	for start := time.Now(); time.Since(start) < p.window || len(builds) < minBuilds; {
		b, err := buildOnce(res, p, ds, filepath.Join(p.workDir, fmt.Sprintf("build-%d", len(builds))), hash, rec, len(builds))
		if err != nil {
			return nil, err
		}
		res.check(nil) // the build itself
		if b.heapMB > peak {
			peak = b.heapMB
		}
		builds = append(builds, b)
		runtime.GC() // the next build starts from the heap this one started from
	}

	col := func(f func(buildPhases) float64) []float64 {
		out := make([]float64, len(builds))
		for i, b := range builds {
			out[i] = f(b)
		}
		return out
	}
	wallS := col(func(b buildPhases) float64 { return b.wall().Seconds() })
	var total, io, cpu float64
	for i, b := range builds {
		total += wallS[i]
		io += b.modeledIO.Seconds()
		cpu += b.cpu.Seconds()
	}
	sort.Float64s(wallS)
	last := builds[len(builds)-1]
	edges := float64(last.ingestStats.Edges)
	n := float64(len(builds))
	if !p.trace {
		res.EndToEnd["ops_per_s"] = n / total
		res.EndToEnd["lat_p50_us"] = median(wallS) * 1e6
		res.EndToEnd["cpu_us_per_op"] = cpu / n * 1e6
		res.EndToEnd["bits_per_edge"] = float64(last.stats.SizeBytes()*8) / edges
		res.EndToEnd["peak_heap_mb"] = peak
		res.Inputs.Samples = len(builds)
		return res, nil
	}

	L := res.PerLayer
	L["ingest.wall_s"] = median(col(func(b buildPhases) float64 { return b.ingest.Seconds() }))
	L["ingest.edges_per_s"] = edges / L["ingest.wall_s"]
	L["ingest.spill_runs"] = float64(last.ingestStats.Runs)
	L["ingest.spill_bytes"] = float64(last.ingestStats.SpillBytes)
	L["ingest.peak_heap_mb"] = median(col(func(b buildPhases) float64 { return b.peakMB[0] }))
	L["partition.refine_s"] = median(col(func(b buildPhases) float64 { return b.refine.Seconds() }))
	L["partition.elements"] = float64(last.elements)
	L["partition.peak_heap_mb"] = median(col(func(b buildPhases) float64 { return b.peakMB[1] }))
	L["snode.encode_s"] = median(col(func(b buildPhases) float64 { return b.encode.Seconds() }))
	L["snode.encode_peak_heap_mb"] = median(col(func(b buildPhases) float64 { return b.peakMB[2] }))
	L["snode.supernodes"] = float64(last.stats.Supernodes)
	L["snode.superedges"] = float64(last.stats.Superedges)
	L["snode.index_file_bytes"] = float64(last.stats.IndexFileBytes)
	L["snode.supernode_graph_bytes"] = float64(last.stats.SupernodeGraphBytes)
	L["iosim.modeled_ms_per_op"] = io / n * 1e3
	if err := os.MkdirAll(p.outDir, 0o755); err != nil {
		return nil, err
	}
	return res, writeTrace(filepath.Join(p.outDir, "trace-"+res.Workload+".json"), rec.snapshot())
}
