// Command snbuild writes a dataset directory — the one thing snserve
// and snquery open — from a synthetic crawl of -pages pages or a real
// edge list read with -ingest, and prints what it wrote. Exactly one of
// the two is required.
//
//	snbuild -pages 50000 -out ./data
//	snbuild -pages 50000 -out ./data -shards 4 -workers 8 -progress
//
// The dataset is a K-way domain partition (internal/shard): a versioned
// manifest.json, replicated page metadata and global PageRank, and per
// shard an S-Node store over its intra-shard edges plus boundary files
// for the cross-shard rest. -shards defaults to 1, where every edge is
// intra-shard and shard-0's stores are the whole graph's. Serve it with
// `snserve -data OUT`, or one `snserve -data OUT -shard-id I` per shard
// fronted by snrouter. The size table that sets S-Node beside the
// baselines is `snbench -experiment table1` (or examples/compression);
// snbuild prints the S-Node row of its own dataset and builds nothing
// it does not keep.
//
// -ingest reads a real edge-list dataset (SNAP or GraphChallenge TSV,
// gzip-transparent, with checksum and URL-table sidecars picked up
// automatically; `sngen -gzip` exports one from a synthetic crawl).
// With -max-heap-mb the ingestion edge buffer spills to disk in sorted
// runs past that budget; refinement and encoding run in memory
// whatever it says:
//
//	snbuild -ingest ./web-Google.txt.gz -format snap -max-heap-mb 256 -out ./data
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"snode/internal/ingest"
	"snode/internal/iosim"
	"snode/internal/metrics"
	"snode/internal/shard"
	"snode/internal/snode"
	"snode/internal/synth"
)

// options are the command-line inputs.
type options struct {
	out       string
	budget    int64
	workers   int
	verify    bool
	progress  bool
	shards    int
	codec     string
	ingest    string
	format    string
	maxHeapMB int
	pages     int
	seed      uint64
}

// validate rejects flag values before any expensive work, so a
// contradiction or a typo fails in a moment instead of as a build
// error minutes later. set holds the names of the flags given on the
// command line: a flag that only means something beside another is
// refused when given without it.
func validate(o options, set map[string]bool) error {
	switch {
	case o.pages < 0:
		return fmt.Errorf("-pages must be >= 0, got %d", o.pages)
	case (o.ingest == "") == (o.pages == 0):
		return fmt.Errorf("-pages N or -ingest PATH, exactly one: the first synthesizes a crawl, the second reads a real edge list")
	case set["seed"] && o.pages == 0:
		return fmt.Errorf("-seed requires -pages (it seeds the synthetic crawl)")
	case set["format"] && o.ingest == "":
		return fmt.Errorf("-format requires -ingest")
	case set["max-heap-mb"] && o.ingest == "":
		return fmt.Errorf("-max-heap-mb requires -ingest (a synthetic crawl has no spill path)")
	case o.ingest != "" && !slices.Contains(ingest.Formats(), o.format):
		return fmt.Errorf("unknown -format %q (one of: %s)", o.format, strings.Join(ingest.Formats(), ", "))
	case o.maxHeapMB < 0:
		return fmt.Errorf("-max-heap-mb must be >= 0, got %d", o.maxHeapMB)
	case o.budget <= 0:
		return fmt.Errorf("-budget must be positive, got %d", o.budget)
	case o.workers <= 0:
		return fmt.Errorf("-workers must be positive, got %d", o.workers)
	case o.shards < 1:
		return fmt.Errorf("-shards must be >= 1, got %d", o.shards)
	}
	if o.ingest != "" {
		if _, err := os.Stat(o.ingest); err != nil {
			return fmt.Errorf("-ingest dataset %q does not exist", o.ingest)
		}
	}
	return checkCodec(o.codec)
}

// parseFlags reads the command line and exits 2, flag-package style
// (message plus defaults), on anything validate refuses.
func parseFlags() options {
	var o options
	flag.StringVar(&o.out, "out", "data", "dataset directory to write (manifest.json, meta.bin, pagerank.bin, shard-<i>/)")
	flag.Int64Var(&o.budget, "budget", 16<<20, "cache budget the written stores are opened under for their statistics and -verify (bytes, > 0)")
	flag.IntVar(&o.workers, "workers", runtime.GOMAXPROCS(0), "build parallelism for partition refinement and supernode encoding (> 0; output is identical for every value)")
	flag.BoolVar(&o.verify, "verify", false, "verify every S-Node store of the written dataset: each graph decodes and totals match")
	flag.BoolVar(&o.progress, "progress", false, "print a periodic build-progress line (elements split / supernodes encoded) to stderr")
	flag.IntVar(&o.shards, "shards", 1, "partition the dataset K ways by domain, one snserve per shard behind snrouter (1 = the whole graph in one shard)")
	flag.StringVar(&o.codec, "codec", snode.CodecPaper, "supernode payload codec: "+strings.Join(snode.CodecNames(), " or ")+" (output is byte-identical across runs under either)")
	flag.StringVar(&o.ingest, "ingest", "", "ingest a real edge-list dataset at this path (urls.tsv / manifest.sha256 sidecars are picked up from the same directory); the alternative to -pages")
	flag.StringVar(&o.format, "format", ingest.FormatSNAP, "edge-list format for -ingest: "+strings.Join(ingest.Formats(), ", "))
	flag.IntVar(&o.maxHeapMB, "max-heap-mb", 0, "bound the ingestion edge buffer: past this budget it spills to disk in sorted runs; refinement and encoding are not bounded by it (0 = fully in memory; requires -ingest)")
	flag.IntVar(&o.pages, "pages", 0, "synthesize a crawl of this many pages; the alternative to -ingest")
	flag.Uint64Var(&o.seed, "seed", 20030226, "generator seed (requires -pages)")
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	err := validate(o, set)
	if flag.NArg() > 0 {
		err = fmt.Errorf("unexpected argument %q (all inputs are flags)", flag.Arg(0))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "snbuild: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	return o
}

// checkCodec is the -codec flag's validation: one of snode.CodecNames.
// lz and auto were accepted until PR 22, so the refusal says where they
// went.
func checkCodec(name string) error {
	if slices.Contains(snode.CodecNames(), name) {
		return nil
	}
	return fmt.Errorf("unknown -codec %q: want %s (lz and auto were removed)", name, strings.Join(snode.CodecNames(), " or "))
}

// reportProgress prints one stderr line per tick from the build_*
// instruments the refine and encode stages update as they go.
func reportProgress(reg *metrics.Registry, stop <-chan struct{}) {
	split := reg.Counter("build_elements_split")
	elements := reg.Gauge("build_elements")
	encoded := reg.Counter("build_supernodes_encoded")
	tick := time.NewTicker(2 * time.Second)
	defer tick.Stop()
	start := time.Now()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			fmt.Fprintf(os.Stderr, "snbuild: %6.1fs  elements split %d (live %d), supernodes encoded %d\n",
				time.Since(start).Seconds(), split.Value(), elements.Value(), encoded.Value())
		}
	}
}

// loadCrawl resolves the corpus source: a synthetic crawl of -pages
// pages, or a real dataset via -ingest.
func loadCrawl(o options, reg *metrics.Registry) (*synth.Crawl, error) {
	if o.pages > 0 {
		cfg := synth.DefaultConfig(o.pages)
		cfg.Seed = o.seed
		return synth.Generate(cfg)
	}
	// An interrupt stops the ingest where it is, and the ingest takes
	// its spilled runs with it.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	start := time.Now()
	crawl, st, err := ingest.Ingest(ctx, o.ingest, ingest.Options{
		Format:    o.format,
		MaxHeapMB: o.maxHeapMB,
		Metrics:   reg,
	})
	if err != nil {
		return nil, err
	}
	verified := "no manifest"
	if st.ChecksumVerified {
		verified = "checksum verified"
	}
	meta := "url table"
	if st.SynthesizedMeta {
		meta = "synthesized urls"
	}
	fmt.Printf("ingested %d pages, %d edges from %s in %v (%s, %s, %d dup edges, %d self-loops, %d runs spilled / %d bytes)\n",
		st.Nodes, st.Edges, o.ingest, time.Since(start).Round(time.Millisecond),
		verified, meta, st.DupEdges, st.SelfLoops, st.Runs, st.SpillBytes)
	return crawl, nil
}

// storeStats opens one S-Node store of the written dataset, verifies it
// under -verify, and returns the build statistics it carries.
func storeStats(o options, dir string) (snode.BuildStats, error) {
	rep, err := snode.Open(filepath.Join(o.out, dir), o.budget, iosim.Model2002())
	if err != nil {
		return snode.BuildStats{}, err
	}
	defer rep.Close()
	if o.verify {
		if err := rep.Verify(); err != nil {
			return snode.BuildStats{}, fmt.Errorf("verify %s: %w", dir, err)
		}
	}
	return rep.BuildStats(), nil
}

func run(o options) error {
	reg := metrics.NewRegistry()
	crawl, err := loadCrawl(o, reg)
	if err != nil {
		return err
	}
	cfg := snode.DefaultConfig()
	cfg.BuildWorkers = o.workers
	cfg.Codec = o.codec
	cfg.Metrics = reg
	if o.progress {
		stop := make(chan struct{})
		go reportProgress(reg, stop)
		defer close(stop)
	}
	start := time.Now()
	m, err := shard.Build(crawl, o.shards, o.out, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("manifest %s: %d pages in %d shard(s), built in %v with %d workers\n",
		m.Version, m.NumPages, m.NumShards, time.Since(start).Round(time.Millisecond), o.workers)

	// Per shard: its share of the graph and what its forward store
	// recorded of its own build. -verify reads the reverse store too.
	var size, intra int64
	for i, e := range m.Shards {
		st, err := storeStats(o, filepath.Join(e.Dir, "snode.fwd"))
		if err == nil && o.verify {
			_, err = storeStats(o, filepath.Join(e.Dir, "snode.rev"))
		}
		if err != nil {
			return err
		}
		fmt.Printf("\nshard %d: %d pages, %d intra-shard edges, boundary %d fwd / %d rev\n",
			i, e.Pages, e.IntraEdges, e.BoundaryFwdEdges, e.BoundaryRevEdges)
		fmt.Printf("S-Node: %d supernodes, %d superedges (%d positive, %d negative)\n",
			st.Supernodes, st.Superedges, st.PositiveSuperedges, st.NegativeSuperedges)
		fmt.Printf("        supernode graph %d bytes, index files %d bytes\n", st.SupernodeGraphBytes, st.IndexFileBytes)
		fmt.Printf("        partition: %d URL splits, %d clustered splits\n", st.URLSplits, st.ClusteredSplits)
		size += st.SizeBytes()
		intra += e.IntraEdges
	}
	if o.verify {
		fmt.Println("\nS-Node stores verified: every graph decodes and totals match")
	}

	// The S-Node row of the size table: the shards' stores against the
	// edges they hold (cross-shard edges live in the boundary files).
	total := crawl.Corpus.Graph.NumEdges()
	fmt.Printf("\n%d/%d edges intra-shard (%.1f%%)\n%-10s %14s %12s\n",
		intra, total, 100*float64(intra)/float64(total), "scheme", "size(bytes)", "bits/edge")
	fmt.Printf("%-10s %14d %12.2f\n", "snode", size, float64(size*8)/float64(intra))
	fmt.Printf("\nserve with: snserve -data %s -listen :PORT (one per shard with -shard-id I, fronted by snrouter -root %s)\n", o.out, o.out)
	return nil
}

func main() {
	if err := run(parseFlags()); err != nil {
		fmt.Fprintln(os.Stderr, "snbuild:", err)
		os.Exit(1)
	}
}
