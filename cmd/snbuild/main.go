// Command snbuild writes a dataset directory — the one thing a server
// opens — from a crawl written by sngen, and prints what it wrote.
//
//	snbuild -crawl ./crawl -out ./data
//	snbuild -crawl ./crawl -out ./data -shards 4 -workers 8 -progress
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
// Instead of a corpus.bin crawl, snbuild can ingest a real edge-list
// dataset (SNAP or GraphChallenge TSV, gzip-transparent, with checksum
// and URL-table sidecars picked up automatically) or synthesize a
// crawl inline with -pages. With -max-heap-mb the ingestion edge
// buffer spills to disk in sorted runs past that budget; refinement and
// encoding run in memory whatever it says:
//
//	snbuild -ingest ./web-Google.txt.gz -format snap -max-heap-mb 256 -out ./data
//	snbuild -pages 50000 -out ./data
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

	"snode/internal/corpusio"
	"snode/internal/ingest"
	"snode/internal/iosim"
	"snode/internal/metrics"
	"snode/internal/shard"
	"snode/internal/snode"
	"snode/internal/synth"
)

// options are the validated command-line inputs.
type options struct {
	crawlDir  string
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

// usageError prints the problem in flag-package style (message plus
// defaults) and exits 2, the conventional usage-error status.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "snbuild: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

// parseFlags validates every flag before any expensive work: unknown
// codecs, nonsensical budgets or worker counts, and missing crawl
// directories all fail fast with a usage-style message instead of
// surfacing as a build error minutes later.
func parseFlags() options {
	var o options
	flag.StringVar(&o.crawlDir, "crawl", "crawl", "directory written by sngen")
	flag.StringVar(&o.out, "out", "data", "dataset directory to write (manifest.json, meta.bin, pagerank.bin, shard-<i>/)")
	flag.Int64Var(&o.budget, "budget", 16<<20, "cache budget the written stores are opened under for their statistics and -verify (bytes, > 0)")
	flag.IntVar(&o.workers, "workers", runtime.GOMAXPROCS(0), "build parallelism for partition refinement and supernode encoding (> 0; output is identical for every value)")
	flag.BoolVar(&o.verify, "verify", false, "verify every S-Node store of the written dataset: each graph decodes and totals match")
	flag.BoolVar(&o.progress, "progress", false, "print a periodic build-progress line (elements split / supernodes encoded) to stderr")
	flag.IntVar(&o.shards, "shards", 1, "partition the dataset K ways by domain, one snserve per shard behind snrouter (1 = the whole graph in one shard)")
	flag.StringVar(&o.codec, "codec", snode.CodecPaper, "supernode payload codec: "+strings.Join(snode.CodecNames(), " or ")+" (output is byte-identical across runs under either)")
	flag.StringVar(&o.ingest, "ingest", "", "ingest a real edge-list dataset at this path instead of reading -crawl (urls.tsv / manifest.sha256 sidecars are picked up from the same directory)")
	flag.StringVar(&o.format, "format", ingest.FormatSNAP, "edge-list format for -ingest: "+strings.Join(ingest.Formats(), ", "))
	flag.IntVar(&o.maxHeapMB, "max-heap-mb", 0, "bound the ingestion edge buffer: past this budget it spills to disk in sorted runs; refinement and encoding are not bounded by it (0 = fully in memory; requires -ingest)")
	flag.IntVar(&o.pages, "pages", 0, "synthesize a crawl of this many pages inline instead of reading -crawl (0 disables)")
	flag.Uint64Var(&o.seed, "seed", 20030226, "generator seed for -pages")
	flag.Parse()

	if flag.NArg() > 0 {
		usageError("unexpected argument %q (all inputs are flags)", flag.Arg(0))
	}
	// The corpus source flags are mutually exclusive: -ingest and
	// -pages each replace -crawl, so combining them (or either with an
	// explicit -crawl) leaves no way to honour both.
	crawlSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "crawl" {
			crawlSet = true
		}
	})
	if o.ingest != "" && o.pages > 0 {
		usageError("-ingest and -pages are contradictory: the first reads a real dataset, the second synthesizes one (pick one corpus source)")
	}
	if crawlSet && o.ingest != "" {
		usageError("-crawl and -ingest are contradictory (pick one corpus source)")
	}
	if crawlSet && o.pages > 0 {
		usageError("-crawl and -pages are contradictory (pick one corpus source)")
	}
	if o.ingest == "" {
		if o.maxHeapMB != 0 {
			usageError("-max-heap-mb requires -ingest (the in-memory crawl formats have no spill path)")
		}
		formatSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "format" {
				formatSet = true
			}
		})
		if formatSet {
			usageError("-format requires -ingest")
		}
	} else {
		formatOK := false
		for _, f := range ingest.Formats() {
			if o.format == f {
				formatOK = true
			}
		}
		if !formatOK {
			usageError("unknown -format %q (one of: %s)", o.format, strings.Join(ingest.Formats(), ", "))
		}
		if o.maxHeapMB < 0 {
			usageError("-max-heap-mb must be >= 0, got %d", o.maxHeapMB)
		}
		if _, err := os.Stat(o.ingest); err != nil {
			usageError("-ingest dataset %q does not exist", o.ingest)
		}
	}
	if o.pages < 0 {
		usageError("-pages must be >= 0, got %d", o.pages)
	}
	if o.budget <= 0 {
		usageError("-budget must be positive, got %d", o.budget)
	}
	if o.workers <= 0 {
		usageError("-workers must be positive, got %d", o.workers)
	}
	if o.shards < 1 {
		usageError("-shards must be >= 1, got %d", o.shards)
	}
	if err := checkCodec(o.codec); err != nil {
		usageError("%v", err)
	}
	if o.ingest == "" && o.pages == 0 {
		if fi, err := os.Stat(o.crawlDir); err != nil || !fi.IsDir() {
			usageError("-crawl directory %q does not exist (generate one with sngen)", o.crawlDir)
		}
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

// loadCrawl resolves the corpus source: a real dataset via -ingest, an
// inline synthetic crawl via -pages, or the default corpus.bin crawl
// directory.
func loadCrawl(o options, reg *metrics.Registry) (*synth.Crawl, error) {
	switch {
	case o.ingest != "":
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
	case o.pages > 0:
		cfg := synth.DefaultConfig(o.pages)
		cfg.Seed = o.seed
		return synth.Generate(cfg)
	default:
		return corpusio.Read(filepath.Join(o.crawlDir, "corpus.bin"))
	}
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
