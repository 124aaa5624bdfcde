// Command sngen generates a synthetic Web crawl and writes it to disk
// as a corpus file (corpus.bin holding pages, terms, links, and crawl
// order) that snbuild and snquery consume.
//
//	sngen -pages 100000 -out ./crawl
//
// With -format edgelist it instead exports the crawl the way public
// datasets ship: a SNAP-style edge list (optionally gzipped) plus a
// URL-table sidecar and sha256 manifest, which `snbuild -ingest`
// reads back — the self-contained round-trip oracle for the real-graph
// ingestion path.
//
//	sngen -pages 100000 -format edgelist -gzip -out ./dataset
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"snode/internal/corpusio"
	"snode/internal/ingest"
	"snode/internal/synth"
)

// options are the validated command-line inputs.
type options struct {
	pages  int
	seed   uint64
	out    string
	format string
	gzip   bool
}

// usageError prints the problem in flag-package style (message plus
// defaults) and exits 2, the conventional usage-error status.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sngen: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

// parseFlags validates every flag before generation starts, matching
// the snbuild/snquery convention.
func parseFlags() options {
	var o options
	flag.IntVar(&o.pages, "pages", 50000, "number of pages (> 0)")
	flag.Uint64Var(&o.seed, "seed", 20030226, "generator seed")
	flag.StringVar(&o.out, "out", "crawl", "output directory")
	flag.StringVar(&o.format, "format", "corpus", "output format: corpus (corpus.bin for snbuild -crawl) or edgelist (SNAP edge list + url table + manifest for snbuild -ingest)")
	flag.BoolVar(&o.gzip, "gzip", false, "gzip the exported edge list (edgelist format only)")
	flag.Parse()

	if flag.NArg() > 0 {
		usageError("unexpected argument %q (all inputs are flags)", flag.Arg(0))
	}
	if o.pages <= 0 {
		usageError("-pages must be positive, got %d", o.pages)
	}
	if o.out == "" {
		usageError("-out directory must not be empty")
	}
	if o.format != "corpus" && o.format != "edgelist" {
		usageError("unknown -format %q (one of: corpus, edgelist)", o.format)
	}
	if o.gzip && o.format != "edgelist" {
		usageError("-gzip only applies to -format edgelist")
	}
	return o
}

func main() {
	o := parseFlags()

	cfg := synth.DefaultConfig(o.pages)
	cfg.Seed = o.seed
	crawl, err := synth.Generate(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sngen:", err)
		os.Exit(1)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "sngen:", err)
		os.Exit(1)
	}
	g := crawl.Corpus.Graph
	if o.format == "edgelist" {
		res, err := ingest.Export(crawl.Corpus, o.out, ingest.ExportOptions{Gzip: o.gzip})
		if err != nil {
			fmt.Fprintln(os.Stderr, "sngen:", err)
			os.Exit(1)
		}
		fmt.Printf("exported %d pages, %d links as %s (+ %s, %s)\n",
			res.Nodes, res.Edges, res.GraphPath,
			filepath.Base(res.URLTablePath), filepath.Base(res.ManifestPath))
		fmt.Printf("ingest with: snbuild -ingest %s -out ./data\n", res.GraphPath)
		return
	}
	if err := corpusio.Write(crawl, filepath.Join(o.out, "corpus.bin")); err != nil {
		fmt.Fprintln(os.Stderr, "sngen:", err)
		os.Exit(1)
	}
	fmt.Printf("generated %d pages, %d links (avg out-degree %.1f) into %s\n",
		g.NumPages(), g.NumEdges(), g.AvgOutDegree(), o.out)
}
