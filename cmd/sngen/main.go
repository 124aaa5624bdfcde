// Command sngen generates a synthetic Web crawl and exports it the way
// public datasets ship: a SNAP-style edge list (optionally gzipped)
// plus a URL-table sidecar and sha256 manifest, which `snbuild -ingest`
// reads back — the self-contained round-trip oracle for the real-graph
// ingestion path. A dataset straight from the generator needs no
// export: `snbuild -pages N` synthesizes the same crawl itself.
//
//	sngen -pages 100000 -gzip -out ./dataset
//	snbuild -ingest ./dataset/graph.txt.gz -out ./data
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"snode/internal/ingest"
	"snode/internal/synth"
)

// options are the validated command-line inputs.
type options struct {
	pages int
	seed  uint64
	out   string
	gzip  bool
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
	flag.StringVar(&o.out, "out", "crawl", "output directory (edge list + url table + manifest for snbuild -ingest)")
	flag.BoolVar(&o.gzip, "gzip", false, "gzip the exported edge list")
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
	return o
}

func run(o options) error {
	cfg := synth.DefaultConfig(o.pages)
	cfg.Seed = o.seed
	crawl, err := synth.Generate(cfg)
	if err != nil {
		return err
	}
	res, err := ingest.Export(crawl.Corpus, o.out, ingest.ExportOptions{Gzip: o.gzip})
	if err != nil {
		return err
	}
	fmt.Printf("exported %d pages, %d links as %s (+ %s, %s)\n",
		res.Nodes, res.Edges, res.GraphPath,
		filepath.Base(res.URLTablePath), filepath.Base(res.ManifestPath))
	fmt.Printf("ingest with: snbuild -ingest %s -out ./data\n", res.GraphPath)
	return nil
}

func main() {
	if err := run(parseFlags()); err != nil {
		fmt.Fprintln(os.Stderr, "sngen:", err)
		os.Exit(1)
	}
}
