// Quickstart: generate a small synthetic Web crawl, build an S-Node
// representation, and ask it a question.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"snode/internal/iosim"
	"snode/internal/snode"
	"snode/internal/store"
	"snode/internal/synth"
)

func main() {
	// 1. A corpus: 5000 pages of synthetic Web, with domains, URLs,
	// topical text, and a hyperlink graph exhibiting the locality and
	// link-copying structure of real crawls.
	crawl, err := synth.Generate(synth.DefaultConfig(5000))
	if err != nil {
		log.Fatal(err)
	}
	g := crawl.Corpus.Graph
	fmt.Printf("corpus: %d pages, %d links (avg out-degree %.1f)\n",
		g.NumPages(), g.NumEdges(), g.AvgOutDegree())

	// 2. Build the S-Node representation: iterative partition
	// refinement, reference-encoded intranode/superedge graphs, and the
	// in-memory supernode graph + indexes.
	dir, err := os.MkdirTemp("", "quickstart-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	stats, err := snode.Build(crawl.Corpus, snode.DefaultConfig(), dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("s-node: %d supernodes, %d superedges, %.2f bits/link\n",
		stats.Supernodes, stats.Superedges,
		float64(stats.SizeBytes()*8)/float64(g.NumEdges()))

	// 3. Open it and navigate: who does the first stanford.edu page
	// link to, restricted to .edu targets? The filter lets the
	// representation skip every irrelevant superedge graph on disk.
	rep, err := snode.Open(dir, 8<<20, iosim.Model2002())
	if err != nil {
		log.Fatal(err)
	}
	defer rep.Close()

	// A domain is one page-ID range, and a domain filter is a list of them.
	domains := store.NewDomainRanges(crawl.Corpus.Pages)
	dr, ok := domains["stanford.edu"]
	if !ok {
		log.Fatal("no stanford.edu pages in corpus")
	}
	stanford := dr.Lo
	eduFilter := store.NewFilter(domains["berkeley.edu"], domains["mit.edu"], domains["caltech.edu"])
	targets, err := rep.OutFiltered(stanford, eduFilter, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s links to %d pages at other universities:\n",
		crawl.Corpus.Pages[stanford].URL, len(targets))
	for _, t := range targets {
		fmt.Println("  ->", crawl.Corpus.Pages[t].URL)
	}
	ext := rep.StatsExt()
	fmt.Printf("\n(loaded %d graphs, %d disk seeks, %d bytes — the supernode graph\n"+
		" routed the lookup straight to the relevant superedge graphs)\n",
		ext.Cache.Loads, ext.IO.Seeks, ext.IO.BytesRead)
}
