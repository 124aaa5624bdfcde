// Mining: the paper's "global access" mode. The S-Node compression is
// what lets a large Web graph live entirely in memory, so whole-graph
// computations (strongly connected components, PageRank) can use simple
// main-memory algorithms instead of external-memory ones (§1.2).
//
//	go run ./examples/mining
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sort"

	"snode/internal/iosim"
	"snode/internal/mining"
	"snode/internal/pagerank"
	"snode/internal/snode"
	"snode/internal/synth"
	"snode/internal/webgraph"
)

func main() {
	crawl, err := synth.Generate(synth.DefaultConfig(30000))
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "mining-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	stats, err := snode.Build(crawl.Corpus, snode.DefaultConfig(), dir)
	if err != nil {
		log.Fatal(err)
	}
	raw := crawl.Corpus.Graph.NumEdges() * 4 // 32-bit adjacency entries
	fmt.Printf("graph: %d pages, %d links\n", crawl.Corpus.Graph.NumPages(),
		crawl.Corpus.Graph.NumEdges())
	fmt.Printf("s-node representation: %d bytes (%.1fx smaller than raw adjacency)\n",
		stats.SizeBytes(), float64(raw)/float64(stats.SizeBytes()))

	// Global access: decode the whole graph back into memory and mine.
	rep, err := snode.Open(dir, 1<<30, iosim.Model2002())
	if err != nil {
		log.Fatal(err)
	}
	defer rep.Close()
	b := webgraph.NewBuilder(rep.NumPages())
	if err := rep.Scan(context.Background(), func(p webgraph.PageID, out []webgraph.PageID) error {
		for _, q := range out {
			b.AddEdge(p, q)
		}
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	g := b.Build()

	// Bow-tie structure (Broder et al.): the giant SCC and its IN/OUT
	// regions.
	_, nComp := webgraph.SCC(g)
	bt := mining.BowTieDecompose(g)
	fmt.Printf("\nbow-tie structure (%d SCCs total):\n", nComp)
	fmt.Printf("  SCC core %6d pages (%.1f%%)\n  IN       %6d\n  OUT      %6d\n  other    %6d\n",
		bt.SCC, 100*float64(bt.SCC)/float64(g.NumPages()), bt.In, bt.Out, bt.Rest)

	// Diameter estimate by BFS sampling.
	fmt.Printf("\nestimated directed diameter (BFS sample): %d hops\n",
		mining.EstimateDiameter(g, 20, 7))

	// Community trawling (Kumar et al.): (3,3) bipartite cores.
	cores := mining.TrawlCores(g, 3, 3, 5)
	fmt.Printf("\ntrawled (3,3) bipartite cores: %d found; first cores:\n", len(cores))
	for i, core := range cores {
		if i == 3 {
			break
		}
		fmt.Printf("  core %d: %d fans -> %s ...\n", i, len(core.Fans),
			crawl.Corpus.Pages[core.Centers[0]].URL)
	}

	// PageRank over the decoded graph; report the top pages.
	rank := pagerank.Compute(g, pagerank.DefaultConfig())
	type pr struct {
		p webgraph.PageID
		r float64
	}
	var top []pr
	for p, v := range rank {
		top = append(top, pr{webgraph.PageID(p), v})
	}
	sort.Slice(top, func(i, j int) bool {
		if top[i].r != top[j].r {
			return top[i].r > top[j].r
		}
		return top[i].p < top[j].p
	})
	fmt.Println("\ntop pages by PageRank:")
	for _, t := range top[:8] {
		fmt.Printf("  %.5f  %s\n", t.r, crawl.Corpus.Pages[t.p].URL)
	}

	// Sanity: the decoded graph is exactly the source graph.
	if !g.Equal(crawl.Corpus.Graph) {
		log.Fatal("decoded graph differs from source")
	}
	fmt.Println("\ndecoded graph verified identical to the source corpus")
}
