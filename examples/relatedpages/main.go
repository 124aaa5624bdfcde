// Related pages: find authoritative pages on a topic, the way the
// paper's Query 3 sets up Kleinberg's HITS.
//
// One pass over the topic's top pages collects the domains they cite
// and the Kleinberg base set; HITS over the induced subgraph separates
// hubs from authorities; results print with their PageRank for
// comparison.
//
//	go run ./examples/relatedpages
package main

import (
	"fmt"
	"log"
	"os"
	"sort"

	"snode/internal/mining"
	"snode/internal/pagerank"
	"snode/internal/repo"
	"snode/internal/synth"
	"snode/internal/webgraph"
)

func main() {
	crawl, err := synth.Generate(synth.DefaultConfig(20000))
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "relatedpages-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	opt := repo.DefaultOptions(dir)
	opt.Schemes = []string{repo.SchemeSNode}
	opt.Layout = crawl.Order
	r, err := repo.Build(crawl.Corpus, opt)
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()

	topic := synth.PhraseQuantumCryptography
	fmt.Printf("topic: %q\n\n", topic)

	// One navigation pass from the topic's top pages (roots) gives both
	// the domains they cite, each weighted by the PageRank of the roots
	// citing it, and the Kleinberg base set: roots ∪ out-neighbours.
	roots := pagerank.TopK(r.PageRank, r.Text.Lookup(topic), 50)
	cites := map[string]float64{}
	base := map[webgraph.PageID]bool{}
	var buf []webgraph.PageID
	for _, p := range roots {
		base[p] = true
		buf, err = r.Fwd[repo.SchemeSNode].Out(p, buf[:0])
		if err != nil {
			log.Fatal(err)
		}
		seen := map[string]bool{}
		for _, t := range buf {
			base[t] = true
			if d := r.DomainOf(t); !seen[d] {
				seen[d] = true
				cites[d] += r.PageRank[p]
			}
		}
	}
	domains := make([]string, 0, len(cites))
	for d := range cites {
		domains = append(domains, d)
	}
	sort.Slice(domains, func(i, j int) bool {
		if cites[domains[i]] != cites[domains[j]] {
			return cites[domains[i]] > cites[domains[j]]
		}
		return domains[i] < domains[j]
	})
	fmt.Println("domains the topic's top pages cite:")
	for _, d := range domains[:min(5, len(domains))] {
		fmt.Printf("  %8.4f  %s\n", cites[d], d)
	}

	var basePages []webgraph.PageID
	for p := range base {
		basePages = append(basePages, p)
	}
	sort.Slice(basePages, func(i, j int) bool { return basePages[i] < basePages[j] })
	res := mining.HITS(crawl.Corpus.Graph, basePages, 50)

	type scored struct {
		p webgraph.PageID
		v float64
	}
	top := func(vals []float64) []scored {
		out := make([]scored, len(res.Pages))
		for i, p := range res.Pages {
			out[i] = scored{p, vals[i]}
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].v != out[j].v {
				return out[i].v > out[j].v
			}
			return out[i].p < out[j].p
		})
		return out[:min(5, len(out))]
	}
	fmt.Printf("\nHITS over the %d-page base set:\n", len(basePages))
	fmt.Println("top authorities:")
	for _, s := range top(res.Authority) {
		fmt.Printf("  %7.4f  (pagerank %6.4f)  %s\n",
			s.v, r.PageRank[s.p], crawl.Corpus.Pages[s.p].URL)
	}
	fmt.Println("top hubs:")
	for _, s := range top(res.Hub) {
		fmt.Printf("  %7.4f  %s\n", s.v, crawl.Corpus.Pages[s.p].URL)
	}
}
