package shard

import (
	"fmt"
	"math"
	"os"
	"path/filepath"

	"snode/internal/coding"
	"snode/internal/corpusio"
	"snode/internal/pagerank"
	"snode/internal/snode"
	"snode/internal/synth"
	"snode/internal/webgraph"
)

// Build partitions a crawl into k shards under root:
//
//	root/manifest.json       page→shard assignment + artifact index
//	root/meta.bin            page metadata: URL, domain, terms (replicated state)
//	root/pagerank.bin        global normalized PageRank
//	root/shard-<i>/snode.fwd S-Node over shard i's intra edges
//	root/shard-<i>/snode.rev S-Node over the intra transpose
//	root/shard-<i>/boundary.{fwd,rev} cross-shard edges
//
// Every artifact uses GLOBAL page IDs, so a shard, its boundary
// overlay, and the router all speak the same ID space as a single-node
// build of the same crawl.
func Build(crawl *synth.Crawl, k int, root string, cfg snode.Config) (*Manifest, error) {
	c := crawl.Corpus
	if err := c.Validate(); err != nil {
		return nil, err
	}
	runs, err := Assign(c.Pages, k)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	m := &Manifest{
		NumPages:  len(c.Pages),
		NumShards: k,
		Runs:      runs,
		Meta:      metaName,
		PageRank:  pageRankName,
	}
	n := c.Graph.NumPages()
	shardOf := make([]int, n)
	for _, r := range runs {
		for p := r.Start; p < r.Start+webgraph.PageID(r.Count); p++ {
			shardOf[p] = r.Shard
		}
	}

	// Replicated global state: the page metadata, and PageRank computed
	// once over the FULL graph, so every shard ranks pages exactly as a
	// single-node repository would.
	if err := corpusio.Write(c.Pages, filepath.Join(root, metaName)); err != nil {
		return nil, err
	}
	pr := pagerank.Normalize(pagerank.Compute(c.Graph, pagerank.DefaultConfig()))
	if err := writePageRank(filepath.Join(root, pageRankName), pr); err != nil {
		return nil, err
	}

	for s := 0; s < k; s++ {
		entry, err := buildShard(c, shardOf, s, k, root, cfg)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		m.Shards = append(m.Shards, *entry)
	}
	if err := m.Save(root); err != nil {
		return nil, err
	}
	return m, nil
}

// buildShard emits shard s's S-Node stores and boundary files. With one
// shard every edge is intra-shard: the corpus graph is the intra graph
// as it stands, not re-added edge by edge into a second copy, and the
// stores come out byte-identical to repo.Build's.
func buildShard(c *webgraph.Corpus, shardOf []int, s, k int, root string, cfg snode.Config) (*ShardEntry, error) {
	dir := fmt.Sprintf("shard-%d", s)
	abs := filepath.Join(root, dir)
	if err := os.MkdirAll(abs, 0o755); err != nil {
		return nil, err
	}
	n := c.Graph.NumPages()
	ig, pages := c.Graph, n
	bfwd := map[webgraph.PageID][]webgraph.PageID{}
	brev := map[webgraph.PageID][]webgraph.PageID{}
	var fwdEdges, revEdges int64
	if k > 1 {
		intra := webgraph.NewBuilder(n)
		pages = 0
		for p := webgraph.PageID(0); p < webgraph.PageID(n); p++ {
			srcOwned := shardOf[p] == s
			if srcOwned {
				pages++
			}
			for _, q := range c.Graph.Out(p) {
				dstOwned := shardOf[q] == s
				switch {
				case srcOwned && dstOwned:
					intra.AddEdge(p, q)
				case srcOwned:
					bfwd[p] = append(bfwd[p], q)
					fwdEdges++
				case dstOwned:
					// Visiting sources ascending keeps each rev list sorted.
					brev[q] = append(brev[q], p)
					revEdges++
				}
			}
		}
		ig = intra.Build()
	}
	for _, sub := range []string{"snode.fwd", "snode.rev"} {
		if err := os.MkdirAll(filepath.Join(abs, sub), 0o755); err != nil {
			return nil, err
		}
	}
	intraCorpus := &webgraph.Corpus{Graph: ig, Pages: c.Pages}
	if _, err := snode.Build(intraCorpus, cfg, filepath.Join(abs, "snode.fwd")); err != nil {
		return nil, err
	}
	revCorpus := &webgraph.Corpus{Graph: ig.Transpose(), Pages: c.Pages}
	if _, err := snode.Build(revCorpus, cfg, filepath.Join(abs, "snode.rev")); err != nil {
		return nil, err
	}
	entry := &ShardEntry{
		Dir:              dir,
		Pages:            pages,
		IntraEdges:       ig.NumEdges(),
		BoundaryFwd:      filepath.Join(dir, "boundary.fwd"),
		BoundaryRev:      filepath.Join(dir, "boundary.rev"),
		BoundaryFwdEdges: fwdEdges,
		BoundaryRevEdges: revEdges,
	}
	if err := WriteBoundary(filepath.Join(root, entry.BoundaryFwd), bfwd); err != nil {
		return nil, err
	}
	if err := WriteBoundary(filepath.Join(root, entry.BoundaryRev), brev); err != nil {
		return nil, err
	}
	return entry, nil
}

// writePageRank persists the normalized rank vector: uvarint length,
// then 8 little-endian bytes per page.
func writePageRank(path string, pr []float64) error {
	return coding.WriteFile(path, func(w *coding.Writer) error {
		w.Uvarint(uint64(len(pr)))
		for _, v := range pr {
			w.U64(math.Float64bits(v))
		}
		return nil
	})
}

// readPageRank loads a vector written by writePageRank, which must
// hold exactly numPages entries and nothing after them.
func readPageRank(path string, numPages int) ([]float64, error) {
	r, err := coding.OpenFile(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	pr := make([]float64, r.Count(numPages, 8))
	for i := range pr {
		pr[i] = math.Float64frombits(r.U64())
	}
	if r.End(); r.Err() != nil || len(pr) != numPages {
		return nil, fmt.Errorf("%w: %s: %d pagerank entries for %d pages (reader: %v)", ErrCorrupt, path, len(pr), numPages, r.Err())
	}
	return pr, nil
}
