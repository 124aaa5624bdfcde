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
	shardOf := make([]int, len(c.Pages))
	owned := make([]int, k)
	for _, r := range runs {
		for p := r.Start; p < r.Start+webgraph.PageID(r.Count); p++ {
			shardOf[p] = r.Shard
		}
		owned[r.Shard] += int(r.Count)
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
		entry, err := buildShard(c, shardOf, s, root, cfg)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		entry.Pages = owned[s]
		m.Shards = append(m.Shards, *entry)
	}
	if err := m.Save(root); err != nil {
		return nil, err
	}
	return m, nil
}

// buildShard emits shard s's S-Node stores and boundary files, cut
// together from the corpus graph in one counting and one filling pass:
// the intra graph holds the edges with both ends owned, the forward
// boundary those leaving an owned page, and the reverse boundary those
// entering one, transposed. With one shard the intra graph is the corpus
// graph itself, so the stores come out as repo.Build writes them.
func buildShard(c *webgraph.Corpus, shardOf []int, s int, root string, cfg snode.Config) (*ShardEntry, error) {
	dir := fmt.Sprintf("shard-%d", s)
	const intra, fwd, rev = 0, 1, 2
	cut := c.Graph.Cut([]bool{intra: false, fwd: false, rev: true}, func(p, q webgraph.PageID) int {
		switch ps, qs := shardOf[p] == s, shardOf[q] == s; {
		case ps && qs:
			return intra
		case ps:
			return fwd
		case qs:
			return rev
		}
		return -1
	})
	ig, bfwd, brev := cut[intra], cut[fwd], cut[rev]
	revCorpus := &webgraph.Corpus{Graph: ig.Transpose(), Pages: c.Pages}
	if _, err := snode.BuildPair(&webgraph.Corpus{Graph: ig, Pages: c.Pages}, revCorpus, cfg, filepath.Join(root, dir)); err != nil {
		return nil, err
	}
	entry := &ShardEntry{
		Dir:              dir,
		IntraEdges:       ig.NumEdges(),
		BoundaryFwd:      filepath.Join(dir, "boundary.fwd"),
		BoundaryRev:      filepath.Join(dir, "boundary.rev"),
		BoundaryFwdEdges: bfwd.NumEdges(),
		BoundaryRevEdges: brev.NumEdges(),
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
