package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"snode/internal/partition"
	"snode/internal/snode"
)

// Fig9Row is one point of Figures 9(a), 9(b), and 10: the supernode
// graph's growth with repository size, measured over crawl prefixes of
// one synthetic crawl (the paper's subset methodology).
type Fig9Row struct {
	Pages               int
	Supernodes          int
	Superedges          int64
	SupernodeGraphBytes int64 // Figure 10: Huffman bits + 4-byte pointers
	BitsPerEdge         float64
}

// Scalability runs the Figure 9/10 experiment: refine a partition and
// build the S-Node representation for each prefix size.
func Scalability(cfg Config) ([]Fig9Row, error) {
	maxN := cfg.Sizes[len(cfg.Sizes)-1]
	crawl, err := cfg.Crawl(maxN)
	if err != nil {
		return nil, err
	}
	ws, cleanup, err := cfg.workspace()
	if err != nil {
		return nil, err
	}
	defer cleanup()

	var rows []Fig9Row
	for _, n := range cfg.Sizes {
		c := crawl.Prefix(n).Corpus
		dir := filepath.Join(ws, fmt.Sprintf("fig9-%d", n))
		p, err := partition.Refine(c, partition.DefaultConfig())
		if err != nil {
			return nil, err
		}
		st, err := snode.BuildFromPartitionCtx(context.Background(), c, p, snode.DefaultConfig(), dir, time.Now())
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig9Row{
			Pages:               n,
			Supernodes:          st.Supernodes,
			Superedges:          st.Superedges,
			SupernodeGraphBytes: st.SupernodeGraphBytes,
			BitsPerEdge:         float64(st.SizeBytes()*8) / float64(c.Graph.NumEdges()),
		})
		os.RemoveAll(dir)
	}
	return rows, nil
}

// RenderScalability prints the Figure 9/10 series.
func RenderScalability(cfg Config, rows []Fig9Row) {
	w := cfg.out()
	fmt.Fprintln(w, "Figure 9(a)/9(b): supernode graph growth vs repository size")
	fmt.Fprintln(w, "Figure 10: Huffman-encoded supernode graph size (incl. 4-byte pointers)")
	fmt.Fprintf(w, "%10s %12s %12s %16s %12s\n",
		"pages", "supernodes", "superedges", "supergraph(MB)", "bits/edge")
	var prev Fig9Row
	for i, r := range rows {
		growth := ""
		if i > 0 {
			growth = fmt.Sprintf("  [pages +%.0f%%, supernodes +%.0f%%, superedges +%.0f%%]",
				100*float64(r.Pages-prev.Pages)/float64(prev.Pages),
				100*float64(r.Supernodes-prev.Supernodes)/float64(prev.Supernodes),
				100*float64(r.Superedges-prev.Superedges)/float64(prev.Superedges))
		}
		fmt.Fprintf(w, "%10d %12d %12d %16s %12.2f%s\n",
			r.Pages, r.Supernodes, r.Superedges,
			megabytes(r.SupernodeGraphBytes), r.BitsPerEdge, growth)
		prev = r
	}
	first, last := rows[0], rows[len(rows)-1]
	fmt.Fprintf(w, "overall: %.1fx pages -> %.1fx supernodes, %.1fx superedges (paper: 20x -> <3x)\n\n",
		float64(last.Pages)/float64(first.Pages),
		float64(last.Supernodes)/float64(first.Supernodes),
		float64(last.Superedges)/float64(first.Superedges))
}
