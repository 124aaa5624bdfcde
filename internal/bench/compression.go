package bench

import (
	"fmt"
	"os"
	"path/filepath"

	"snode/internal/repo"
	"snode/internal/store"
)

// Table1Row is one scheme's line of Table 1: average bits per edge over
// the Table1Sizes corpora for WG and WGT, and the largest repository
// (in pages) each fits into 8 GB of memory at the measured mean
// out-degree.
type Table1Row struct {
	Scheme    string
	BPE, BPET float64 // bits/edge for WG and WGT
	Max8GB    int64   // pages of WG representable in 8 GB
	Max8GBT   int64
}

const eightGB = int64(8) << 30

// schemeTitles are the display names Tables 1 and 2 print.
var schemeTitles = map[string]string{
	repo.SchemeHuffman: "Plain Huffman",
	repo.SchemeLink3:   "Connectivity Server (Link3)",
	repo.SchemeSNode:   "S-Node",
}

// Compression runs the Table 1 experiment. Each size uses an
// independently generated corpus of complete domains (Table 1 measures
// repositories of a size, not crawl snapshots; Figure 9 covers prefix
// behaviour).
func Compression(cfg Config) ([]Table1Row, error) {
	ws, cleanup, err := cfg.workspace()
	if err != nil {
		return nil, err
	}
	defer cleanup()

	schemes := []string{repo.SchemeHuffman, repo.SchemeLink3, repo.SchemeSNode}
	rows := make([]Table1Row, len(schemes))
	var avgDeg float64
	for _, n := range cfg.Table1Sizes {
		crawl, err := cfg.Crawl(n)
		if err != nil {
			return nil, err
		}
		g := crawl.Corpus.Graph
		avgDeg += g.AvgOutDegree()
		opt := repo.DefaultOptions(filepath.Join(ws, fmt.Sprintf("t1-%d", n)))
		opt.Schemes = schemes
		opt.Model = cfg.Model
		r, err := repo.Build(crawl.Corpus, opt)
		if err != nil {
			return nil, err
		}
		for i, s := range schemes {
			rows[i].BPE += store.BitsPerEdge(r.Fwd[s].(store.Sized), g.NumEdges())
			rows[i].BPET += store.BitsPerEdge(r.Rev[s].(store.Sized), g.NumEdges())
		}
		r.Close()
		os.RemoveAll(opt.Dir)
	}
	nSizes := float64(len(cfg.Table1Sizes))
	avgDeg /= nSizes
	for i, s := range schemes {
		r := &rows[i]
		r.Scheme = s
		r.BPE /= nSizes
		r.BPET /= nSizes
		r.Max8GB = maxPages(r.BPE, avgDeg)
		r.Max8GBT = maxPages(r.BPET, avgDeg)
	}
	return rows, nil
}

// maxPages inverts the paper's formula: a graph over n pages has
// n*avgDeg edges occupying n*avgDeg*bpe/8 bytes; solve for 8 GB.
func maxPages(bpe, avgDeg float64) int64 {
	if bpe <= 0 || avgDeg <= 0 {
		return 0
	}
	return int64(float64(eightGB) * 8 / (bpe * avgDeg))
}

// RenderCompression prints Table 1.
func RenderCompression(cfg Config, rows []Table1Row) {
	w := cfg.out()
	fmt.Fprintln(w, "Table 1: compression statistics (averaged over sizes",
		cfg.Table1Sizes, ")")
	fmt.Fprintf(w, "%-28s %10s %10s %18s %18s\n",
		"representation", "b/e WG", "b/e WGT", "max pages in 8GB", "max pages 8GB(T)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %10.2f %10.2f %18d %18d\n",
			schemeTitles[r.Scheme], r.BPE, r.BPET, r.Max8GB, r.Max8GBT)
	}
	fmt.Fprintln(w, "(paper: Huffman 15.2/15.4, Link3 5.81/5.92, S-Node 5.07/5.63 bits/edge)")
	fmt.Fprintln(w)
}
