package bench

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"snode/internal/randutil"
	"snode/internal/repo"
	"snode/internal/snode"
	"snode/internal/store"
	"snode/internal/webgraph"
)

// Table2Row is one scheme's line of Table 2: nanoseconds per edge for
// sequential and random adjacency-list retrieval with the whole
// representation memory-resident (the paper uses the smallest data set
// and 5000 trials; disk time is excluded by construction — everything
// is cached before measurement).
type Table2Row struct {
	Scheme     string
	SeqNsEdge  float64 // per retrieved edge
	RandNsEdge float64 // per retrieved edge
	// RandNsDecoded charges random-access time per DECODED edge. The
	// block/graph-granular decoders here decode more than the requested
	// list on a cold access, which inflates the per-retrieved-edge
	// number far beyond the paper's (their decoder extracts single
	// lists); decode throughput is the comparable metric.
	RandNsDecoded float64
}

// table2Trials matches the paper's 5000 retrievals per mode.
const table2Trials = 5000

// Access runs the Table 2 experiment on the smallest configured size.
func Access(cfg Config) ([]Table2Row, error) {
	crawl, err := cfg.Crawl(cfg.Sizes[0])
	if err != nil {
		return nil, err
	}
	ws, cleanup, err := cfg.workspace()
	if err != nil {
		return nil, err
	}
	defer cleanup()

	// Table 2 reads WG only.
	opt := repo.DefaultOptions(filepath.Join(ws, "t2"))
	opt.Schemes = []string{repo.SchemeHuffman, repo.SchemeLink3, repo.SchemeSNode}
	opt.Transpose = false
	opt.CacheBudget = 1 << 20
	opt.Model = cfg.Model
	r, err := repo.Build(crawl.Corpus, opt)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	n := crawl.Corpus.Graph.NumPages()

	// Table 2 measures "the time to decode and extract adjacency lists"
	// from the in-memory compressed form (the data files are OS-cached;
	// wall time is decode cost). Sequential scans may reuse the block /
	// supernode currently being traversed — a modest working-set budget
	// — while random access gets a minimal budget so nearly every
	// retrieval decodes afresh, as the paper's per-access numbers do.
	const seqBudget = 256 << 10
	const randBudget = 4 << 10
	var rows []Table2Row
	for _, scheme := range opt.Schemes {
		s := r.Fwd[scheme]
		if cr, ok := s.(store.CacheResetter); ok {
			cr.ResetCache(seqBudget)
		}
		seq, err := measureSequential(s, n)
		if err != nil {
			return nil, err
		}
		if cr, ok := s.(store.CacheResetter); ok {
			cr.ResetCache(randBudget)
		}
		s.ResetStats()
		rnd, dur, retrieved, err := measureRandom(s, n, cfg.Seed)
		if err != nil {
			return nil, err
		}
		decoded := retrieved
		if dc, ok := s.(interface{ DecodedEdges() int64 }); ok {
			decoded = dc.DecodedEdges()
		}
		rows = append(rows, Table2Row{
			Scheme:        s.Name(),
			SeqNsEdge:     seq,
			RandNsEdge:    rnd,
			RandNsDecoded: nsPerEdge(dur, decoded),
		})
	}
	return rows, nil
}

// measureSequential reads table2Trials lists in storage order, wrapping
// past the last page: S-Node's through Scan, the others page by page.
func measureSequential(s store.LinkStore, n int) (float64, error) {
	var buf []webgraph.PageID
	var edges int64
	start := time.Now()
	if rep, ok := s.(*snode.Representation); ok {
		for trial := 0; trial < table2Trials; {
			if err := rep.Scan(context.Background(), func(_ webgraph.PageID, out []webgraph.PageID) error {
				edges += int64(len(out))
				if trial++; trial == table2Trials {
					return errTrialsDone
				}
				return nil
			}); err != nil && !errors.Is(err, errTrialsDone) {
				return 0, err
			}
		}
		return nsPerEdge(time.Since(start), edges), nil
	}
	for trial := 0; trial < table2Trials; trial++ {
		var err error
		if buf, err = s.Out(webgraph.PageID(trial%n), buf[:0]); err != nil {
			return 0, err
		}
		edges += int64(len(buf))
	}
	return nsPerEdge(time.Since(start), edges), nil
}

// errTrialsDone stops a sequential scan once it has read its trials.
var errTrialsDone = errors.New("bench: trials done")

func measureRandom(s store.LinkStore, n int, seed uint64) (float64, time.Duration, int64, error) {
	rng := randutil.NewRNG(seed ^ 0xACCE55)
	ids := make([]webgraph.PageID, table2Trials)
	for i := range ids {
		ids[i] = webgraph.PageID(rng.Intn(n))
	}
	var buf []webgraph.PageID
	var edges int64
	start := time.Now()
	for _, p := range ids {
		var err error
		buf, err = s.Out(p, buf[:0])
		if err != nil {
			return 0, 0, 0, err
		}
		edges += int64(len(buf))
	}
	dur := time.Since(start)
	return nsPerEdge(dur, edges), dur, edges, nil
}

func nsPerEdge(d time.Duration, edges int64) float64 {
	if edges == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(edges)
}

// RenderAccess prints Table 2.
func RenderAccess(cfg Config, rows []Table2Row) {
	w := cfg.out()
	fmt.Fprintf(w, "Table 2: in-memory access times (%d-page data set, %d trials)\n",
		cfg.Sizes[0], table2Trials)
	fmt.Fprintf(w, "%-28s %20s %20s %22s\n",
		"representation", "seq (ns/edge)", "random (ns/edge)", "random (ns/decoded)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %20.0f %20.0f %22.0f\n",
			schemeTitles[r.Scheme], r.SeqNsEdge, r.RandNsEdge, r.RandNsDecoded)
	}
	fmt.Fprintln(w, "(paper: Huffman 112/198, Link3 309/689, S-Node 298/702 ns/edge)")
	fmt.Fprintln(w)
}
