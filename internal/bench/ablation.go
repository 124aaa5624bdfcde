package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"snode/internal/bitio"
	"snode/internal/partition"
	"snode/internal/refenc"
	"snode/internal/snode"
	"snode/internal/webgraph"
)

// AblationRow is one configuration's outcome in an ablation study.
type AblationRow struct {
	Name        string
	BitsPerEdge float64
	Supernodes  int
	Superedges  int64
	Note        string
}

// Ablations runs the §3 design-choice studies on the second-smallest
// configured size:
//
//   - reference-encoding window (0 = no referencing, the paper's basic
//     gap coding, up to 64)
//   - positive/negative superedge choice disabled
//   - partition variants: P0 only (no refinement), URL split only, full
//     refinement
func Ablations(cfg Config) ([]AblationRow, error) {
	n := cfg.Sizes[0]
	if len(cfg.Sizes) > 1 {
		n = cfg.Sizes[1]
	}
	crawl, err := cfg.Crawl(n)
	if err != nil {
		return nil, err
	}
	c := crawl.Corpus
	ws, cleanup, err := cfg.workspace()
	if err != nil {
		return nil, err
	}
	defer cleanup()

	var rows []AblationRow
	edges := float64(c.Graph.NumEdges())
	build := func(name string, sncfg snode.Config, p *partition.Partition, note string) error {
		dir := filepath.Join(ws, "abl-"+name)
		defer os.RemoveAll(dir)
		var st *snode.BuildStats
		var err error
		if p != nil {
			st, err = snode.BuildFromPartitionCtx(context.Background(), c, p, sncfg, dir, time.Now())
		} else {
			st, err = snode.Build(c, sncfg, dir)
		}
		if err != nil {
			return err
		}
		rows = append(rows, AblationRow{
			Name:        name,
			BitsPerEdge: float64(st.SizeBytes()*8) / edges,
			Supernodes:  st.Supernodes,
			Superedges:  st.Superedges,
			Note:        note,
		})
		return nil
	}

	// Reference-encoding window sweep.
	for _, win := range []int{0, 1, 8, 64} {
		sncfg := snode.DefaultConfig()
		sncfg.Refenc = refenc.Options{Window: win}
		if err := build(fmt.Sprintf("window-%d", win), sncfg, nil,
			"reference window (0 = plain gap coding)"); err != nil {
			return nil, err
		}
	}

	// Gap-coder sweep: gamma (the paper) vs Elias delta and Boldi-Vigna
	// zeta codes (the refinement WebGraph later standardized on).
	for _, gc := range []struct {
		name string
		code refenc.GapCode
	}{
		{"gaps-delta", refenc.GapDelta},
		{"gaps-zeta2", refenc.GapZeta2},
		{"gaps-zeta3", refenc.GapZeta3},
	} {
		sncfg := snode.DefaultConfig()
		sncfg.Refenc.GapCode = gc.code
		if err := build(gc.name, sncfg, nil,
			"gap coder (window-8 baseline uses gamma)"); err != nil {
			return nil, err
		}
	}

	// Negative superedge graphs disabled.
	sncfg := snode.DefaultConfig()
	sncfg.DisableNegative = true
	if err := build("no-negative", sncfg, nil,
		"positive superedge graphs only (§2 choice off)"); err != nil {
		return nil, err
	}

	// Partition variants.
	p0 := partition.InitialByDomain(c)
	if err := build("partition-P0", snode.DefaultConfig(), p0,
		"domains only, no refinement"); err != nil {
		return nil, err
	}
	urlOnly := partition.DefaultConfig()
	urlOnly.MinSplitSize = 1 << 30 // clustered split never fires
	pu, err := partition.Refine(c, urlOnly)
	if err != nil {
		return nil, err
	}
	if err := build("partition-url-only", snode.DefaultConfig(), pu,
		"URL split only"); err != nil {
		return nil, err
	}
	if err := build("partition-full", snode.DefaultConfig(), nil,
		"URL + clustered split (default)"); err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderAblations prints the ablation table.
func RenderAblations(cfg Config, rows []AblationRow) {
	w := cfg.out()
	fmt.Fprintln(w, "Ablations (S-Node design choices, §3)")
	fmt.Fprintf(w, "%-22s %12s %12s %12s  %s\n",
		"variant", "bits/edge", "supernodes", "superedges", "note")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %12.2f %12d %12d  %s\n",
			r.Name, r.BitsPerEdge, r.Supernodes, r.Superedges, r.Note)
	}
	fmt.Fprintln(w)
}

// ExactRefRow compares the window and exact (Edmonds minimum
// arborescence) reference-selection strategies on real intranode
// graphs sampled from the corpus.
type ExactRefRow struct {
	Graphs     int
	WindowBits int
	ExactBits  int
	SavingsPct float64
}

// ExactReference runs the Adler-Mitzenmacher strategy comparison: the
// exact affinity-graph arborescence versus the production window-8
// encoder, over intranode graphs small enough for the O(m³) algorithm.
func ExactReference(cfg Config) (*ExactRefRow, error) {
	crawl, err := cfg.Crawl(cfg.Sizes[0])
	if err != nil {
		return nil, err
	}
	c := crawl.Corpus
	p, err := partition.Refine(c, partition.DefaultConfig())
	if err != nil {
		return nil, err
	}
	const maxLists = 96 // keep Edmonds affordable
	row := &ExactRefRow{}
	for ei := range p.Elements {
		pages := p.Elements[ei].Pages
		if len(pages) < 8 || len(pages) > maxLists {
			continue
		}
		// Local intranode lists, as the builder would produce them.
		localOf := map[webgraph.PageID]int32{}
		for i, pg := range pages {
			localOf[pg] = int32(i)
		}
		lists := make([][]int32, len(pages))
		for i, pg := range pages {
			for _, t := range c.Graph.Out(pg) {
				if l, ok := localOf[t]; ok {
					lists[i] = append(lists[i], l)
				}
			}
		}
		bound := uint64(len(pages))
		w := bitio.NewWriter(0)
		stw, err := refenc.EncodeLists(w, lists, refenc.Options{
			Window: refenc.DefaultWindow, TargetBound: bound,
		})
		if err != nil {
			return nil, err
		}
		w.Reset()
		ste, err := refenc.EncodeLists(w, lists, refenc.Options{
			Exact: true, TargetBound: bound,
		})
		if err != nil {
			return nil, err
		}
		row.Graphs++
		row.WindowBits += stw.Bits
		row.ExactBits += ste.Bits
	}
	if row.WindowBits > 0 {
		row.SavingsPct = 100 * (1 - float64(row.ExactBits)/float64(row.WindowBits))
	}
	return row, nil
}

// RenderExactReference prints the strategy comparison.
func RenderExactReference(cfg Config, r *ExactRefRow) {
	w := cfg.out()
	fmt.Fprintln(w, "Reference-selection strategy: exact (Edmonds) vs window-8")
	fmt.Fprintf(w, "intranode graphs compared: %d\n", r.Graphs)
	fmt.Fprintf(w, "window-8 bits: %d   exact bits: %d   exact saves: %.1f%%\n",
		r.WindowBits, r.ExactBits, r.SavingsPct)
	fmt.Fprintln(w, "(Adler & Mitzenmacher's optimum buys little over the greedy window,")
	fmt.Fprintln(w, " at cubic cost — the paper's motivation for applying it only to small graphs)")
	fmt.Fprintln(w)
}
