package delta_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"snode/internal/delta"
	"snode/internal/randutil"
	"snode/internal/repo"
	"snode/internal/snode"
	"snode/internal/synth"
	"snode/internal/webgraph"
)

// Fold-back's byte identity: an Overlay over the original S-Node base,
// carrying a mutation log through segments, a memtable and compaction,
// folds back into artifacts byte-identical to a clean S-Node build of
// the mutated graph — same bytes, not just same answers. What every
// delta depth answers is held to the mutated graph's CSR by the
// repository's one oracle (internal/store's TestOracle).

const equivPages = 12000

func buildMutated(c *webgraph.Corpus, muts []delta.Mutation) *webgraph.Corpus {
	adj := make([]map[webgraph.PageID]bool, c.Graph.NumPages())
	for p := range adj {
		adj[p] = map[webgraph.PageID]bool{}
		for _, t := range c.Graph.Out(webgraph.PageID(p)) {
			adj[p][t] = true
		}
	}
	for _, m := range muts {
		if m.Op == delta.OpAdd {
			adj[m.Src][m.Dst] = true
		} else {
			delete(adj[m.Src], m.Dst)
		}
	}
	b := webgraph.NewBuilder(len(adj))
	for p := range adj {
		for t := range adj[p] {
			b.AddEdge(webgraph.PageID(p), t)
		}
	}
	return &webgraph.Corpus{Graph: b.Build(), Pages: c.Pages}
}

// genMutations produces a deterministic mixed log: removals of real
// edges, additions of new ones, and flip-flops that exercise the
// latest-wins shadowing across layers.
func genMutations(c *webgraph.Corpus, rng *randutil.RNG, n int) []delta.Mutation {
	g := c.Graph
	np := g.NumPages()
	var muts []delta.Mutation
	for len(muts) < n {
		switch rng.Intn(4) {
		case 0: // remove an existing edge
			s := webgraph.PageID(rng.Intn(np))
			out := g.Out(s)
			if len(out) == 0 {
				continue
			}
			muts = append(muts, delta.Mutation{Src: s, Dst: out[rng.Intn(len(out))], Op: delta.OpRemove})
		case 1: // add a random edge (may already exist)
			muts = append(muts, delta.Mutation{
				Src: webgraph.PageID(rng.Intn(np)),
				Dst: webgraph.PageID(rng.Intn(np)),
				Op:  delta.OpAdd,
			})
		default: // flip a previous mutation back
			if len(muts) == 0 {
				continue
			}
			prev := muts[rng.Intn(len(muts))]
			op := delta.OpAdd
			if prev.Op == delta.OpAdd {
				op = delta.OpRemove
			}
			muts = append(muts, delta.Mutation{Src: prev.Src, Dst: prev.Dst, Op: op})
		}
	}
	return muts
}

func dirHashes(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = fmt.Sprintf("%x", sha256.Sum256(data))
	}
	return out
}

func TestOverlayGoldenEquivalence(t *testing.T) {
	ctx := context.Background()
	crawl, err := synth.Generate(synth.DefaultConfig(equivPages))
	if err != nil {
		t.Fatal(err)
	}
	corpus := crawl.Corpus
	opt := repo.DefaultOptions(t.TempDir())
	opt.Schemes = []string{repo.SchemeSNode}
	orig, err := repo.Build(corpus, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()

	rng := randutil.NewRNG(20260805)
	muts := genMutations(corpus, rng, 900)
	mutated := buildMutated(corpus, muts)

	// Reference: S-Node rebuilt from scratch over the mutated graph.
	refFwdDir := filepath.Join(t.TempDir(), "ref.fwd")
	if _, err := snode.Build(mutated, opt.SNode, refFwdDir); err != nil {
		t.Fatal(err)
	}
	fwdOv, err := delta.NewOverlay(orig.Fwd[repo.SchemeSNode], delta.Config{
		Pages: corpus.Pages,
		Dir:   t.TempDir(),
		Model: opt.Model,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fwdOv.Close()

	// Apply the log in three batches with seals between them, seal the
	// last, and compact down to one segment.
	third := len(muts) / 3
	for _, batch := range [][2]int{{0, third}, {third, 2 * third}, {2 * third, len(muts)}} {
		if err := fwdOv.Apply(ctx, muts[batch[0]:batch[1]]); err != nil {
			t.Fatal(err)
		}
		if err := fwdOv.Seal(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for fwdOv.SegmentCount() > 1 {
		did, err := fwdOv.MergeOnce(ctx)
		if err != nil || !did {
			t.Fatalf("MergeOnce = %v, %v", did, err)
		}
	}

	// Fold-back: the overlay rebuilds itself into a fresh S-Node base.
	// The artifacts must hash identically to a clean build of the
	// mutated graph — same bytes, not just same answers.
	foldDir, err := fwdOv.FoldBack(ctx, delta.FoldConfig{
		SNode:       opt.SNode,
		Dir:         t.TempDir(),
		CacheBudget: opt.CacheBudget,
		Model:       opt.Model,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantHashes := dirHashes(t, refFwdDir)
	gotHashes := dirHashes(t, foldDir)
	if len(gotHashes) != len(wantHashes) {
		t.Fatalf("fold dir has %d files, clean build %d", len(gotHashes), len(wantHashes))
	}
	for name, h := range wantHashes {
		if gotHashes[name] != h {
			t.Fatalf("fold artifact %s hash %s != clean build %s", name, gotHashes[name], h)
		}
	}
	if ds := fwdOv.DeltaStatsNow(); ds.Segments != 0 || ds.MemtableEntries+ds.SegmentEntries != 0 {
		t.Fatalf("fold left residue: %+v", ds)
	}
}
