package delta_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"snode/internal/delta"
	"snode/internal/query"
	"snode/internal/randutil"
	"snode/internal/repo"
	"snode/internal/snode"
	"snode/internal/store"
	"snode/internal/synth"
	"snode/internal/webgraph"
)

// The golden-equivalence criterion: an Overlay over the original
// S-Node base, carrying a mutation log, must answer the six paper
// queries byte-identically to S-Node representations rebuilt from
// scratch over the mutated graph — at every delta depth (memtable
// only, several segments, compacted, folded back). Both sides share
// the corpus metadata and the text/PageRank/domain indexes (the
// mutations touch links between existing pages only, which leaves
// those indexes untouched by construction), so any Rows difference is
// a navigation difference, i.e. an overlay bug.

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

// mirror transposes a mutation log for the reverse overlay, the way
// the repo builder materializes WGT next to WG.
func mirror(muts []delta.Mutation) []delta.Mutation {
	out := make([]delta.Mutation, len(muts))
	for i, m := range muts {
		out[i] = delta.Mutation{Src: m.Dst, Dst: m.Src, Op: m.Op}
	}
	return out
}

// derived clones a repository with different snode stores, sharing the
// corpus and every index.
func derived(r *repo.Repository, fwd, rev store.LinkStore) *repo.Repository {
	return &repo.Repository{
		Corpus:   r.Corpus,
		Text:     r.Text,
		PageRank: r.PageRank,
		Domains:  r.Domains,
		Model:    r.Model,
		Fwd:      map[string]store.LinkStore{repo.SchemeSNode: fwd},
		Rev:      map[string]store.LinkStore{repo.SchemeSNode: rev},
	}
}

func runRows(t *testing.T, r *repo.Repository) []*query.Result {
	t.Helper()
	e, err := query.New(r, repo.SchemeSNode)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func compareRows(t *testing.T, stage string, got, want []*query.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", stage, len(got), len(want))
	}
	for qi := range want {
		if len(got[qi].Rows) != len(want[qi].Rows) {
			t.Fatalf("%s: query %d: %d rows, want %d",
				stage, want[qi].Query, len(got[qi].Rows), len(want[qi].Rows))
		}
		for ri := range want[qi].Rows {
			if got[qi].Rows[ri] != want[qi].Rows[ri] {
				t.Fatalf("%s: query %d row %d: %+v != %+v",
					stage, want[qi].Query, ri, got[qi].Rows[ri], want[qi].Rows[ri])
			}
		}
	}
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

	// Reference: S-Node rebuilt from scratch over the mutated graph
	// (and its transpose), sharing every index with the original.
	refFwdDir := filepath.Join(t.TempDir(), "ref.fwd")
	refRevDir := filepath.Join(t.TempDir(), "ref.rev")
	for dir, c := range map[string]*webgraph.Corpus{
		refFwdDir: mutated,
		refRevDir: {Graph: mutated.Graph.Transpose(), Pages: mutated.Pages},
	} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if _, err := snode.Build(c, opt.SNode, dir); err != nil {
			t.Fatal(err)
		}
	}
	refFwd, err := snode.Open(refFwdDir, opt.CacheBudget, opt.Model)
	if err != nil {
		t.Fatal(err)
	}
	defer refFwd.Close()
	refRev, err := snode.Open(refRevDir, opt.CacheBudget, opt.Model)
	if err != nil {
		t.Fatal(err)
	}
	defer refRev.Close()
	want := runRows(t, derived(orig, refFwd, refRev))

	// Zero-delta pass-through: an empty overlay must not change any
	// result relative to the bare base store.
	mkOverlay := func(base store.LinkStore) *delta.Overlay {
		o, err := delta.NewOverlay(base, delta.Config{
			Pages: corpus.Pages,
			Dir:   t.TempDir(),
			Model: opt.Model,
		})
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	fwdOv := mkOverlay(orig.Fwd[repo.SchemeSNode])
	revOv := mkOverlay(orig.Rev[repo.SchemeSNode])
	defer fwdOv.Close()
	defer revOv.Close()
	live := derived(orig, fwdOv, revOv)
	baseline := runRows(t, derived(orig, orig.Fwd[repo.SchemeSNode], orig.Rev[repo.SchemeSNode]))
	compareRows(t, "zero-delta", runRows(t, live), baseline)

	// Apply the log in three batches with seals between them, leaving
	// the last batch in the memtable: layers = 2 segments + memtable.
	revMuts := mirror(muts)
	third := len(muts) / 3
	for i, batch := range [][2]int{{0, third}, {third, 2 * third}, {2 * third, len(muts)}} {
		if err := fwdOv.Apply(ctx, muts[batch[0]:batch[1]]); err != nil {
			t.Fatal(err)
		}
		if err := revOv.Apply(ctx, revMuts[batch[0]:batch[1]]); err != nil {
			t.Fatal(err)
		}
		if i < 2 {
			if err := fwdOv.Seal(ctx); err != nil {
				t.Fatal(err)
			}
			if err := revOv.Seal(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	compareRows(t, "segments+memtable", runRows(t, live), want)

	// Everything sealed: three segments, empty memtable.
	if err := fwdOv.Seal(ctx); err != nil {
		t.Fatal(err)
	}
	if err := revOv.Seal(ctx); err != nil {
		t.Fatal(err)
	}
	compareRows(t, "all-segments", runRows(t, live), want)

	// Compacted down to one segment.
	for _, o := range []*delta.Overlay{fwdOv, revOv} {
		for o.SegmentCount() > 1 {
			did, err := o.MergeOnce(ctx)
			if err != nil || !did {
				t.Fatalf("MergeOnce = %v, %v", did, err)
			}
		}
	}
	compareRows(t, "compacted", runRows(t, live), want)

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

	// Queries stay byte-identical after the swap (fwd folded, rev still
	// layered — both paths must agree with the reference).
	compareRows(t, "post-fold", runRows(t, live), want)
}
