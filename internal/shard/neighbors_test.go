package shard

import (
	"context"
	"slices"
	"testing"

	"snode/internal/randutil"
	"snode/internal/repo"
	"snode/internal/store"
	"snode/internal/webgraph"
)

// TestNeighborsEqualsOut holds the merged stores' Neighbors at K = 3 to
// the page's complete row: over page multisets that are unsorted, repeat
// pages and span every shard's supernodes, under every filter shape, at
// three budgets, cold and then warm, each shard's fwd and rev store
// visits the pages in their order, a page the shard owns with its whole
// out-row (or in-row) of the corpus as the filter passes it, and any
// other page with nothing — and each list equals the store's own
// OutFilteredCtx.
func TestNeighborsEqualsOut(t *testing.T) {
	const k = 3
	c := getCrawl(t).Corpus
	g := c.Graph
	rows := map[string]*webgraph.Graph{"fwd": g, "rev": g.Transpose()}
	domainOf := func(p webgraph.PageID) string { return c.Pages[p].Domain }
	pageSet := map[webgraph.PageID]bool{}
	for p := 0; p < g.NumPages(); p += 5 {
		pageSet[webgraph.PageID(p)] = true
	}
	filters := map[string]*store.Filter{
		"nil":     nil,
		"domains": {Domains: map[string]bool{"stanford.edu": true, "mit.edu": true, "no-such-domain.example": true}},
		"pages":   {Pages: pageSet},
		"both":    {Domains: map[string]bool{"berkeley.edu": true, "cmu.edu": false}, Pages: pageSet},
	}
	rng := randutil.NewRNG(42)
	pages := make([]webgraph.PageID, 400)
	for i := range pages {
		if i > 0 && rng.Intn(5) == 0 {
			pages[i] = pages[rng.Intn(i)]
		} else {
			pages[i] = webgraph.PageID(rng.Intn(g.NumPages()))
		}
	}
	ctx := context.Background()
	for _, sh := range openAll(t, getRoot(t, k), k) {
		for dir, st := range map[string]store.LinkStore{"fwd": sh.Repo.Fwd[repo.SchemeSNode], "rev": sh.Repo.Rev[repo.SchemeSNode]} {
			m := st.(*MergedStore)
			for _, budget := range []int64{16 << 10, 256 << 10, 256 << 20} {
				m.ResetCache(budget)
				for name, f := range filters {
					for _, state := range []string{"cold", "warm"} {
						var visited []webgraph.PageID
						err := m.Neighbors(ctx, pages, f, func(p webgraph.PageID, out []webgraph.PageID) error {
							k := len(visited)
							visited = append(visited, p)
							var want []webgraph.PageID
							if sh.Owns(p) {
								for _, q := range rows[dir].Out(p) {
									if store.FilterAccepts(f, q, domainOf) {
										want = append(want, q)
									}
								}
							}
							if got := sortedIDs(out); !slices.Equal(got, want) {
								t.Fatalf("shard %d %s, budget %d, %s filter, %s: page %d (position %d): %v, want %v", sh.ID, dir, budget, name, state, p, k, got, want)
							}
							one, err := m.OutFilteredCtx(ctx, p, f, nil)
							if err != nil {
								return err
							}
							if !slices.Equal(sortedIDs(one), want) {
								t.Fatalf("shard %d %s: OutFilteredCtx(%d) = %v, want %v", sh.ID, dir, p, one, want)
							}
							return nil
						})
						if err != nil {
							t.Fatalf("shard %d %s, budget %d, %s filter, %s: %v", sh.ID, dir, budget, name, state, err)
						}
						if !slices.Equal(visited, pages) {
							t.Fatalf("shard %d %s, budget %d, %s filter, %s: visits out of order", sh.ID, dir, budget, name, state)
						}
					}
				}
			}
		}
	}
}

func sortedIDs(ids []webgraph.PageID) []webgraph.PageID {
	if len(ids) == 0 {
		return nil
	}
	out := slices.Clone(ids)
	slices.Sort(out)
	return out
}
