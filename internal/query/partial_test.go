package query

import (
	"context"
	"math"
	"testing"

	"snode/internal/repo"
	"snode/internal/webgraph"
)

// rowsMatch asserts merged partial rows reproduce a Run's rows. Q1
// values are floating-point PageRank sums whose association order
// differs between a single fold and a per-shard fold, so Q1 compares
// keys exactly and values within tolerance; every other query's values
// are integer counts and must match bit-exactly, order included.
func rowsMatch(t *testing.T, q ID, got, want []Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("Q%d: %d merged rows, want %d\n got: %v\nwant: %v", q, len(got), len(want), got, want)
	}
	if q == Q1 {
		wantByKey := map[string]float64{}
		for _, r := range want {
			wantByKey[r.Key] = r.Value
		}
		for _, r := range got {
			w, ok := wantByKey[r.Key]
			if !ok {
				t.Fatalf("Q1: merged key %q not in single-node rows", r.Key)
			}
			if math.Abs(r.Value-w) > 1e-9*math.Max(1, math.Abs(w)) {
				t.Fatalf("Q1 %q: merged %v, single-node %v", r.Key, r.Value, w)
			}
		}
		return
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Q%d row %d: merged %+v, single-node %+v", q, i, got[i], want[i])
		}
	}
}

// TestMergePartialsOwnerSplitMatchesRun: two engines over the same
// full repository, each owning half the page-ID space, must merge to
// exactly the single-node rows for all six queries. This pins the
// partial decomposition itself (source-set partitioning + per-class
// merge); internal/shard's golden tests pin it again over genuinely
// partitioned stores.
func TestMergePartialsOwnerSplitMatchesRun(t *testing.T) {
	r := getRepo(t)
	e, err := New(r, repo.SchemeSNode)
	if err != nil {
		t.Fatal(err)
	}
	mid := webgraph.PageID(len(r.Corpus.Pages) / 2)
	lo := e.Shared()
	lo.SetOwner(func(p webgraph.PageID) bool { return p < mid })
	hi := e.Shared()
	hi.SetOwner(func(p webgraph.PageID) bool { return p >= mid })
	for _, q := range All() {
		want, err := e.Run(context.Background(), q)
		if err != nil {
			t.Fatalf("Run Q%d: %v", q, err)
		}
		var parts [][]PartialRow
		for _, sh := range []*Engine{lo, hi} {
			p, err := sh.RunPartial(context.Background(), q)
			if err != nil {
				t.Fatalf("RunPartial Q%d: %v", q, err)
			}
			parts = append(parts, p.Rows)
		}
		got := MergePartials(q, parts)
		rowsMatch(t, q, got, want.Rows)
	}
}
