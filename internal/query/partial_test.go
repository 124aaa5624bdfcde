package query

import (
	"context"
	"math"
	"math/rand"
	"slices"
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

// TestSmallestMatchesSortAndCut: Q3's in-neighbour cap keeps the k
// smallest IDs of a list by selection; the members are those that
// sorting the whole list and cutting it at k keeps.
func TestSmallestMatchesSortAndCut(t *testing.T) {
	const k = kleinbergInCap
	rng := rand.New(rand.NewSource(29))
	random := func(n, span int) []webgraph.PageID {
		ids := make([]webgraph.PageID, n)
		for i := range ids {
			ids[i] = webgraph.PageID(rng.Intn(span))
		}
		return ids
	}
	same := func(n int, v webgraph.PageID) []webgraph.PageID {
		ids := make([]webgraph.PageID, n)
		for i := range ids {
			ids[i] = v
		}
		return ids
	}
	ramp := func(n, step int) []webgraph.PageID {
		ids := make([]webgraph.PageID, n)
		for i := range ids {
			ids[i] = webgraph.PageID(n/2 + step*(i-n/2))
		}
		return ids
	}
	cases := map[string][]webgraph.PageID{
		"empty":                  nil,
		"49":                     random(49, 1<<20),
		"50":                     random(50, 1<<20),
		"51":                     random(51, 1<<20),
		"10k":                    random(10000, 1<<20),
		"10k with repeats":       random(10000, 300),
		"all equal":              same(10000, 7),
		"descending":             ramp(10000, -1),
		"ascending":              ramp(10000, 1),
		"51 descending":          ramp(51, -1),
		"two values, 10k":        random(10000, 2),
		"one above 49 below":     append(same(49, 3), 9, 1),
		"one below the rest, 1k": append(ramp(1000, 1), 0),
	}
	for name, ids := range cases {
		want := slices.Clone(ids)
		slices.Sort(want)
		want = want[:min(k, len(want))]
		got := slices.Clone(smallest(slices.Clone(ids), k))
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s: smallest kept %v, sort-and-cut %v", name, got, want)
		}
	}
}
