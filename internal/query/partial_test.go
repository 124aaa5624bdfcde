package query

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"snode/internal/raceflag"
	"snode/internal/repo"
	"snode/internal/store"
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

// TestMergeQ3MatchesMapUnion holds Q3's merge, a walk over the parts'
// ascending page sets, to a map union: random sets, as many parts as a
// partition of K = 1–4 shards has, overlapping (a page in several parts
// counts once), and empty parts. Each part's set is the one planQ3
// emits from its member bitset, ascending, and the bitset is left clear.
func TestMergeQ3MatchesMapUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 300; trial++ {
		parts := make([][]PartialRow, 1+trial%4)
		union := map[webgraph.PageID]bool{}
		span := 1 + rng.Intn(3000)
		for i := range parts {
			members := make([]uint64, (span+63)/64)
			set := map[webgraph.PageID]bool{}
			if rng.Intn(4) > 0 {
				for j := rng.Intn(span); j > 0; j-- {
					p := rng.Intn(span)
					members[p>>6] |= 1 << (p & 63)
					set[webgraph.PageID(p)] = true
				}
			}
			var want []webgraph.PageID
			for p := range set {
				want = append(want, p)
			}
			slices.Sort(want)
			parts[i] = []PartialRow{{Pages: pagesOf(members)}}
			if !slices.Equal(parts[i][0].Pages, want) {
				t.Fatalf("trial %d part %d: pagesOf listed %v, want %v", trial, i, parts[i][0].Pages, want)
			}
			if slices.ContainsFunc(members, func(w uint64) bool { return w != 0 }) {
				t.Fatalf("trial %d part %d: pagesOf left members in the bitset", trial, i)
			}
			maps.Copy(union, set)
		}
		got := MergePartials(Q3, parts)
		if want := []Row{{Key: "base-set-size", Value: float64(len(union))}}; !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d parts): merged %v, map union %v", trial, len(parts), got, want)
		}
	}
}

// TestQ3RowsAndMergeAllocs pins Q3's row emission and its merge at the
// same allocations for 3,531 base-set members — shard 1's Q3 leg in the
// mining_routed workload — as for one: a set grown by append, or a row or
// map entry per member, trips it. serve's TestQ3LegAllocs pins the frame
// the set crosses between them. Wired into make check-overhead.
func TestQ3RowsAndMergeAllocs(t *testing.T) {
	membersOf := func(n int) []uint64 {
		members := make([]uint64, (100000+7*n+63)/64)
		for i := 0; i < n; i++ {
			p := 100000 + 7*i
			members[p>>6] |= 1 << (p & 63)
		}
		return members
	}
	allocs := func(n int) (rows, merge float64) {
		members := membersOf(n)
		scratch := make([]uint64, len(members)) // pagesOf clears what it reads
		var sink []PartialRow
		rows = testing.AllocsPerRun(20, func() {
			copy(scratch, members)
			sink = []PartialRow{{Pages: pagesOf(scratch)}}
		})
		_ = sink
		parts := [][]PartialRow{{{Pages: pagesOf(members)}}, {{Pages: pagesOf(membersOf(n / 2))}}}
		merge = testing.AllocsPerRun(20, func() { MergePartials(Q3, parts) })
		return rows, merge
	}
	bigRows, bigMerge := allocs(3531)
	smallRows, smallMerge := allocs(1)
	t.Logf("rows: %.0f allocations at 3,531 members, %.0f at one; merge: %.0f and %.0f", bigRows, smallRows, bigMerge, smallMerge)
	if bigRows != smallRows || bigRows > 2 {
		t.Errorf("Q3's rows allocate %.0f times for 3,531 members and %.0f for one; want the same, at most 2", bigRows, smallRows)
	}
	if bigMerge != smallMerge || bigMerge > 2 {
		t.Errorf("MergePartials(Q3) allocates %.0f times for 3,531 members and %.0f for one; want the same, at most 2", bigMerge, smallMerge)
	}
}

// TestWarmQ2AllocatesLessThanStanford: a warm Q2 on an engine that owns
// half the pages allocates less than one list of Stanford's pages would
// take — its source is built once per engine, the owned subset of it is
// drawn into recycled scratch, and its filter is compiled once — so what
// it allocates follows its answer, not Stanford's size. (With all three
// built per query it came to 2.5 such lists.) Logged, not asserted,
// under -race, where sync.Pool drops some of the recycled scratch.
// Wired into make check-overhead.
func TestWarmQ2AllocatesLessThanStanford(t *testing.T) {
	r := getRepo(t)
	e, err := New(r, repo.SchemeSNode)
	if err != nil {
		t.Fatal(err)
	}
	mid := webgraph.PageID(len(r.Corpus.Pages) / 2)
	half := e.Shared()
	half.SetOwner(func(p webgraph.PageID) bool { return p < mid })
	run := func() {
		if _, err := half.RunPartial(context.Background(), Q2); err != nil {
			t.Fatal(err)
		}
	}
	run()
	const rounds = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perQuery := (after.TotalAlloc - before.TotalAlloc) / rounds
	stanford := r.Domains["stanford.edu"]
	list := uint64(stanford.Hi-stanford.Lo) * uint64(unsafe.Sizeof(webgraph.PageID(0)))
	t.Logf("a warm Q2 allocates %d bytes; Stanford's %d pages take %d as a list", perQuery, stanford.Hi-stanford.Lo, list)
	if perQuery >= list && !raceflag.Enabled {
		t.Errorf("a warm Q2 allocates %d bytes, at least a list of Stanford's %d pages (%d bytes)", perQuery, stanford.Hi-stanford.Lo, list)
	}
}

// TestWarmQ3AllocatesLessThanItsBitset: beyond the Pages slice of its
// row, a warm Q3 allocates less than one bitset of the corpus's pages,
// because its member bitset comes back from a pool, cleared by pagesOf.
// (With a bitset made per query it came to more than one.) Logged, not
// asserted, under -race, where sync.Pool drops some of what is put back.
// Wired into make check-overhead.
func TestWarmQ3AllocatesLessThanItsBitset(t *testing.T) {
	r := getRepo(t)
	e, err := New(r, repo.SchemeSNode)
	if err != nil {
		t.Fatal(err)
	}
	members := 0
	run := func() {
		part, err := e.RunPartial(context.Background(), Q3)
		if err != nil {
			t.Fatal(err)
		}
		members = len(part.Rows[0].Pages)
	}
	run()
	const rounds = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perQuery := (after.TotalAlloc - before.TotalAlloc) / rounds
	pages := uint64(members) * uint64(unsafe.Sizeof(webgraph.PageID(0)))
	bitset := uint64(len(r.Corpus.Pages)+63) / 64 * 8
	t.Logf("a warm Q3 allocates %d bytes, %d of them its %d members; the corpus's bitset takes %d", perQuery, pages, members, bitset)
	if perQuery >= pages+bitset && !raceflag.Enabled {
		t.Errorf("a warm Q3 allocates %d bytes beyond its %d members' list, at least a bitset of the corpus's %d pages (%d bytes)",
			perQuery-pages, members, len(r.Corpus.Pages), bitset)
	}
}

// failingStore fails every read: a navigation over it stops at its
// first page.
type failingStore struct{ store.LinkStore }

func (failingStore) Out(p webgraph.PageID, buf []webgraph.PageID) ([]webgraph.PageID, error) {
	return buf, fmt.Errorf("page %d: read refused", p)
}

func (failingStore) OutFiltered(p webgraph.PageID, _ *store.Filter, buf []webgraph.PageID) ([]webgraph.PageID, error) {
	return buf, fmt.Errorf("page %d: read refused", p)
}

// TestFailedQ3GivesItsBitsetBackClear: a Q3 whose navigation fails in
// its reverse step, after the forward one has set members, clears its
// bitset before pooling it, so the Q3s that draw it next answer as they
// do on a new one: a half-owning engine's partial before and after
// failures is the same.
func TestFailedQ3GivesItsBitsetBackClear(t *testing.T) {
	r := getRepo(t)
	ctx := context.Background()
	half, err := New(r, repo.SchemeSNode)
	if err != nil {
		t.Fatal(err)
	}
	mid := webgraph.PageID(len(r.Corpus.Pages) / 2)
	half.SetOwner(func(p webgraph.PageID) bool { return p < mid })
	want, err := half.RunPartial(ctx, Q3)
	if err != nil {
		t.Fatal(err)
	}
	failing, err := New(r.WithStores(repo.SchemeSNode, r.Fwd[repo.SchemeSNode], failingStore{r.Rev[repo.SchemeSNode]}), repo.SchemeSNode)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := failing.RunPartial(ctx, Q3); err == nil {
			t.Fatal("Q3 over a reverse store that refuses every read succeeded")
		}
		got, err := half.RunPartial(ctx, Q3)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Rows[0].Pages, want.Rows[0].Pages) {
			t.Fatalf("after failed Q3 %d: the half-owning engine's %d members, %d before", i, len(got.Rows[0].Pages), len(want.Rows[0].Pages))
		}
	}
}

// filterRecorder forwards a store's reads, noting the filter of each
// set-at-a-time one.
type filterRecorder struct {
	store.LinkStore
	filters []*store.Filter
}

func (f *filterRecorder) Neighbors(ctx context.Context, pages []webgraph.PageID, filter *store.Filter, visit func(p webgraph.PageID, out []webgraph.PageID) error) error {
	f.filters = append(f.filters, filter)
	return f.LinkStore.(neighborer).Neighbors(ctx, pages, filter, visit)
}

// TestWarmQ5CompilesNoFilter: Q5 hands its reverse step one filter, built
// in New, so the S-Node store compiles it on the first Q5 and every warm
// Q5 finds that form. (Built per query, as it was, each Q5 brought a new
// filter, which the store compiled again.) Wired into make
// check-overhead.
func TestWarmQ5CompilesNoFilter(t *testing.T) {
	r := getRepo(t)
	rev := &filterRecorder{LinkStore: r.Rev[repo.SchemeSNode]}
	e, err := New(r.WithStores(repo.SchemeSNode, r.Fwd[repo.SchemeSNode], rev), repo.SchemeSNode)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := e.RunPartial(context.Background(), Q5); err != nil {
			t.Fatal(err)
		}
	}
	if len(rev.filters) != 3 || rev.filters[0] == nil {
		t.Fatalf("three Q5s made %d filtered reads of the reverse store (%v); want 3", len(rev.filters), rev.filters)
	}
	for i, f := range rev.filters[1:] {
		if f != rev.filters[0] {
			t.Errorf("warm Q5 %d brought a new filter", i+1)
		}
	}
	rev.filters[0].Compiled(r.Rev[repo.SchemeSNode], func() any {
		t.Error("Q5's filter was never compiled for the S-Node store")
		return nil
	})
}
