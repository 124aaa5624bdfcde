package snode

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snode/internal/webgraph"
)

// stressDeadline bounds the mixed-workload stress test: long enough to
// push the sharded cache through many evict/reset cycles under -race,
// short enough for the tier-1 suite.
const stressDeadline = 2200 * time.Millisecond

// lookupAll resolves ps the way concurrent callers do: goroutines over
// one Representation, each pulling the next page from an atomic counter
// and calling OutFilteredCtx. Lists land in input order; a goroutine
// stops at its first error, and the errors are returned joined.
func lookupAll(ctx context.Context, r *Representation, ps []webgraph.PageID, goroutines int) ([][]webgraph.PageID, error) {
	out := make([][]webgraph.PageID, len(ps))
	errs := make([]error, goroutines)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(ps) && errs[g] == nil; i = int(next.Add(1) - 1) {
				out[i], errs[g] = r.OutFilteredCtx(ctx, ps[i], nil, nil)
			}
		}(g)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// TestConcurrentMixedWorkload hammers one shared Representation with 32
// goroutines running the full read API — Out, OutFiltered by domain and
// by page set, batches of OutFilteredCtx from further goroutines, stats
// reads — while two of them periodically reset stats and the cache. Every adjacency answer
// is checked against the source graph; run under -race this is the
// suite's main data-race detector for the serving path.
func TestConcurrentMixedWorkload(t *testing.T) {
	c, _ := buildOnce(t)
	r := openRep(t, 256<<10) // small budget: constant eviction pressure
	n := int32(c.Graph.NumPages())

	checkOut := func(tt *testing.T, p webgraph.PageID, got []webgraph.PageID) {
		want := c.Graph.Out(p)
		g := sortedCopy(got)
		if len(g) != len(want) {
			tt.Errorf("page %d: %d targets, want %d", p, len(g), len(want))
			return
		}
		for i := range want {
			if g[i] != want[i] {
				tt.Errorf("page %d target %d: got %d, want %d", p, i, g[i], want[i])
				return
			}
		}
	}

	const goroutines = 32
	deadline := time.Now().Add(stressDeadline)
	var ops atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 1))
			var buf []webgraph.PageID
			for time.Now().Before(deadline) {
				ops.Add(1)
				p := webgraph.PageID(rng.Int31n(n))
				switch op := rng.Intn(10); {
				case op < 4: // plain Out
					var err error
					buf, err = r.Out(p, buf[:0])
					if err != nil {
						t.Errorf("Out(%d): %v", p, err)
						return
					}
					checkOut(t, p, buf)
				case op < 6: // OutFiltered by domain
					d := c.Pages[rng.Int31n(n)].Domain
					f := filterOf(c, []string{d})
					var err error
					buf, err = r.OutFiltered(p, f, buf[:0])
					if err != nil {
						t.Errorf("OutFiltered(%d, %s): %v", p, d, err)
						return
					}
					for _, tgt := range buf {
						if c.Pages[tgt].Domain != d {
							t.Errorf("page %d: filter leaked target %d (domain %s)",
								p, tgt, c.Pages[tgt].Domain)
							return
						}
					}
				case op < 7: // OutFiltered by page set
					var pages []webgraph.PageID
					for _, tgt := range c.Graph.Out(p) {
						if rng.Intn(2) == 0 {
							pages = append(pages, tgt)
						}
					}
					if len(pages) == 0 {
						continue
					}
					f := filterOf(c, nil, pages...)
					var err error
					buf, err = r.OutFiltered(p, f, buf[:0])
					if err != nil {
						t.Errorf("OutFiltered(%d, pages): %v", p, err)
						return
					}
					if len(buf) != len(pages) {
						t.Errorf("page %d: page-set filter returned %d of %d",
							p, len(buf), len(pages))
						return
					}
				case op < 8: // batched lookup
					ps := make([]webgraph.PageID, 8)
					for i := range ps {
						ps[i] = webgraph.PageID(rng.Int31n(n))
					}
					lists, err := lookupAll(context.Background(), r, ps, 2)
					if err != nil {
						t.Errorf("batched OutFilteredCtx: %v", err)
						return
					}
					for i, l := range lists {
						checkOut(t, ps[i], l)
					}
				case op < 9: // stats readers
					st := r.StatsExt()
					if st.Cache.Hits < 0 || st.Cache.Loads < 0 {
						t.Error("negative cache counters")
						return
					}
					_ = r.Stats()
					_ = r.DecodedEdges()
				default: // mutators, on two goroutines only
					if w == 0 {
						r.ResetStats()
					} else if w == 1 {
						r.ResetCache(int64(128<<10) << rng.Intn(3))
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Lookups materialized superedge lists while inserts evicted and the
	// mutators reset the cache under them: the byte accounting must have
	// survived every replacement.
	checkShardInvariants(t, r.cache)
	t.Logf("mixed workload: %d operations across %d goroutines", ops.Load(), goroutines)
}

// neededGraphs returns the GraphIDs the representation must load to
// answer Out(p) — the intranode graph of p's supernode plus every
// out-superedge graph.
func neededGraphs(r *Representation, p webgraph.PageID) []GraphID {
	i := r.snOf(r.m.Perm[p])
	gids := []GraphID{r.m.IntraGID[i]}
	for k := r.m.SuperOff[i]; k < r.m.SuperOff[i+1]; k++ {
		gids = append(gids, r.m.SuperGID[k])
	}
	return gids
}

// TestSingleflightDecodeDedup releases 32 goroutines at once against a
// cold cache, all asking for the same page: the buffer manager must
// perform exactly one decode per needed graph, no matter how the
// goroutines interleave.
func TestSingleflightDecodeDedup(t *testing.T) {
	c, _ := buildOnce(t)
	r := openRep(t, 32<<20)

	// Pick the page whose supernode has the most superedge graphs, so
	// the dedup covers span reads too.
	var page webgraph.PageID
	best := -1
	for p := int32(0); int(p) < c.Graph.NumPages(); p += 101 {
		if n := len(neededGraphs(r, p)); n > best {
			best, page = n, p
		}
	}
	need := int64(best)

	for trial := 0; trial < 3; trial++ {
		r.ResetCache(32 << 20)
		const goroutines = 32
		start := make(chan struct{})
		var wg sync.WaitGroup
		results := make([][]webgraph.PageID, goroutines)
		errs := make([]error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				results[g], errs[g] = r.Out(page, nil)
			}(g)
		}
		close(start)
		wg.Wait()
		want := c.Graph.Out(page)
		for g := 0; g < goroutines; g++ {
			if errs[g] != nil {
				t.Fatalf("trial %d goroutine %d: %v", trial, g, errs[g])
			}
			got := sortedCopy(results[g])
			if len(got) != len(want) {
				t.Fatalf("trial %d goroutine %d: %d targets, want %d",
					trial, g, len(got), len(want))
			}
		}
		st := r.StatsExt().Cache
		if st.Loads != need {
			t.Fatalf("trial %d: %d loads for %d needed graphs — concurrent decodes not deduplicated",
				trial, st.Loads, need)
		}
		if got := st.Hits + st.Misses; got < int64(32) {
			t.Fatalf("trial %d: Hits+Misses = %d, want >= one lookup per goroutine", trial, got)
		}
	}
}
