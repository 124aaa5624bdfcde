package snode

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// sizedGraph is a graph for exercising the buffer manager in isolation
// from the codecs: encoded, of the given kind, with a list section that
// brings its charge to size bytes (at least the 64 an encoded graph is
// charged beyond its arrays).
func sizedGraph(kind uint8, size int64) *graph {
	return &graph{kind: kind, buf: make([]byte, size-64)}
}

// get is one counted lookup — lookup, and the hit or miss it owes
// countLookups — so that merged Hits+Misses equals the number of get
// calls. Lookups of the read path count a whole call's at once.
func (c *graphCache) get(id GraphID) (*graph, bool) {
	g := c.lookup(id)
	if g == nil {
		c.countLookups(id, 0, 1)
		return nil, false
	}
	c.countLookups(id, 1, 0)
	return g, true
}

// claimOrWait is a waiting claim plus the plain receive on another
// goroutine's in-flight decode.
func claimOrWait(c *graphCache, id GraphID) (g *graph, err error, leader bool) {
	g, fl, leader := c.claim(id, true)
	if leader || fl == nil {
		return g, nil, leader
	}
	<-fl.done
	return fl.g, fl.err, false
}

// checkShardInvariants verifies, at quiescence: per shard, used equals
// the sum of the ring's node sizes and resident their number, the ring
// is consistently linked and holds only graphs that hash to the shard,
// and used stays within budget unless a single oversized entry was
// admitted alone; across the cache, the slots point at exactly the
// nodes the rings hold. Returns the total resident entries.
func checkShardInvariants(t *testing.T, c *graphCache) int {
	t.Helper()
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		var sum, count int64
		for n := s.hand; n != nil; {
			sum += n.size
			count++
			if c.shard(n.id) != s {
				t.Errorf("shard %d: ring holds graph %d of another shard", i, n.id)
			}
			if c.slots[n.id].Load() != n {
				t.Errorf("shard %d: slot %d does not point at the ring's node", i, n.id)
			}
			if n.next.prev != n || n.prev.next != n {
				t.Errorf("shard %d: ring broken at graph %d", i, n.id)
			}
			if n = n.next; n == s.hand {
				break
			}
		}
		if sum != s.used {
			t.Errorf("shard %d: used=%d but entries sum to %d", i, s.used, sum)
		}
		if count != s.resident {
			t.Errorf("shard %d: resident=%d but the ring holds %d", i, s.resident, count)
		}
		if s.used > s.budget && count > 1 {
			t.Errorf("shard %d: used=%d exceeds budget=%d with %d entries",
				i, s.used, s.budget, count)
		}
		total += int(count)
		s.mu.Unlock()
	}
	published := 0
	for id := range c.slots {
		if c.slots[id].Load() != nil {
			published++
		}
	}
	if published != total {
		t.Errorf("%d slots published, %d nodes accounted by the shards", published, total)
	}
	return total
}

// TestCacheInvariantsUnderConcurrency drives the cache through the real
// access protocol (lookup → claim, or wait → complete) from 16 goroutines with a
// random mix of graph sizes, then checks the structural invariants and
// the stats identity Hits+Misses == total lookups.
func TestCacheInvariantsUnderConcurrency(t *testing.T) {
	const (
		budget     = 64 << 10
		goroutines = 16
		opsEach    = 3000
		idSpace    = 300
	)
	c := newGraphCache(budget, idSpace)
	var gets atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for op := 0; op < opsEach; op++ {
				id := GraphID(rng.Intn(idSpace))
				gets.Add(1)
				if _, ok := c.get(id); ok {
					continue
				}
				g, err, leader := claimOrWait(c, id)
				if !leader {
					if err != nil {
						t.Errorf("claim(%d): %v", id, err)
					} else if g == nil {
						t.Errorf("claim(%d): follower got nil graph without error", id)
					}
					continue
				}
				// Leader "decodes": deterministic per-ID size so re-decodes
				// of one graph always agree.
				sz := int64(64 + (int(id)*37)%2048)
				kind := kindIntra
				if id%3 == 0 {
					kind = kindSuperPos
				}
				c.complete(id, sizedGraph(kind, sz), nil)
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	checkShardInvariants(t, c)
	st := c.statsMerged()
	if got := st.Hits + st.Misses; got != gets.Load() {
		t.Fatalf("Hits+Misses = %d, want %d (one per lookup)", got, gets.Load())
	}
	if st.Loads > st.Misses {
		t.Fatalf("Loads=%d exceeds Misses=%d: a load without a preceding miss", st.Loads, st.Misses)
	}
	if st.IntraLoads+st.SuperLoads != st.Loads {
		t.Fatalf("IntraLoads+SuperLoads = %d, want Loads = %d",
			st.IntraLoads+st.SuperLoads, st.Loads)
	}
}

// TestCacheInvariantsWithConcurrentReset repeats the workload while
// another goroutine repeatedly empties and re-budgets the cache under
// the workers' lock-free gets; the structural invariants must hold at
// every quiescent point — in particular no slot may be left pointing at
// a node its shard no longer accounts for, which a reset that cleared
// slots outside the shard lock would allow — and no claimed decode may
// be orphaned.
func TestCacheInvariantsWithConcurrentReset(t *testing.T) {
	const goroutines = 8
	c := newGraphCache(32<<10, 150)
	stop := make(chan struct{})
	var workers, resetter sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			rng := rand.New(rand.NewSource(int64(w) + 100))
			for op := 0; op < 4000; op++ {
				id := GraphID(rng.Intn(150))
				if _, ok := c.get(id); ok {
					continue
				}
				_, err, leader := claimOrWait(c, id)
				if err != nil {
					t.Errorf("claim(%d): %v", id, err)
					return
				}
				if leader {
					c.complete(id, sizedGraph(kindIntra, 512), nil)
				}
			}
		}(w)
	}
	resetter.Add(1)
	go func() {
		defer resetter.Done()
		budgets := []int64{16 << 10, 32 << 10, 64 << 10}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				c.reset(budgets[i%len(budgets)])
			}
		}
	}()
	// If a reset orphaned an in-flight decode, a worker would hang in
	// claim forever and this Wait would trip the test timeout.
	workers.Wait()
	close(stop)
	resetter.Wait()
	checkShardInvariants(t, c)
}

// oneShardCache returns a cache with perShard bytes of budget per shard
// and n graph IDs that all fall in one shard, to test replacement on it
// in isolation.
func oneShardCache(perShard int64, n int) (*graphCache, *cacheShard, []GraphID) {
	c := newGraphCache(int64(cacheShards)*perShard, 64*cacheShards)
	target := c.shard(0)
	var ids []GraphID
	for id := GraphID(0); len(ids) < n; id++ {
		if c.shard(id) == target {
			ids = append(ids, id)
		}
	}
	return c, target, ids
}

// putGraph loads a graph of the given size through the real protocol:
// miss, claim, complete.
func putGraph(t *testing.T, c *graphCache, id GraphID, size int64) {
	t.Helper()
	if _, ok := c.get(id); ok {
		t.Fatalf("id %d unexpectedly cached", id)
	}
	insertEntry(t, c, id, sizedGraph(kindIntra, size))
}

// TestCacheLRUOrder states what second chance keeps of LRU, serially:
// an entry touched since it was loaded survives the next insert that
// needs room, the oldest untouched entry goes, and making room for one
// entry costs one eviction.
func TestCacheLRUOrder(t *testing.T) {
	c, _, ids := oneShardCache(1000, 4)
	// Fill with three 300-byte entries, oldest first: A, B, C.
	putGraph(t, c, ids[0], 300)
	putGraph(t, c, ids[1], 300)
	putGraph(t, c, ids[2], 300)
	// Touch A, the oldest.
	if _, ok := c.get(ids[0]); !ok {
		t.Fatal("A missing")
	}
	// Insert 300-byte D: the hand passes A (touched), evicts B.
	putGraph(t, c, ids[3], 300)
	if _, ok := c.slotGraph(ids[1]); ok {
		t.Fatal("B should have been evicted (oldest untouched)")
	}
	if _, ok := c.slotGraph(ids[0]); !ok {
		t.Fatal("A evicted despite its touch")
	}
	if _, ok := c.slotGraph(ids[2]); !ok {
		t.Fatal("C evicted ahead of the older, untouched B")
	}
	if st := c.statsMerged(); st.Evictions != 1 {
		t.Fatalf("%d evictions, want 1", st.Evictions)
	}
	checkShardInvariants(t, c)
}

// TestCacheSecondChanceSweep is the other half of the policy: when every
// resident entry has been touched the hand clears every bit on its way
// round and evicts the oldest, and the survivors — their chance spent —
// then go in age order unless touched again.
func TestCacheSecondChanceSweep(t *testing.T) {
	c, target, ids := oneShardCache(1000, 5)
	for _, id := range ids[:3] { // A, B, C
		putGraph(t, c, id, 300)
	}
	for _, id := range ids[:3] {
		if _, ok := c.get(id); !ok {
			t.Fatalf("graph %d missing", id)
		}
	}
	putGraph(t, c, ids[3], 300) // D: full turn, all bits cleared, A goes
	if _, ok := c.slotGraph(ids[0]); ok {
		t.Fatal("all touched: the oldest entry should have gone")
	}
	for _, id := range ids[1:4] {
		if _, ok := c.slotGraph(id); !ok {
			t.Fatalf("graph %d evicted; only the oldest should have gone", id)
		}
	}
	target.mu.Lock()
	for n := target.hand; ; {
		if n.ref.Load() {
			t.Errorf("graph %d still marked used after a full sweep", n.id)
		}
		if n = n.next; n == target.hand {
			break
		}
	}
	target.mu.Unlock()
	// C is touched again; B is not: E takes B's room, not C's.
	if _, ok := c.get(ids[2]); !ok {
		t.Fatal("C missing")
	}
	putGraph(t, c, ids[4], 300)
	if _, ok := c.slotGraph(ids[1]); ok {
		t.Fatal("B spent its chance and was not touched again: it should have gone")
	}
	if _, ok := c.slotGraph(ids[2]); !ok {
		t.Fatal("C evicted despite its second touch")
	}
	if st := c.statsMerged(); st.Evictions != 2 {
		t.Fatalf("%d evictions, want 2", st.Evictions)
	}
	checkShardInvariants(t, c)
}

// slotGraph reads a slot without marking the entry used, so a test can
// look at residency without changing what the next sweep does.
func (c *graphCache) slotGraph(id GraphID) (*graph, bool) {
	if g := c.slots[id].Load(); g != nil && g != loading {
		return g, true
	}
	return nil, false
}

// TestCacheOversizedEntry checks that a graph larger than the shard
// budget is admitted alone (queries must be able to run) and evicted by
// the next insert.
func TestCacheOversizedEntry(t *testing.T) {
	c := newGraphCache(int64(cacheShards)*100, 8)
	id := GraphID(5)
	_, _, leader := claimOrWait(c, id)
	if !leader {
		t.Fatal("expected leadership on empty cache")
	}
	c.complete(id, sizedGraph(kindIntra, 10_000), nil)
	if _, ok := c.get(id); !ok {
		t.Fatal("oversized graph not admitted")
	}
	checkShardInvariants(t, c)
}

// TestShardBudgetDegenerate is the regression test for the budget
// split: a positive budget smaller than the shard count used to floor
// every shard to zero; it must instead go whole to shard 0 so the
// budgets still sum to the configured total.
func TestShardBudgetDegenerate(t *testing.T) {
	for _, budget := range []int64{1, 5, cacheShards - 1} {
		c := newGraphCache(budget, 0)
		var sum int64
		for i := range c.shards {
			sum += c.shards[i].budget
		}
		if sum != budget {
			t.Errorf("budget %d: shard budgets sum to %d, want the full budget", budget, sum)
		}
		if c.shards[0].budget != budget {
			t.Errorf("budget %d: shard 0 has %d, want the whole degenerate budget", budget, c.shards[0].budget)
		}
		// reset must apply the same rule.
		c.reset(budget)
		if c.shards[0].budget != budget {
			t.Errorf("reset(%d): shard 0 has %d, want the whole degenerate budget", budget, c.shards[0].budget)
		}
	}
	// Non-degenerate budgets still split evenly; zero stays zero.
	c := newGraphCache(cacheShards*100, 0)
	for i := range c.shards {
		if c.shards[i].budget != 100 {
			t.Fatalf("shard %d budget = %d, want 100", i, c.shards[i].budget)
		}
	}
	c.reset(0)
	for i := range c.shards {
		if c.shards[i].budget != 0 {
			t.Fatalf("reset(0): shard %d budget = %d", i, c.shards[i].budget)
		}
	}
}

// TestShardMappingCoversAllShards checks the hash shift is derived from
// the shard-count constant: dense graph IDs must spread over every
// shard (a stale hardcoded shift would index a sub- or superset).
func TestShardMappingCoversAllShards(t *testing.T) {
	c := newGraphCache(1<<20, 0)
	seen := map[*cacheShard]bool{}
	for id := GraphID(0); id < 1<<14; id++ {
		seen[c.shard(id)] = true
	}
	if len(seen) != cacheShards {
		t.Fatalf("dense IDs reached %d shards, want %d", len(seen), cacheShards)
	}
}

// TestCacheStatsReconcileUnderResetChaos is the serving-path accounting
// invariant test: 32 goroutines drive a mixed get/claim/complete
// workload while the cache is concurrently emptied and re-budgeted;
// after the chaos phase quiesces, a counted phase (no resets) must
// reconcile exactly — merged Hits+Misses equals the number of get
// calls, and Loads+Coalesced covers every miss.
func TestCacheStatsReconcileUnderResetChaos(t *testing.T) {
	const goroutines = 32
	c := newGraphCache(24<<10, 200)
	workload := func(gets *atomic.Int64, ops int) {
		var wg sync.WaitGroup
		for w := 0; w < goroutines; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)*313 + 11))
				for op := 0; op < ops; op++ {
					id := GraphID(rng.Intn(200))
					if gets != nil {
						gets.Add(1)
					}
					if _, ok := c.get(id); ok {
						continue
					}
					g, err, leader := claimOrWait(c, id)
					if err != nil {
						t.Errorf("claim(%d): %v", id, err)
						return
					}
					if !leader {
						if g == nil {
							t.Errorf("claim(%d): follower got nil graph without error", id)
						}
						continue
					}
					sz := int64(128 + (int(id)*53)%1024)
					c.complete(id, sizedGraph(kindIntra, sz), nil)
				}
			}(w)
		}
		wg.Wait()
	}

	// Chaos phase: workload with a concurrent resetter. No counter
	// equalities hold across resets; this phase exists to interleave
	// resets with in-flight claims (run under -race).
	stop := make(chan struct{})
	var resetter sync.WaitGroup
	resetter.Add(1)
	go func() {
		defer resetter.Done()
		budgets := []int64{7, 8 << 10, 24 << 10, 48 << 10} // includes a degenerate budget
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				c.reset(budgets[i%len(budgets)])
			}
		}
	}()
	workload(nil, 2000)
	close(stop)
	resetter.Wait()

	// Counted phase: quiesced counters, no resets — exact reconciliation.
	c.resetStats()
	var gets atomic.Int64
	workload(&gets, 3000)
	if t.Failed() {
		return
	}
	checkShardInvariants(t, c)
	st := c.statsMerged()
	if got := st.Hits + st.Misses; got != gets.Load() {
		t.Fatalf("Hits+Misses = %d, want %d (one per get call)", got, gets.Load())
	}
	if st.Loads+st.Coalesced < st.Misses {
		t.Fatalf("Loads+Coalesced = %d does not cover Misses = %d: a miss resolved without a load, wait, or reuse",
			st.Loads+st.Coalesced, st.Misses)
	}
	if st.Loads > st.Misses {
		t.Fatalf("Loads=%d exceeds Misses=%d", st.Loads, st.Misses)
	}
}
