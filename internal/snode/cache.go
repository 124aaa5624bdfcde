package snode

import (
	"container/list"
	"sync"
)

// decodedGraph is any in-memory lower-level graph.
type decodedGraph interface {
	memSize() int64
	// edgeCount reports stored entries (positive links, or complement
	// entries for negative graphs) — the decode-throughput denominator.
	edgeCount() int64
}

// graphCache is the buffer manager of §4.3: decoded intranode and
// superedge graphs are cached under a byte budget with LRU replacement.
// The experiments vary the budget (Figure 12) and count loads per query
// (the paper's instrumentation of Query 1).
//
// Cached graphs are immutable. A positive superedge graph has two in
// turn: a load inserts its sources with the lists still encoded
// (superPosSources), and the first lookup that needs a list decodes
// them all and has the cache hold the whole graph instead
// (materialized). No graph is ever changed in place, so one handed out
// by get stays valid however the cache moves on.
//
// Thread-safety contract: the cache is safe for concurrent use by any
// number of goroutines. It is split into cacheShards shards (by GraphID
// hash), each guarded by its own mutex and carrying its own slice of
// the byte budget, LRU list, and CacheStats; statsMerged sums the
// per-shard counters so the Figure-12 instrumentation is unchanged.
// Misses are deduplicated singleflight-style: the first goroutine to
// claim an absent graph becomes its decode leader, and every other
// goroutine that wants the same graph blocks on the leader's in-flight
// decode instead of decoding a second copy — N concurrent requests for
// one supernode trigger exactly one decode.
//
// All stats accounting, including the decoded-edge counter that the
// Table 2 throughput metric reads, happens behind the shard locks;
// there are no unsynchronized counters.
type graphCache struct {
	shards [cacheShards]cacheShard
}

// cacheShardBits selects the shard count (a power of two, sized so
// that a GOMAXPROCS' worth of goroutines rarely collides on one lock).
// Everything downstream — the hash shift in shard, the budget split —
// derives from it, so changing it cannot silently mis-shard.
const (
	cacheShardBits = 4
	cacheShards    = 1 << cacheShardBits
)

// cacheShard is one lock domain of the buffer manager.
type cacheShard struct {
	mu       sync.Mutex
	budget   int64 // this shard's slice of the total budget
	used     int64
	lru      *list.List // front = most recent; values are *cacheEntry
	byID     map[GraphID]*list.Element
	inflight map[GraphID]*inflightDecode
	stats    CacheStats
	decoded  int64 // edges decoded since last reset
}

type cacheEntry struct {
	id   GraphID
	g    decodedGraph
	size int64
}

// inflightDecode tracks one in-progress decode. g and err are written
// by the leader before done is closed; waiters read them only after
// <-done, so the channel close publishes them.
type inflightDecode struct {
	done chan struct{}
	g    decodedGraph
	err  error
}

func newGraphCache(budget int64) *graphCache {
	c := &graphCache{}
	for i := range c.shards {
		s := &c.shards[i]
		s.lru = list.New()
		s.byID = map[GraphID]*list.Element{}
		s.inflight = map[GraphID]*inflightDecode{}
	}
	c.setBudget(budget)
	return c
}

// shard maps a GraphID to its shard by multiplicative hash. Graph IDs
// are dense and one supernode's graphs are consecutive, so mixing
// spreads a single hot supernode's intranode and superedge graphs
// across lock domains.
func (c *graphCache) shard(id GraphID) *cacheShard {
	h := uint32(id) * 0x9E3779B1
	return &c.shards[h>>(32-cacheShardBits)] // top bits → cacheShards
}

// setBudget divides the total budget across shards (floor division, so
// the shard budgets never sum to more than the configured total). A
// degenerate budget — positive but smaller than the shard count — would
// floor every shard to zero, leaving each shard thrashing with every
// insert evicting whatever was resident; instead it is given whole to
// shard 0, so tiny-budget configurations (the low end of the Figure 12
// sweep, tests) retain a real LRU domain.
func (c *graphCache) setBudget(budget int64) {
	for i := range c.shards {
		c.shards[i].budget = shardBudget(budget, i)
	}
}

// shardBudget is shard i's slice of a total budget — the single place
// the split rule lives, shared by setBudget and reset so the
// degenerate-budget handling cannot drift between them.
func shardBudget(budget int64, i int) int64 {
	per := budget / cacheShards
	if per == 0 && i == 0 && budget > 0 {
		return budget
	}
	return per
}

// get returns the cached graph and marks it recently used, counting a
// hit or a miss: merged Hits+Misses equals the number of get calls.
func (c *graphCache) get(id GraphID) (decodedGraph, bool) {
	s := c.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byID[id]; ok {
		s.lru.MoveToFront(el)
		s.stats.Hits++
		return el.Value.(*cacheEntry).g, true
	}
	s.stats.Misses++
	return nil, false
}

// claim outcomes for tryClaim.
const (
	claimCached = iota // graph returned; nothing to do
	claimLeader        // caller owns the decode and MUST call complete
	claimBusy          // another goroutine is decoding; caller backs off
)

// claimNoWait resolves a graph that get reported missing without ever
// blocking: it returns the graph if a concurrent decode finished
// meanwhile, hands back the in-flight decode if one exists (the caller
// waits on fl.done itself — with cancellation, or hedged; counting the
// Coalesced dedup happens here, at claim time), or makes the caller the
// decode leader (leader=true), who MUST call complete exactly once.
// claimNoWait never counts a hit or miss — the get that preceded it
// already did.
func (c *graphCache) claimNoWait(id GraphID) (g decodedGraph, fl *inflightDecode, leader bool) {
	s := c.shard(id)
	s.mu.Lock()
	if el, ok := s.byID[id]; ok {
		// Resolved between the caller's miss and this claim by another
		// goroutine's decode: counted as Coalesced so every miss is
		// attributable to exactly one load, wait, or reuse (the
		// Loads+Coalesced >= Misses reconciliation the metrics assert).
		s.stats.Coalesced++
		s.lru.MoveToFront(el)
		g := el.Value.(*cacheEntry).g
		s.mu.Unlock()
		return g, nil, false
	}
	if fl, ok := s.inflight[id]; ok {
		s.stats.Coalesced++
		s.mu.Unlock()
		return nil, fl, false
	}
	fl = &inflightDecode{done: make(chan struct{})}
	s.inflight[id] = fl
	s.mu.Unlock()
	return nil, nil, true
}

// claim is claimNoWait plus the plain blocking wait on another
// goroutine's in-flight decode — the uncancellable form the internal
// sequential paths (Verify, DecodeAll's loads) use.
func (c *graphCache) claim(id GraphID) (g decodedGraph, err error, leader bool) {
	g, fl, leader := c.claimNoWait(id)
	if leader || fl == nil {
		return g, nil, leader
	}
	<-fl.done
	return fl.g, fl.err, false
}

// inflightCount reports decodes currently claimed but not completed —
// the gauge the shutdown and deadline tests use to assert no decode is
// orphaned.
func (c *graphCache) inflightCount() int64 {
	var n int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += int64(len(s.inflight))
		s.mu.Unlock()
	}
	return n
}

// tryClaim is claim without blocking: when another goroutine is already
// decoding id it reports claimBusy instead of waiting. Used to extend
// span reads over additional misses.
func (c *graphCache) tryClaim(id GraphID) (decodedGraph, int) {
	s := c.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byID[id]; ok {
		// As in claim: a miss resolved by another goroutine's completed
		// decode counts as Coalesced.
		s.stats.Coalesced++
		s.lru.MoveToFront(el)
		return el.Value.(*cacheEntry).g, claimCached
	}
	if _, ok := s.inflight[id]; ok {
		return nil, claimBusy
	}
	s.inflight[id] = &inflightDecode{done: make(chan struct{})}
	return nil, claimLeader
}

// complete finishes a claimed decode: on success the graph is inserted
// (evicting LRU entries to stay within the shard budget) and the load
// counters — including the decoded-edge counter — are bumped under the
// shard lock; either way, every goroutine blocked in claim is released
// with the same result.
func (c *graphCache) complete(id GraphID, g decodedGraph, kind uint8, err error) {
	s := c.shard(id)
	s.mu.Lock()
	fl := s.inflight[id]
	delete(s.inflight, id)
	if err == nil {
		s.insertLocked(id, g, kind)
	}
	s.mu.Unlock()
	if fl != nil {
		fl.g, fl.err = g, err
		close(fl.done)
	}
}

// insertLocked inserts a freshly decoded graph, evicting LRU entries to
// stay within the shard budget. Graphs larger than the budget are
// admitted alone (the query could not run otherwise) and evicted on the
// next insert. Caller holds s.mu.
func (s *cacheShard) insertLocked(id GraphID, g decodedGraph, kind uint8) {
	s.stats.Loads++
	s.decoded += g.edgeCount()
	if kind == kindIntra {
		s.stats.IntraLoads++
	} else {
		s.stats.SuperLoads++
	}
	if el, ok := s.byID[id]; ok {
		// Already resident (a racing insert slipped in, e.g. a reset
		// interleaved with this decode's claim): keep the existing entry.
		s.lru.MoveToFront(el)
		return
	}
	size := g.memSize()
	for s.used+size > s.budget && s.lru.Len() > 0 {
		s.evictBackLocked()
	}
	el := s.lru.PushFront(&cacheEntry{id: id, g: g, size: size})
	s.byID[id] = el
	s.used += size
}

// evictBackLocked evicts the least recently used entry. Caller holds
// s.mu.
func (s *cacheShard) evictBackLocked() {
	back := s.lru.Back()
	e := back.Value.(*cacheEntry)
	s.lru.Remove(back)
	delete(s.byID, e.id)
	s.used -= e.size
	s.stats.Evictions++
}

// materialized records that a lookup decoded the lists of the
// sources-only superedge graph from, giving to, and — if from is still
// what the cache holds for id — puts to in its place, most recently
// used, at its own size, evicting from the cold end if the growth needs
// the room (an entry that outgrows the whole shard stays, alone). The
// graphs themselves are never touched; the cache's own node for id is
// repointed under the shard lock, so it keeps its place in memory
// beside the nodes loaded with it. When from was evicted meanwhile, or
// another lookup's materialization got here first, the cache is left
// alone and to serves only its caller. Either way the decode happened,
// so it is counted.
func (c *graphCache) materialized(id GraphID, from *superPosSources, to *decodedSuperPos) {
	s := c.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Materialized++
	s.decoded += to.edgeCount()
	el, ok := s.byID[id]
	if !ok || el.Value.(*cacheEntry).g != decodedGraph(from) {
		return
	}
	e := el.Value.(*cacheEntry)
	size := to.memSize()
	s.used += size - e.size
	e.g, e.size = to, size
	s.lru.MoveToFront(el)
	for s.used > s.budget && s.lru.Len() > 1 {
		s.evictBackLocked()
	}
}

// statsMerged sums the per-shard counters into one CacheStats (the
// Figure 12 view).
func (c *graphCache) statsMerged() CacheStats {
	var out CacheStats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		out.Loads += s.stats.Loads
		out.Hits += s.stats.Hits
		out.Misses += s.stats.Misses
		out.Coalesced += s.stats.Coalesced
		out.Evictions += s.stats.Evictions
		out.IntraLoads += s.stats.IntraLoads
		out.SuperLoads += s.stats.SuperLoads
		out.Materialized += s.stats.Materialized
		s.mu.Unlock()
	}
	return out
}

// decodedEdges sums the per-shard decoded-edge counters.
func (c *graphCache) decodedEdges() int64 {
	var n int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.decoded
		s.mu.Unlock()
	}
	return n
}

// usedBytes sums the decoded bytes currently resident across shards
// (the decoded-bytes gauge of the serving metrics).
func (c *graphCache) usedBytes() int64 {
	var n int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.used
		s.mu.Unlock()
	}
	return n
}

// entries counts resident graphs across shards.
func (c *graphCache) entries() int64 {
	var n int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += int64(s.lru.Len())
		s.mu.Unlock()
	}
	return n
}

// resetStats zeroes the counters, keeping contents (the warm-cache
// repeated-trial methodology).
func (c *graphCache) resetStats() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.stats = CacheStats{}
		s.decoded = 0
		s.mu.Unlock()
	}
}

// reset empties the cache and re-divides a new budget (used between
// buffer-size sweep points). In-flight decodes are retained: their
// leaders will complete into the fresh state, and their waiters are
// still released.
func (c *graphCache) reset(budget int64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.budget = shardBudget(budget, i)
		s.used = 0
		s.lru.Init()
		s.byID = map[GraphID]*list.Element{}
		s.stats = CacheStats{}
		s.decoded = 0
		s.mu.Unlock()
	}
}
