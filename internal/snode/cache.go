package snode

import (
	"math"
	"sync"
	"sync/atomic"
)

// graphCache is the buffer manager of §4.3: decoded intranode and
// superedge graphs are cached under a byte budget with second-chance
// (CLOCK) replacement. The experiments vary the budget (Figure 12) and
// count loads per query (the paper's instrumentation of Query 1).
//
// Cached graphs are immutable. Every graph is one graph value in one of
// two states: a lookup's load inserts it encoded (a copy of its
// payload's list section, and a positive superedge graph's sources
// decoded), and the lookup that loaded it decodes only the list it wants
// out of that. A later lookup that finds the entry and needs a list of
// it decodes them all into a new, whole graph and has the cache hold
// that instead (materialized). Verify, which wants every list, loads
// its misses whole at once. No graph is ever changed in place, so one
// handed out by lookup stays valid however the cache moves on.
//
// Thread-safety contract: the cache is safe for concurrent use by any
// number of goroutines.
//
// A hit takes no lock. Graph IDs are dense, so a graph's state is
// published in its slot, one atomic pointer per graph of the directory:
// nil when the graph is absent, the graph when it is resident, and the
// shared placeholder loading while some goroutine decodes it. lookup
// is one atomic load, plus one store to the entry's reference bit when
// the bit is clear. What a slot points to (a graph, and its node's id,
// size and source summary) never changes after it is published;
// replacing a graph publishes the new graph. A reader that loaded a
// graph just before it was evicted or reset therefore still holds it
// whole and valid, and the only thing it can do to the dead node is set
// a bit nobody reads.
//
// Everything that changes a slot takes a shard lock: the cache is split
// into cacheShards shards (by GraphID hash), each with its own mutex,
// slice of the byte budget, ring of resident nodes, flights and load
// counters. Claiming a miss, inserting (complete), replacing
// (materialized), evicting and reset all run under the lock of the
// graph's shard, and every store to a slot happens there: under a
// shard's lock its ring holds exactly the resident nodes its slots
// point to, and used is the sum of their sizes.
//
// Replacement keeps of LRU what a lock-free hit can afford to record:
// one bit per entry, "used since the hand last passed". Only an insert
// that needs room moves the hand: it starts at the oldest entry, clears
// the bit of each entry it finds used and moves on, and evicts the
// first it finds unused. An entry touched since its last inspection
// thus outlives every entry that was not; among the untouched, the
// oldest goes first. The order of touches between two sweeps is not
// kept, which exact LRU paid a lock and a list splice per hit for.
//
// Misses are deduplicated singleflight-style: the first goroutine to
// claim an absent graph becomes its decode leader, and every other
// goroutine that wants the same graph blocks on the leader's in-flight
// decode instead of decoding a second copy — N concurrent requests for
// one supernode trigger exactly one decode. A claim is a store of
// loading to the slot and allocates nothing; the flight a waiter blocks
// on is made by the first goroutine that has to wait, and kept in its
// shard's short list of waited flights until the leader completes.
//
// Counters: hits and misses are atomics, added by whoever did the
// lookups (Out adds its whole call's at once, to one shard's pair, so
// that lookups of different supernodes rarely write the same cache
// line), and so are the decoded-edge counter that the Table 2
// throughput metric reads and the one-list decode count, which lookups
// add to outside the locks; the other load-side counters change under
// the shard locks. All are exact at quiescence: Hits+Misses is the
// number of lookups made, Loads+Coalesced >= Misses.
type graphCache struct {
	slots  []atomic.Pointer[graph] // indexed by GraphID; nil = absent, loading = being decoded
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
	mu     sync.Mutex
	budget int64 // this shard's slice of the total budget
	used   int64
	// hand is the oldest node of the shard's ring (circular through
	// next/prev, insertion order), where the next sweep starts; nil when
	// the shard is empty. hand.prev is the newest.
	hand     *graph
	resident int64
	claimed  int64             // slots holding loading: decodes claimed, not yet completed
	waited   []*inflightDecode // the flights, among those, that some goroutine waits on
	stats    CacheStats        // Hits, Misses and ListDecodes unused: see below

	// Counted without mu: lookup outcomes reported to this shard
	// (countLookups), list entries decoded since the last reset, and
	// one-list decodes (listDecoded).
	hits, misses, decoded, listDecodes atomic.Int64
}

// cacheNode is what the cache keeps of one resident graph: the graph
// embeds it, so that admitting a graph allocates nothing, and the cache
// readies and links it once (readyNode). id, size and the source summary
// are set before the graph is published and never change; ref is the
// second-chance bit, set by lock-free hits and cleared by the sweep;
// next and prev belong to the shard lock.
//
// The source summary lets a warm lookup rule a positive superedge graph
// out without a search of the graph's sources: srcLo and srcHi are its
// smallest and largest source, and srcMask has bit v&63 set for each
// source v. Every other graph carries the empty summary, which rules
// nothing out.
type cacheNode struct {
	size         int64
	next, prev   *graph
	id           GraphID
	ref          atomic.Bool
	srcLo, srcHi int32
	srcMask      uint64
}

// readyNode readies g's node to hold g as graph id, with its source
// summary, and reports false if g was admitted before: a node that has
// been in a ring keeps its next pointer, and a graph is admitted at most
// once, so that no published graph is ever written again. Caller holds
// the lock of id's shard.
func (g *graph) readyNode(id GraphID) bool {
	if g.next != nil {
		return false
	}
	g.id, g.size = id, g.memSize()
	g.srcLo, g.srcHi, g.srcMask = 0, math.MaxInt32, ^uint64(0)
	if g.kind != kindSuperPos {
		return true
	}
	// A graph without sources gets an empty range, so rulesOut rules
	// every page out, as a search of its sources would.
	g.srcLo, g.srcHi, g.srcMask = 0, -1, 0
	if len(g.srcs) > 0 {
		g.srcLo, g.srcHi = g.srcs[0], g.srcs[len(g.srcs)-1]
	}
	for _, v := range g.srcs {
		g.srcMask |= 1 << (uint32(v) & 63)
	}
	return true
}

// rulesOut reports whether the node's source summary shows that the page
// with local ID local (>= 0) is not a source of the node's graph, which
// then holds no link of it. It may say false for a page that is not a
// source — bits alias modulo 64 — but never says true for one that is.
func (n *cacheNode) rulesOut(local int32) bool {
	return local < n.srcLo || local > n.srcHi || n.srcMask&(1<<(uint32(local)&63)) == 0
}

// rulesOutAll reports whether the summary rules out every page of
// locals (ascending, not empty; lo, hi and mask summarize them as a
// summary does sources): whether the graph holds no link of any of them,
// as far as the summary can tell. The pages' own summary settles it for
// one page, and for many when the two summaries share no page.
func (n *cacheNode) rulesOutAll(locals []int32, lo, hi int32, mask uint64) bool {
	if hi < n.srcLo || lo > n.srcHi || mask&n.srcMask == 0 {
		return true
	}
	if len(locals) == 1 {
		return false
	}
	for _, local := range locals {
		if !n.rulesOut(local) {
			return false
		}
	}
	return true
}

// loading is what the slot of a claimed graph points to until its
// leader completes; the lock-free lookup reads it as a miss. One
// placeholder serves every slot, so a claim allocates nothing.
var loading = new(graph)

// inflightDecode is what the waiters of one in-progress decode block
// on. The first of them makes it, under the shard lock; g and err are
// written by the leader before done is closed, and waiters read them
// only after <-done, so the channel close publishes them.
type inflightDecode struct {
	id   GraphID
	done chan struct{}
	g    *graph
	err  error
}

// newGraphCache makes a cache for graph IDs [0, graphs).
func newGraphCache(budget int64, graphs int) *graphCache {
	c := &graphCache{slots: make([]atomic.Pointer[graph], graphs)}
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
// sweep, tests) retain a real replacement domain.
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

// lookup returns a resident graph and marks it used, or nil when the
// graph is not resident, without a lock and without counting: the caller
// owes countLookups one hit or miss for it.
func (c *graphCache) lookup(id GraphID) *graph {
	g := c.slots[id].Load()
	if g == nil || g == loading {
		return nil
	}
	touch(g)
	return g
}

// resident returns the graph resident as id, or nil, without marking it
// used and without counting: a whole-graph scan reads what the cache
// holds and leaves the replacement order as it found it.
func (c *graphCache) resident(id GraphID) *graph {
	if g := c.slots[id].Load(); g != loading {
		return g
	}
	return nil
}

// touch marks a resident graph used.
func touch(g *graph) {
	// Test before set: a hot entry's bit is nearly always set already,
	// and a load leaves its cache line shared between cores.
	if !g.ref.Load() {
		g.ref.Store(true)
	}
}

// countLookups records the outcomes of lookups made through lookup, on
// the counters of id's shard — any one graph among those looked up.
func (c *graphCache) countLookups(id GraphID, hits, misses int64) {
	s := c.shard(id)
	if hits != 0 {
		s.hits.Add(hits)
	}
	if misses != 0 {
		s.misses.Add(misses)
	}
}

// claim resolves a graph that a lookup reported missing without ever
// blocking. It returns the graph if a concurrent decode finished
// meanwhile, or makes the caller the decode leader (leader=true), who
// MUST call complete exactly once. When another goroutine is decoding
// the graph, a caller that will wait gets the decode's flight (it waits
// on fl.done itself, with cancellation), and one that will not — a span
// read extending over further misses — is told busy: no graph, no
// flight, not leader. Both a wait and a graph found resolved count as
// Coalesced, so every miss is attributable to exactly one load, wait, or
// reuse (the Loads+Coalesced >= Misses reconciliation the metrics
// assert); claim never counts a hit or miss — the lookup that preceded
// it already did.
func (c *graphCache) claim(id GraphID, wait bool) (g *graph, fl *inflightDecode, leader bool) {
	s := c.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	switch n := c.slots[id].Load(); {
	case n == nil:
		c.slots[id].Store(loading)
		s.claimed++
		return nil, nil, true
	case n != loading:
		s.stats.Coalesced++
		touch(n)
		return n, nil, false
	case !wait:
		return nil, nil, false
	}
	s.stats.Coalesced++
	return nil, s.flightLocked(id), false
}

// flightLocked returns the flight the waiters of id's in-progress
// decode share, making it for the first of them. Few decodes are waited
// on at once — at most one per goroutine inside the cache — so the list
// is searched, not indexed. Caller holds s.mu and has seen the slot
// loading.
func (s *cacheShard) flightLocked(id GraphID) *inflightDecode {
	for _, fl := range s.waited {
		if fl.id == id {
			return fl
		}
	}
	fl := &inflightDecode{id: id, done: make(chan struct{})}
	s.waited = append(s.waited, fl)
	return fl
}

// inflightCount reports decodes currently claimed but not completed —
// the gauge the shutdown and deadline tests use to assert no decode is
// orphaned.
func (c *graphCache) inflightCount() int64 {
	var n int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.claimed
		s.mu.Unlock()
	}
	return n
}

// complete finishes a claimed decode: on success the graph is admitted
// (evicting by second chance to stay within the shard budget) and the
// load counters — including the decoded-edge counter — are bumped under
// the shard lock; either way the slot stops saying loading, and every
// goroutine waiting on the decode is released with the same result. A
// completion of a graph nobody claimed changes nothing.
func (c *graphCache) complete(id GraphID, g *graph, err error) {
	s := c.shard(id)
	s.mu.Lock()
	if c.slots[id].Load() != loading {
		s.mu.Unlock()
		return
	}
	s.claimed--
	var fl *inflightDecode
	for i, w := range s.waited {
		if w.id == id {
			fl = w
			last := len(s.waited) - 1
			s.waited[i], s.waited[last] = s.waited[last], nil
			s.waited = s.waited[:last]
			break
		}
	}
	var resident *graph
	if err == nil {
		resident = c.admitLocked(s, id, g)
	}
	c.slots[id].Store(resident)
	s.mu.Unlock()
	if fl != nil {
		fl.g, fl.err = g, err
		close(fl.done)
	}
}

// admitLocked counts a freshly decoded graph and puts it in the ring,
// evicting to stay within the shard budget, and returns it for the
// caller to publish, or nil to leave the slot empty (a graph admitted
// before). Graphs larger than the budget are admitted alone (the query
// could not run otherwise) and evicted on the next insert. A new entry
// starts unreferenced: its loader already holds the graph, and only a
// later lookup earns it a second chance. Caller holds s.mu.
func (c *graphCache) admitLocked(s *cacheShard, id GraphID, g *graph) *graph {
	s.stats.Loads++
	s.decoded.Add(g.edgeCount())
	if g.kind == kindIntra {
		s.stats.IntraLoads++
	} else {
		s.stats.SuperLoads++
	}
	if !g.readyNode(id) {
		return nil
	}
	for s.used+g.size > s.budget && s.hand != nil {
		c.evictLocked(s, nil)
	}
	s.link(g, s.hand)
	return g
}

// link puts n into the ring just before at — the newest place, when at
// is the hand — or starts the ring when at is nil, and accounts for it.
// Caller holds s.mu.
func (s *cacheShard) link(n, at *graph) {
	if at == nil {
		n.next, n.prev = n, n
		s.hand = n
	} else {
		n.next, n.prev = at, at.prev
		n.prev.next, at.prev = n, n
	}
	s.used += n.size
	s.resident++
}

// unlink takes n out of the ring and the accounts; a hand that pointed
// at n moves on to the entry after it. Caller holds s.mu.
func (s *cacheShard) unlink(n *graph) {
	if n.next == n {
		s.hand = nil
	} else {
		n.prev.next, n.next.prev = n.next, n.prev
		if s.hand == n {
			s.hand = n.next
		}
	}
	s.used -= n.size
	s.resident--
}

// evictLocked runs the second-chance sweep from the hand until it has
// evicted one entry: an entry found referenced has its bit cleared and is
// passed over; the first found unreferenced goes, and the hand stops
// behind it. keep, if non-nil, is passed over whatever its bit says.
// The caller guarantees the ring holds an entry other than keep, so at
// most two turns of the ring find a victim. Caller holds s.mu.
func (c *graphCache) evictLocked(s *cacheShard, keep *graph) {
	n := s.hand
	for n == keep || n.ref.Load() {
		if n != keep {
			n.ref.Store(false)
		}
		n = n.next
	}
	c.slots[n.id].Store(nil)
	s.hand = n
	s.unlink(n)
	s.stats.Evictions++
}

// materialized records that a lookup decoded every list of the encoded
// graph from, giving to, and — if from is still what the cache holds for
// id — publishes to in its place: same position in the ring, marked
// used, at its own size, evicting others by second chance if the growth
// needs the room (an entry that outgrows the whole shard stays, alone).
// from is not touched, so a reader that got it from a lock-free lookup
// holds it whole. When from was evicted meanwhile, or another lookup's
// materialization got here first, the cache is left alone and to serves
// only its caller. Either way the decode happened, so it is counted.
func (c *graphCache) materialized(id GraphID, from, to *graph) {
	s := c.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Materialized++
	s.decoded.Add(to.edgeCount())
	if c.slots[id].Load() != from || !to.readyNode(id) {
		return // absent, being decoded again, already replaced, or to admitted before
	}
	to.ref.Store(true)
	s.link(to, from)
	if s.hand == from {
		s.hand = to
	}
	s.unlink(from)
	c.slots[id].Store(to)
	for s.used > s.budget && s.resident > 1 {
		c.evictLocked(s, to)
	}
}

// scanned records, on the counters of id's shard, the graphs a
// whole-graph scan read and decoded without admitting them — loads, by
// kind — and the list entries it decoded, of those and of the encoded
// graphs it found resident.
func (c *graphCache) scanned(id GraphID, intraLoads, superLoads, entries int64) {
	s := c.shard(id)
	s.mu.Lock()
	s.stats.Loads += intraLoads + superLoads
	s.stats.IntraLoads += intraLoads
	s.stats.SuperLoads += superLoads
	s.mu.Unlock()
	s.decoded.Add(entries)
}

// listDecoded records that a lookup decoded one list out of the
// encoded graph id, reading entries list entries to get to it.
func (c *graphCache) listDecoded(id GraphID, entries int) {
	s := c.shard(id)
	s.listDecodes.Add(1)
	s.decoded.Add(int64(entries))
}

// statsMerged sums the counters into one CacheStats (the Figure 12
// view).
func (c *graphCache) statsMerged() CacheStats {
	var out CacheStats
	for i := range c.shards {
		s := &c.shards[i]
		out.Hits += s.hits.Load()
		out.Misses += s.misses.Load()
		out.ListDecodes += s.listDecodes.Load()
		s.mu.Lock()
		out.Loads += s.stats.Loads
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
		n += c.shards[i].decoded.Load()
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
		n += s.resident
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
		s.resetStatsLocked()
		s.mu.Unlock()
	}
}

func (s *cacheShard) resetStatsLocked() {
	s.stats = CacheStats{}
	s.hits.Store(0)
	s.misses.Store(0)
	s.decoded.Store(0)
	s.listDecodes.Store(0)
}

// reset empties the cache and re-divides a new budget (used between
// buffer-size sweep points). Each shard's slots are cleared under its
// lock, by walking its ring, so no slot is left pointing at a graph the
// shard no longer accounts for. In-flight decodes are retained — a
// slot that says loading is in no ring — so their leaders complete into
// the fresh state, and their waiters are still released.
func (c *graphCache) reset(budget int64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for n := s.hand; n != nil; {
			c.slots[n.id].Store(nil)
			if n = n.next; n == s.hand {
				break
			}
		}
		s.budget = shardBudget(budget, i)
		s.used = 0
		s.hand = nil
		s.resident = 0
		s.resetStatsLocked()
		s.mu.Unlock()
	}
}
