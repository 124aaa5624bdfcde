package snode

import (
	"math/rand"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"snode/internal/iosim"
	"snode/internal/randutil"
	"snode/internal/refenc"
	"snode/internal/synth"
	"snode/internal/webgraph"
)

// Every graph is served in two states — encoded (a positive superedge
// graph with its sources decoded), then the whole graph — and these
// tests pin that no lookup can tell: rows equal the source graph's under
// every cache budget, the cache's byte accounting survives
// the replacement of one state by the other, and a damaged list section
// fails exactly the lookups that need it.

// sourcesFirstBudgets are the cache budgets the equivalence sweep runs
// at: nothing stays resident, a few entries do (so a sources-only entry
// is as likely to be evicted as materialized), everything does.
var sourcesFirstBudgets = []int64{0, 3 << 10, 8 << 20}

// checkRowsAgainstCSR reads every page of c through r, unfiltered and
// under a domain filter and a page-set filter, and compares with the
// CSR rows.
func checkRowsAgainstCSR(t *testing.T, c *webgraph.Corpus, r *Representation) {
	t.Helper()
	n := int32(c.Graph.NumPages())
	rng := rand.New(rand.NewSource(int64(n)))
	var buf []webgraph.PageID
	for p := int32(0); p < n; p++ {
		want := c.Graph.Out(p)
		var err error
		if buf, err = r.Out(p, buf[:0]); err != nil {
			t.Fatalf("Out(%d): %v", p, err)
		}
		if got := sortedCopy(buf); !slices.Equal(got, want) {
			t.Fatalf("Out(%d) = %v, want %v", p, got, want)
		}

		d := c.Pages[rng.Int31n(n)].Domain
		var page []webgraph.PageID
		if len(want) > 0 {
			page = append(page, want[rng.Intn(len(want))])
		}
		f := filterOf(c, []string{d}, page...)
		var wantF []webgraph.PageID
		for _, q := range want {
			if c.Pages[q].Domain == d || slices.Contains(page, q) {
				wantF = append(wantF, q)
			}
		}
		if buf, err = r.OutFiltered(p, f, buf[:0]); err != nil {
			t.Fatalf("OutFiltered(%d): %v", p, err)
		}
		if got := sortedCopy(buf); !slices.Equal(got, wantF) {
			t.Fatalf("OutFiltered(%d, %v) = %v, want %v", p, f, got, wantF)
		}
	}
}

// sweepBudgets opens the artifact in dir at every budget and checks
// every row, the cache invariants afterwards, and that the sweep did go
// through both states of a superedge entry.
func sweepBudgets(t *testing.T, c *webgraph.Corpus, dir string) {
	t.Helper()
	for _, budget := range sourcesFirstBudgets {
		r, err := Open(dir, budget, iosim.Model2002())
		if err != nil {
			t.Fatal(err)
		}
		checkRowsAgainstCSR(t, c, r)
		checkShardInvariants(t, r.cache)
		st := r.StatsExt().Cache
		if r.m.Stats.PositiveSuperedges > 0 && st.Materialized == 0 {
			t.Errorf("budget %d: %d positive superedge graphs and no materialization", budget, r.m.Stats.PositiveSuperedges)
		}
		if st.Materialized > st.Hits+st.Misses {
			t.Errorf("budget %d: %d materializations from %d lookups", budget, st.Materialized, st.Hits+st.Misses)
		}
		if err := r.Verify(); err != nil {
			t.Errorf("budget %d: Verify: %v", budget, err)
		}
		checkShardInvariants(t, r.cache)
		r.Close()
	}
}

func TestSourcesFirstRowsEqualCSR(t *testing.T) { t.Run(paperFormat, testSourcesFirstRowsEqualCSR) }

func testSourcesFirstRowsEqualCSR(t *testing.T) {
	crawl, err := synth.Generate(synth.DefaultConfig(400))
	if err != nil {
		t.Fatal(err)
	}
	sweepBudgets(t, crawl.Corpus, buildTestRep(t, 400))
}

func TestSourcesFirstRowsEqualCSRRandomGraphs(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := randutil.NewRNG(seed)
		c := randomCorpus(rng)
		cfg := randomConfig(rng)
		dir := t.TempDir()
		if _, err := Build(c, cfg, dir); err != nil {
			t.Fatalf("seed %d: build: %v", seed, err)
		}
		sweepBudgets(t, c, dir)
	}
}

// TestVerifyLeavesMaterializedEntries pins what the serving benchmark's
// pre-warm relies on: after Verify under a budget that holds the whole
// graph, every graph is resident decoded whole — each loaded once,
// decoded straight to its whole form, and none materialized — so the
// lookups that follow load and decode nothing. Verify under a budget
// that holds next to nothing passes too, first.
func TestVerifyLeavesMaterializedEntries(t *testing.T) {
	c, _ := buildOnce(t)
	r := openRep(t, 256<<10)
	if err := r.Verify(); err != nil {
		t.Fatalf("Verify under a 256 KiB budget: %v", err)
	}
	if st := r.StatsExt().Cache; st.Evictions == 0 {
		t.Fatalf("the small budget held the whole graph: %+v", st)
	}
	r.ResetCache(64 << 20)
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
	for gid := range r.m.Directory {
		g, ok := r.cache.slotGraph(GraphID(gid))
		if !ok {
			t.Fatalf("graph %d not resident after Verify", gid)
		}
		if !g.whole {
			t.Fatalf("graph %d resident with its lists still encoded after Verify", gid)
		}
	}
	if st := r.StatsExt().Cache; st.Loads != int64(len(r.m.Directory)) || st.Materialized != 0 || st.ListDecodes != 0 || st.Evictions != 0 {
		t.Fatalf("Verify: %d loads, %d materializations and %d list decodes for %d graphs, %d evictions", st.Loads, st.Materialized, st.ListDecodes, len(r.m.Directory), st.Evictions)
	}
	if got := r.DecodedEdges(); got < r.m.NumEdges/2 {
		t.Fatalf("DecodedEdges = %d after decoding a graph of %d links", got, r.m.NumEdges)
	}
	r.ResetStats()
	var buf []webgraph.PageID
	for p := int32(0); int(p) < c.Graph.NumPages(); p += 3 {
		var err error
		if buf, err = r.Out(p, buf[:0]); err != nil {
			t.Fatal(err)
		}
	}
	if st := r.StatsExt().Cache; st.Loads != 0 || st.Materialized != 0 || st.ListDecodes != 0 || st.Misses != 0 || r.DecodedEdges() != 0 {
		t.Fatalf("lookups after Verify decoded again: %+v, %d edges", st, r.DecodedEdges())
	}
}

// TestSourcesOnlyLoadDecodesNoLists pins the counters of one cold
// lookup and of the same lookup warm. Cold, every graph it consults is
// loaded once and left encoded, nothing is materialized, and each graph
// that holds a list of the page — the intranode graph, the superedge
// graphs that list the page as a source — has that one list decoded:
// DecodedEdges counts the entries of each such list and of the lists
// before it, which the window strategy decodes on the way. Warm, nothing
// is read or loaded, and exactly those graphs are decoded whole.
func TestSourcesOnlyLoadDecodesNoLists(t *testing.T) {
	c, _ := buildOnce(t)
	r := openRep(t, 64<<20)
	page, need := widestPage(t, c, r)
	local := r.m.Perm[page] - r.m.SnBase[r.snOf(r.m.Perm[page])]

	var wantLists, wantPrefixEdges, wantWholeEdges int64
	for _, gid := range need {
		e := &r.m.Directory[gid]
		buf := make([]byte, e.NumBytes)
		if _, err := r.files[e.File].ReadAt(buf, e.Offset); err != nil {
			t.Fatal(err)
		}
		g, err := r.decodePayload(e, buf)
		if err != nil {
			t.Fatal(err)
		}
		k := int(local)
		if g.kind == kindSuperPos {
			k = findSource(g.srcs, local)
		}
		if k < 0 {
			continue
		}
		wantLists++
		wantPrefixEdges += int64(g.lists.Off[k+1])
		wantWholeEdges += g.edgeCount()
	}
	if wantLists <= 1 || wantLists == int64(len(need)) {
		t.Fatalf("page %d has a list in %d of %d graphs: the test needs superedge graphs of each sort", page, wantLists, len(need))
	}

	r.ResetCache(64 << 20)
	rows, err := r.Out(page, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertPageRows(t, c, page, rows)
	st := r.StatsExt().Cache
	if st.Loads != int64(len(need)) || st.Materialized != 0 || st.ListDecodes != wantLists {
		t.Fatalf("cold lookup: %d loads, %d materializations, %d list decodes; want %d, 0 and %d", st.Loads, st.Materialized, st.ListDecodes, len(need), wantLists)
	}
	if got := r.DecodedEdges(); got != wantPrefixEdges {
		t.Fatalf("cold lookup: DecodedEdges = %d, want %d (each list the page has, and the lists before it)", got, wantPrefixEdges)
	}
	io := r.StatsExt().IO

	// The same page again: every entry is resident, and each that holds
	// a list of the page is decoded whole. Nothing is read.
	if rows, err = r.Out(page, rows[:0]); err != nil {
		t.Fatal(err)
	}
	assertPageRows(t, c, page, rows)
	st2 := r.StatsExt().Cache
	if st2.Loads != st.Loads || st2.Materialized != wantLists || st2.ListDecodes != wantLists || r.DecodedEdges() != wantPrefixEdges+wantWholeEdges {
		t.Fatalf("warm lookup: %+v, %d decoded edges; want %d materializations and %d decoded edges", st2, r.DecodedEdges(), wantLists, wantPrefixEdges+wantWholeEdges)
	}
	if io2 := r.StatsExt().IO; io2 != io {
		t.Fatalf("warm lookup read from disk: %+v, was %+v", io2, io)
	}

	// And once more: what the page needs is whole, and nothing changes.
	if rows, err = r.Out(page, rows[:0]); err != nil {
		t.Fatal(err)
	}
	assertPageRows(t, c, page, rows)
	if st3 := r.StatsExt().Cache; st3.Loads != st2.Loads || st3.Materialized != st2.Materialized || st3.ListDecodes != st2.ListDecodes {
		t.Fatalf("third lookup decoded again: %+v, was %+v", st3, st2)
	}
	checkShardInvariants(t, r.cache)
}

// sourcesEntry and wholeEntry build the two states of one superedge
// graph for the cache-level tests, sized by their argument.
func sourcesEntry(nSrcs, encBytes int) *graph {
	return &graph{srcs: make([]int32, nSrcs), buf: make([]byte, encBytes), kind: kindSuperPos, numLists: int32(nSrcs)}
}

func wholeEntry(from *graph, edgesPerList int) *graph {
	lists := refenc.Lists{Off: make([]int32, len(from.srcs)+1), IDs: make([]int32, len(from.srcs)*edgesPerList)}
	for i := range lists.Off {
		lists.Off[i] = int32(i * edgesPerList)
	}
	return &graph{srcs: from.srcs, lists: lists, kind: kindSuperPos, whole: true, numLists: from.numLists}
}

func insertEntry(t *testing.T, c *graphCache, id GraphID, g *graph) {
	t.Helper()
	if _, _, leader := c.claim(id, true); !leader {
		t.Fatalf("graph %d: expected to lead the decode", id)
	}
	c.complete(id, g, nil)
}

// TestMaterializedReplacesAndReaccounts walks the replacement through
// its cases on one shard: the swap re-accounts the size and is neither
// a load nor an eviction; growth evicts the oldest untouched
// neighbours; a stale sources-only entry is counted but not admitted;
// and an entry that outgrows the shard is resident alone.
func TestMaterializedReplacesAndReaccounts(t *testing.T) {
	c, target, ids := oneShardCache(4000, 4)
	a, b, x := sourcesEntry(10, 200), sourcesEntry(10, 200), sourcesEntry(10, 200)
	insertEntry(t, c, ids[0], a)
	insertEntry(t, c, ids[1], b)
	insertEntry(t, c, ids[2], x)
	if got, want := target.used, 3*a.memSize(); got != want {
		t.Fatalf("three sources-only entries use %d bytes, want %d", got, want)
	}
	if c.decodedEdges() != 0 {
		t.Fatalf("sources-only inserts counted %d decoded edges", c.decodedEdges())
	}

	// Swap in place: b grows by a little, nothing else moves.
	bFull := wholeEntry(b, 5)
	c.materialized(ids[1], b, bFull)
	checkShardInvariants(t, c)
	if got, want := target.used, 2*a.memSize()+bFull.memSize(); got != want {
		t.Fatalf("after the swap the shard uses %d bytes, want %d", got, want)
	}
	if g, ok := c.get(ids[1]); !ok || g != bFull {
		t.Fatalf("lookup after the swap returned %p, want the materialized graph", g)
	}
	st := c.statsMerged()
	if st.Materialized != 1 || st.Loads != 3 || st.Evictions != 0 || c.decodedEdges() != bFull.edgeCount() {
		t.Fatalf("after the swap: %+v, %d decoded edges; want 1 materialization, 3 loads, 0 evictions, %d edges", st, c.decodedEdges(), bFull.edgeCount())
	}

	// A second materialization of the entry b already replaced: counted,
	// not admitted.
	c.materialized(ids[1], b, wholeEntry(b, 5))
	if g, _ := c.get(ids[1]); g != bFull {
		t.Fatal("a stale materialization displaced the resident graph")
	}
	if st := c.statsMerged(); st.Materialized != 2 {
		t.Fatalf("stale materialization not counted: %+v", st)
	}

	// Growth past the budget evicts by second chance: a is the oldest
	// and untouched (b was touched by get, x is what grew).
	xFull := wholeEntry(x, 85) // 10 lists of 85 edges: 3484 of the shard's 4000 bytes
	c.materialized(ids[2], x, xFull)
	checkShardInvariants(t, c)
	if _, ok := c.get(ids[0]); ok {
		t.Fatal("oldest untouched entry survived a materialization that needed its room")
	}
	if _, ok := c.get(ids[1]); !ok {
		t.Fatal("touched entry evicted before the untouched one")
	}
	if st := c.statsMerged(); st.Evictions != 1 {
		t.Fatalf("%d evictions, want 1", st.Evictions)
	}

	// An entry that was evicted before its lists came back is not
	// re-admitted.
	c.materialized(ids[0], a, wholeEntry(a, 1))
	if _, ok := c.get(ids[0]); ok {
		t.Fatal("materializing an evicted entry re-admitted it")
	}

	// Outgrowing the whole shard: admitted alone. (a, admitted once,
	// would not be admitted again: a fresh entry of its size.)
	d := sourcesEntry(10, 200)
	insertEntry(t, c, ids[3], d)
	huge := wholeEntry(d, 1000)
	c.materialized(ids[3], d, huge)
	checkShardInvariants(t, c)
	if target.resident != 1 || target.used != huge.memSize() {
		t.Fatalf("oversized materialization: %d entries, %d bytes; want it alone at %d", target.resident, target.used, huge.memSize())
	}
}

// TestMaterializedUnderConcurrency interleaves loads, lookups and
// materializations of the same graphs from 16 goroutines under a budget
// that keeps evicting, then checks the accounting.
func TestMaterializedUnderConcurrency(t *testing.T) {
	c := newGraphCache(48<<10, 200)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 7))
			for op := 0; op < 3000; op++ {
				id := GraphID(rng.Intn(200))
				g, ok := c.get(id)
				if !ok {
					var fl *inflightDecode
					var leader bool
					g, fl, leader = c.claim(id, true)
					switch {
					case leader:
						g = sourcesEntry(4+int(id)%40, 32+int(id)*13%900)
						c.complete(id, g, nil)
					case fl != nil:
						<-fl.done
						g = fl.g
					}
				}
				if g != nil && !g.whole && rng.Intn(3) == 0 {
					c.materialized(id, g, wholeEntry(g, 1+int(id)%30))
				}
			}
		}(w)
	}
	wg.Wait()
	checkShardInvariants(t, c)
	st := c.statsMerged()
	if st.Materialized == 0 || st.Evictions == 0 {
		t.Fatalf("the interleaving exercised nothing: %+v", st)
	}
}

// TestMaterializedRacesLockFreeReaders replaces a sources-only entry by
// the whole graph while readers look the same graph up without a lock.
// A reader must get one of the two graphs, whole — the entry's node is
// never edited, a new one is published — and once every reader has seen
// the replacement the shard's accounting must add up, including the
// neighbour the growth evicted under the readers' feet. Run under -race
// this is what keeps a write to a published node out of the cache.
func TestMaterializedRacesLockFreeReaders(t *testing.T) {
	const readers, edgesPerList = 4, 85
	c, target, ids := oneShardCache(4000, 2)
	for round := 0; round < 200; round++ {
		c.reset(int64(cacheShards) * 4000)
		putGraph(t, c, ids[0], 600) // evicted when the graph beside it grows
		from := sourcesEntry(10, 200)
		insertEntry(t, c, ids[1], from)
		to := wholeEntry(from, edgesPerList) // 3484 of the shard's 4000 bytes

		var wg sync.WaitGroup
		for w := 0; w < readers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					c.get(ids[0]) // resident or evicted, either is fine
					g, ok := c.get(ids[1])
					if !ok {
						t.Error("the graph being materialized went missing")
						return
					}
					if !g.whole {
						if g != from {
							t.Error("lookup returned a sources-only entry nobody inserted")
							return
						}
						continue
					}
					if g != to || g.lists.Len() != len(g.srcs) || len(g.lists.At(g.lists.Len()-1)) != edgesPerList {
						t.Error("lookup returned a torn materialized graph")
					}
					return // seen the replacement: done
				}
			}()
		}
		c.materialized(ids[1], from, to)
		wg.Wait()
		if t.Failed() {
			return
		}
		checkShardInvariants(t, c)
		if target.resident != 1 || target.used != to.memSize() {
			t.Fatalf("round %d: %d entries, %d bytes; want the materialized graph alone at %d",
				round, target.resident, target.used, to.memSize())
		}
	}
}

// corruptListSection damages the list section of graph gid in a copy of
// the artifact, leaving its sources intact: the bytes after the last
// source bit are overwritten with a pattern the list decoder must
// reject (zero bits end a bit-coded stream in an overrun).
func corruptListSection(t *testing.T, src string, r *Representation, gid GraphID) string {
	t.Helper()
	e := &r.m.Directory[gid]
	payload := make([]byte, e.NumBytes)
	if _, err := r.files[e.File].ReadAt(payload, e.Offset); err != nil {
		t.Fatal(err)
	}
	niSize := r.m.SnBase[e.I+1] - r.m.SnBase[e.I]
	_, pos, err := decodeSuperPosSources(payload, int(e.NumLists), niSize, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := pos >> 3
	if pos&7 > 0 {
		payload[start] &^= 0xFF >> uint(pos&7)
		start++
	}
	for i := start; i < len(payload); i++ {
		payload[i] = 0
	}
	return corruptCopy(t, src, func(d string) {
		f, err := os.OpenFile(indexFileName(d, e.File), os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteAt(payload, e.Offset); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCorruptListSectionFailsOnlyItsReaders damages one positive
// superedge graph's lists. The graph still loads (its
// sources are intact), pages that are not among its sources are served
// correctly, the first page that is fails with the list decoder's
// error — on every attempt — and Verify fails.
func TestCorruptListSectionFailsOnlyItsReaders(t *testing.T) {
	t.Run(paperFormat, testCorruptListSectionFailsOnlyItsReaders)
}

func testCorruptListSectionFailsOnlyItsReaders(t *testing.T) {
	crawl, err := synth.Generate(synth.DefaultConfig(400))
	if err != nil {
		t.Fatal(err)
	}
	c := crawl.Corpus
	src := buildTestRep(t, 400)
	clean, err := Open(src, 1<<20, iosim.Model2002())
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	// The victim: a positive superedge graph whose supernode has
	// pages on both sides of its source list.
	victim := GraphID(-1)
	var srcs []int32
	for gid := range clean.m.Directory {
		e := &clean.m.Directory[gid]
		niSize := clean.m.SnBase[e.I+1] - clean.m.SnBase[e.I]
		if e.Kind == kindSuperPos && e.NumBytes > 8 && e.NumLists < niSize {
			g, err := loadWhole(clean, GraphID(gid))
			if err != nil {
				t.Fatal(err)
			}
			victim, srcs = GraphID(gid), g.srcs
			break
		}
	}
	if victim < 0 {
		t.Skip("no positive superedge graph with a non-source page")
	}
	e := &clean.m.Directory[victim]
	var source, bystander webgraph.PageID = -1, -1
	for local := int32(0); local < clean.m.SnBase[e.I+1]-clean.m.SnBase[e.I]; local++ {
		p := clean.m.Inv[clean.m.SnBase[e.I]+local]
		if findSource(srcs, local) >= 0 {
			source = p
		} else {
			bystander = p
		}
	}

	r, err := Open(corruptListSection(t, src, clean, victim), 1<<20, iosim.Model2002())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rows, err := r.Out(bystander, nil)
	if err != nil {
		t.Fatalf("page %d is not a source of the damaged graph, yet: %v", bystander, err)
	}
	assertPageRows(t, c, bystander, rows)
	for attempt := 0; attempt < 2; attempt++ {
		if _, err := r.Out(source, nil); err == nil || !strings.Contains(err.Error(), "superPos lists") {
			t.Fatalf("attempt %d: page %d reads the damaged lists: error %v, want the superPos lists decode error", attempt, source, err)
		}
	}
	if rows, err = r.Out(bystander, rows[:0]); err != nil {
		t.Fatalf("bystander page after the failed materialization: %v", err)
	}
	assertPageRows(t, c, bystander, rows)
	if g, ok := r.cache.slotGraph(victim); !ok {
		t.Fatal("the damaged graph's sources-only entry did not stay resident")
	} else if g.whole {
		t.Fatal("the damaged graph is resident whole: its lists cannot have decoded")
	}
	checkShardInvariants(t, r.cache)
	if err := r.Verify(); err == nil || !strings.Contains(err.Error(), "superPos lists") {
		t.Fatalf("Verify on the damaged artifact: %v, want the superPos lists decode error", err)
	}
	if n := r.InflightDecodes(); n != 0 {
		t.Fatalf("%d decodes left in flight", n)
	}
}

// TestSourcesOnlyEntryOwnsItsBytes pins that a cached encoded entry, of
// any kind, does not alias the read buffer it was decoded from: the
// buffer goes back to a pool and is overwritten by the next read.
func TestSourcesOnlyEntryOwnsItsBytes(t *testing.T) {
	dir := buildTestRep(t, 400)
	r, err := Open(dir, 1<<20, iosim.Model2002())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for gid := range r.m.Directory {
		e := &r.m.Directory[gid]
		buf := make([]byte, e.NumBytes)
		if _, err := r.files[e.File].ReadAt(buf, e.Offset); err != nil {
			t.Fatal(err)
		}
		g, err := r.decode(GraphID(gid), buf, false)
		if err != nil {
			t.Fatal(err)
		}
		want, err := r.decodePayload(e, buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 0xA5
		}
		got, err := g.materialize()
		if err != nil {
			t.Fatalf("graph %d: materialize after its read buffer was reused: %v", gid, err)
		}
		if !sameGraph(got, want) {
			t.Fatalf("graph %d: materialized lists changed with the read buffer", gid)
		}
	}
}
