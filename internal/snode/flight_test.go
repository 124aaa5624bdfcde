package snode

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"snode/internal/webgraph"
)

// A claim publishes "loading" in the graph's slot and allocates nothing;
// the flight that waiters block on is made by the first of them. These
// tests pin both halves: no flight exists until someone has to wait,
// and the one made then releases every waiter, however it waits.

// waitedFlights counts the flights the cache holds for waiters.
func waitedFlights(c *graphCache) int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.waited)
		s.mu.Unlock()
	}
	return n
}

// TestFlightIsMadeByItsFirstWaiter drives the protocol at the cache:
// claims, a span extension that finds the graph busy, waiters on two
// graphs of one shard, a successful and a failed completion.
func TestFlightIsMadeByItsFirstWaiter(t *testing.T) {
	c, _, ids := oneShardCache(1<<20, 3)
	a, b := ids[0], ids[1]
	for _, id := range []GraphID{a, b} {
		if _, fl, leader := c.claimNoWait(id); !leader || fl != nil {
			t.Fatalf("graph %d: claim of an absent graph gave leader=%v, flight %v", id, leader, fl)
		}
	}
	if _, ok := c.get(a); ok {
		t.Fatal("a graph being decoded read as resident")
	}
	if _, state := c.tryClaim(a); state != claimBusy {
		t.Fatalf("tryClaim of a graph being decoded: state %d, want claimBusy", state)
	}
	if n := waitedFlights(c); n != 0 || c.inflightCount() != 2 {
		t.Fatalf("two claims nobody waits on: %d flights, %d in flight; want 0 and 2", n, c.inflightCount())
	}
	claimAllocs := testing.AllocsPerRun(100, func() {
		if _, state := c.tryClaim(ids[2]); state != claimLeader {
			t.Fatalf("tryClaim: state %d, want claimLeader", state)
		}
		c.complete(ids[2], nil, kindIntra, errDecodeAbandoned)
	})
	if claimAllocs != 0 {
		t.Errorf("an uncontended claim and its completion allocate %v times, want 0", claimAllocs)
	}

	const waiters = 8
	type result struct {
		g   decodedGraph
		err error
	}
	results := map[GraphID]chan result{a: make(chan result, waiters), b: make(chan result, waiters)}
	for _, id := range []GraphID{a, b} {
		var shared *inflightDecode
		for w := 0; w < waiters; w++ {
			g, fl, leader := c.claimNoWait(id)
			if leader || g != nil || fl == nil {
				t.Fatalf("graph %d waiter %d: leader=%v graph=%v flight=%v; want the flight", id, w, leader, g, fl)
			}
			if shared == nil {
				shared = fl
			} else if fl != shared {
				t.Fatalf("graph %d waiter %d got a flight of its own", id, w)
			}
			out := results[id]
			go func() {
				<-fl.done
				out <- result{fl.g, fl.err}
			}()
		}
	}
	if n := waitedFlights(c); n != 2 {
		t.Fatalf("%d flights for two waited graphs", n)
	}

	// a succeeds: its waiters, and only they, are released with the graph.
	ga := &stubGraph{size: 100, edges: 7}
	c.complete(a, ga, kindIntra, nil)
	for w := 0; w < waiters; w++ {
		if res := <-results[a]; res.g != decodedGraph(ga) || res.err != nil {
			t.Fatalf("waiter on a released with %v, %v; want the leader's graph", res.g, res.err)
		}
	}
	select {
	case res := <-results[b]:
		t.Fatalf("completing a released a waiter on b with %v, %v", res.g, res.err)
	default:
	}
	if g, ok := c.get(a); !ok || g != decodedGraph(ga) {
		t.Fatal("the completed graph is not resident")
	}

	// b fails: its waiters get the error, nothing is admitted, and the
	// next miss leads a fresh decode.
	failed := errors.New("decode failed")
	c.complete(b, nil, kindIntra, failed)
	for w := 0; w < waiters; w++ {
		if res := <-results[b]; res.g != nil || res.err != failed {
			t.Fatalf("waiter on b released with %v, %v; want the leader's error", res.g, res.err)
		}
	}
	if n := waitedFlights(c); n != 0 || c.inflightCount() != 0 {
		t.Fatalf("after both completions: %d flights, %d in flight", n, c.inflightCount())
	}
	if _, _, leader := c.claimNoWait(b); !leader {
		t.Fatal("a failed decode left its graph unclaimable")
	}
	c.complete(b, &stubGraph{size: 100}, kindIntra, nil)
	st := c.statsMerged()
	if st.Loads != 2 || st.Coalesced != 2*waiters {
		t.Fatalf("%d loads, %d coalesced; want 2 and %d", st.Loads, st.Coalesced, 2*waiters)
	}
	checkShardInvariants(t, c)
}

// widestPage returns the page whose supernode owns the most graphs —
// the widest span, i.e. the most coalescing opportunities.
func widestPage(t *testing.T, c *webgraph.Corpus, r *Representation) (webgraph.PageID, []GraphID) {
	t.Helper()
	var page webgraph.PageID
	best := -1
	for p := int32(0); int(p) < c.Graph.NumPages(); p += 67 {
		if n := len(neededGraphsOf(r, p)); n > best {
			best, page = n, p
		}
	}
	if best < 2 {
		t.Skipf("no supernode wide enough to coalesce on (best %d graphs)", best)
	}
	return page, neededGraphsOf(r, page)
}

// assertPageRows compares one lookup's rows against the source graph.
func assertPageRows(t *testing.T, c *webgraph.Corpus, p webgraph.PageID, got []webgraph.PageID) {
	t.Helper()
	gs := sortedCopy(got)
	want := c.Graph.Out(p)
	if len(gs) != len(want) {
		t.Fatalf("page %d: %d targets, want %d", p, len(gs), len(want))
	}
	for i := range want {
		if gs[i] != want[i] {
			t.Fatalf("page %d target %d: got %d, want %d", p, i, gs[i], want[i])
		}
	}
}

// TestParkedLeaderReleasesLookupsWaitingOnIt is the same through Out: a
// leader parked inside a decode by decodeFault, lookups of the same page
// blocked on the graph it holds, and one whose context is cancelled
// while it waits. The cancelled one returns at once and leaves the
// flight to the others; releasing the leader releases them all, with
// the right rows from the leader's one decode, and no decode stays in
// flight.
func TestParkedLeaderReleasesLookupsWaitingOnIt(t *testing.T) {
	c, _ := buildOnce(t)
	r := openRep(t, 32<<20)
	page, need := widestPage(t, c, r)
	victim := need[len(need)/2]
	gate := make(chan struct{})
	var victimDecodes atomic.Int32
	r.decodeFault = func(gid GraphID) error {
		if gid == victim && victimDecodes.Add(1) == 1 {
			<-gate
		}
		return nil
	}
	lookup := func(ctx context.Context, done chan<- error) {
		rows, err := r.OutFilteredCtx(ctx, page, nil, nil)
		if err == nil {
			assertPageRows(t, c, page, rows)
		}
		done <- err
	}
	// parked waits until want lookups are blocked behind the leader:
	// each finds the graphs before the victim resident and coalesces
	// exactly once, on the victim, before it blocks.
	parked := func(want int64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for victimDecodes.Load() == 0 || r.StatsExt().Cache.Coalesced < want {
			if time.Now().After(deadline) {
				t.Fatalf("%d lookups coalesced behind the leader, want %d", r.StatsExt().Cache.Coalesced, want)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	leaderDone := make(chan error, 1)
	go lookup(context.Background(), leaderDone)
	parked(0)
	if n := waitedFlights(r.cache); n != 0 || r.InflightDecodes() == 0 {
		t.Fatalf("a parked leader nobody waits on: %d flights, %d decodes in flight", n, r.InflightDecodes())
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancelledDone := make(chan error, 1)
	go lookup(ctx, cancelledDone)
	parked(1)
	if n := waitedFlights(r.cache); n != 1 {
		t.Fatalf("%d flights with one lookup waiting", n)
	}
	cancel()
	select {
	case err := <-cancelledDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled lookup returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a cancelled lookup stayed blocked behind the parked leader")
	}

	const waiters = 4
	waitersDone := make(chan error, waiters)
	for w := 0; w < waiters; w++ {
		go lookup(context.Background(), waitersDone)
	}
	parked(1 + waiters)
	if n := waitedFlights(r.cache); n != 1 {
		t.Fatalf("%d flights for %d lookups waiting on one graph", n, waiters)
	}
	select {
	case err := <-waitersDone:
		t.Fatalf("a lookup got past the parked leader (err=%v)", err)
	default:
	}

	close(gate)
	for _, done := range []chan error{leaderDone, waitersDone, waitersDone, waitersDone, waitersDone} {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("lookup after the release: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a lookup stayed blocked after the leader was released")
		}
	}
	if n, fl := r.InflightDecodes(), waitedFlights(r.cache); n != 0 || fl != 0 {
		t.Fatalf("%d decodes in flight and %d flights after every lookup returned", n, fl)
	}
	// Waiters get the leader's one decode: none reads the graph itself.
	if got := victimDecodes.Load(); got != 1 {
		t.Fatalf("the graph everyone waited for was decoded %d times", got)
	}
}

// TestDeadlineCancelsMidBatch is the reader-level deadline-propagation
// regression: a batched lookup whose ctx deadline fires mid-flight must
// return context.DeadlineExceeded promptly — even though the paced
// iosim layer is mid-stall (the interruptible stall wakes on ctx) —
// and leave no in-flight decode claimed and no goroutine parked.
func TestDeadlineCancelsMidBatch(t *testing.T) {
	c, _ := buildOnce(t)
	r := openRep(t, 64<<10) // thrashing budget: every lookup pays modeled I/O
	r.SetPace(1.0)          // full 2002-disk stalls: ~9ms+ per cold span
	defer r.SetPace(0)
	baseline := snodeGoroutines()

	pages := make([]webgraph.PageID, 0, 600)
	for p := int32(0); int(p) < c.Graph.NumPages() && len(pages) < cap(pages); p += 7 {
		pages = append(pages, p)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := lookupAll(ctx, r, pages, 2)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("batched OutFilteredCtx returned %v, want DeadlineExceeded", err)
	}
	// 600 cold lookups over 2 workers at ≥9ms modeled each would be
	// seconds; a propagated deadline must cut that to ~the deadline plus
	// one in-flight item. 2s of slack absorbs scheduler noise.
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v; deadline did not propagate into the reader", elapsed)
	}
	if n := r.InflightDecodes(); n != 0 {
		t.Fatalf("InflightDecodes = %d after cancelled batch — orphaned decode", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := snodeGoroutines(); n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after cancelled batch: %d parked in snode code, baseline %d",
				snodeGoroutines(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The representation must still serve normally after the cancelled
	// batch (no poisoned cache state).
	rows, err := r.Out(pages[0], nil)
	if err != nil {
		t.Fatalf("read after cancelled batch: %v", err)
	}
	assertPageRows(t, c, pages[0], rows)
}
