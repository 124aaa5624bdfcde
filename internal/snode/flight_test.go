package snode

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
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

// TestParkedLeaderReleasesLookupsWaitingOnIt is the same through Out: a
// leader parked inside a decode by decodeFault, lookups of the same page
// blocked on the graph it holds — waiting plainly, waiting with the
// hedge timer armed (far enough out that it never fires: the rows must
// come from the leader's flight), and one whose context is cancelled
// while it waits. The cancelled one returns at once and leaves the
// flight to the others; releasing the leader releases them all, with
// the right rows, and no decode stays in flight.
func TestParkedLeaderReleasesLookupsWaitingOnIt(t *testing.T) {
	c, _ := buildOnce(t)
	for _, hedge := range []time.Duration{0, time.Hour} {
		r := openRep(t, 32<<20)
		r.SetHedge(hedge)
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
					t.Fatalf("hedge %v: %d lookups coalesced behind the leader, want %d", hedge, r.StatsExt().Cache.Coalesced, want)
				}
				time.Sleep(100 * time.Microsecond)
			}
		}

		leaderDone := make(chan error, 1)
		go lookup(context.Background(), leaderDone)
		parked(0)
		if n := waitedFlights(r.cache); n != 0 || r.InflightDecodes() == 0 {
			t.Fatalf("hedge %v: a parked leader nobody waits on: %d flights, %d decodes in flight", hedge, n, r.InflightDecodes())
		}

		ctx, cancel := context.WithCancel(context.Background())
		cancelledDone := make(chan error, 1)
		go lookup(ctx, cancelledDone)
		parked(1)
		if n := waitedFlights(r.cache); n != 1 {
			t.Fatalf("hedge %v: %d flights with one lookup waiting", hedge, n)
		}
		cancel()
		select {
		case err := <-cancelledDone:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("hedge %v: cancelled lookup returned %v", hedge, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("hedge %v: a cancelled lookup stayed blocked behind the parked leader", hedge)
		}

		const waiters = 4
		waitersDone := make(chan error, waiters)
		for w := 0; w < waiters; w++ {
			go lookup(context.Background(), waitersDone)
		}
		parked(1 + waiters)
		if n := waitedFlights(r.cache); n != 1 {
			t.Fatalf("hedge %v: %d flights for %d lookups waiting on one graph", hedge, n, waiters)
		}
		select {
		case err := <-waitersDone:
			t.Fatalf("hedge %v: a lookup got past the parked leader (err=%v)", hedge, err)
		default:
		}

		close(gate)
		for _, done := range []chan error{leaderDone, waitersDone, waitersDone, waitersDone, waitersDone} {
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("hedge %v: lookup after the release: %v", hedge, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("hedge %v: a lookup stayed blocked after the leader was released", hedge)
			}
		}
		if n, fl := r.InflightDecodes(), waitedFlights(r.cache); n != 0 || fl != 0 {
			t.Fatalf("hedge %v: %d decodes in flight and %d flights after every lookup returned", hedge, n, fl)
		}
		if launched, _, _ := r.HedgeStats(); launched != 0 {
			t.Fatalf("hedge %v: %d hedges launched; the rows were to come from the leader's flight", hedge, launched)
		}
		if got := victimDecodes.Load(); got != 1 {
			t.Fatalf("hedge %v: the graph everyone waited for was decoded %d times", hedge, got)
		}
	}
}
