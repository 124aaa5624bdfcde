package snode

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snode/internal/webgraph"
)

// widestPage returns the page whose supernode owns the most graphs —
// the widest span, i.e. the most coalescing/hedging opportunities.
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

// TestHedgedReadBeatsStragglingLeader pins the hedge win path: a
// decode leader parked inside an injected stall must not hold its
// coalesced waiter hostage — past the hedge threshold the waiter's
// private read+decode serves it correct rows while the leader is still
// stuck, and the leader's eventual completion still lands (no
// double-complete: only the leader ever touches the flight).
func TestHedgedReadBeatsStragglingLeader(t *testing.T) {
	c, _ := buildOnce(t)
	r := openRep(t, 32<<20)
	page, need := widestPage(t, c, r)
	victim := need[len(need)/2]

	// The FIRST decode of the victim graph (necessarily the leader's:
	// the hedge only launches from a waiter after the leader claimed)
	// parks on a gate until released; every later decode runs free.
	gate := make(chan struct{})
	var victimDecodes atomic.Int32
	r.decodeFault = func(gid GraphID) error {
		if gid == victim && victimDecodes.Add(1) == 1 {
			<-gate
		}
		return nil
	}
	r.SetHedge(2 * time.Millisecond)

	// Leader: claims the span, parks in the victim's decode.
	leaderDone := make(chan error, 1)
	go func() {
		rows, err := r.Out(page, nil)
		if err == nil {
			assertPageRows(t, c, page, rows)
		}
		leaderDone <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for victimDecodes.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader never reached the victim decode")
		}
		time.Sleep(100 * time.Microsecond)
	}

	// Waiter: coalesces onto the leader's flights, hedges, and must
	// finish with correct rows while the leader is still parked.
	waiterDone := make(chan error, 1)
	go func() {
		rows, err := r.Out(page, nil)
		if err == nil {
			assertPageRows(t, c, page, rows)
		}
		waiterDone <- err
	}()
	select {
	case err := <-waiterDone:
		if err != nil {
			t.Fatalf("hedged waiter: %v", err)
		}
	case err := <-leaderDone:
		t.Fatalf("leader finished first (err=%v); the gate did not hold it", err)
	case <-time.After(10 * time.Second):
		t.Fatal("hedged waiter still blocked behind a parked leader after 10s")
	}
	if _, wins, _ := r.HedgeStats(); wins == 0 {
		t.Fatal("waiter completed with zero hedge wins; it did not hedge")
	}

	// Release the leader: it must complete its flight normally.
	close(gate)
	select {
	case err := <-leaderDone:
		if err != nil {
			t.Fatalf("leader after release: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("leader still blocked after gate release")
	}

	// No orphaned flight, and the cache serves the page (leader's copy).
	if n := r.InflightDecodes(); n != 0 {
		t.Fatalf("InflightDecodes = %d after both readers returned", n)
	}
	r.decodeFault = nil
	rows, err := r.Out(page, nil)
	if err != nil {
		t.Fatalf("read after hedge exercise: %v", err)
	}
	assertPageRows(t, c, page, rows)
}

// TestHedgingOnOffByteIdentical drives many concurrent readers over a
// paced, thrashing-budget representation with aggressive hedging and
// checks every result against the golden rows — hedging may change
// who decodes, never what is decoded. Run under -race this also pins
// that winner and loser never double-complete a flight (the flight
// table is mutated only by leaders) and, via the goroutine settle
// check, that cancelled losing hedges are reaped, not leaked.
func TestHedgingOnOffByteIdentical(t *testing.T) {
	c, _ := buildOnce(t)
	r := openRep(t, 64<<10) // tiny budget: constant eviction, constant misses
	r.SetPace(0.05)         // real (scaled) disk stalls so leaders straggle
	defer r.SetPace(0)
	r.SetHedge(200 * time.Microsecond)
	baseline := snodeGoroutines()

	const readers = 12
	pages := make([]webgraph.PageID, 0, 48)
	for p := int32(1); int(p) < c.Graph.NumPages() && len(pages) < cap(pages); p += 131 {
		pages = append(pages, p)
	}
	var wg sync.WaitGroup
	errs := make([]error, readers)
	for g := 0; g < readers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []webgraph.PageID
			for rep := 0; rep < 3; rep++ {
				for _, p := range pages {
					var err error
					buf, err = r.OutFilteredCtx(context.Background(), p, nil, buf[:0])
					if err != nil {
						errs[g] = err
						return
					}
					got := sortedCopy(buf)
					want := c.Graph.Out(p)
					if len(got) != len(want) {
						errs[g] = errors.New("row count diverged under hedging")
						return
					}
					for i := range want {
						if got[i] != want[i] {
							errs[g] = errors.New("row content diverged under hedging")
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("reader %d: %v", g, err)
		}
	}
	launched, wins, losses := r.HedgeStats()
	if launched == 0 {
		t.Fatal("no hedges launched; the test exercised nothing")
	}
	if wins+losses != launched {
		t.Fatalf("hedge accounting: %d launched != %d wins + %d losses", launched, wins, losses)
	}
	if n := r.InflightDecodes(); n != 0 {
		t.Fatalf("InflightDecodes = %d after drain", n)
	}
	// Leaders, waiters and hedges all materialized superedge lists from
	// their own or each other's sources-only entries while the tiny
	// budget evicted them: only a leader's entry may have been replaced
	// in the cache, and the accounting must balance.
	if st := r.StatsExt().Cache; st.Materialized == 0 || st.Evictions == 0 {
		t.Fatalf("no materialization raced an eviction: %+v", st)
	}
	checkShardInvariants(t, r.cache)
	// Losing hedges are cancelled, not leaked: goroutines parked in this
	// package must settle back to the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := snodeGoroutines(); n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d parked in snode code, baseline %d",
				snodeGoroutines(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHedgeFailureFallsBackToLeader: a hedge that itself fails (fault
// injected into every non-leader decode of the victim) must not
// surface its error — the waiter falls back to the leader's result.
func TestHedgeFailureFallsBackToLeader(t *testing.T) {
	c, _ := buildOnce(t)
	r := openRep(t, 32<<20)
	page, need := widestPage(t, c, r)
	victim := need[len(need)/2]

	gate := make(chan struct{})
	var victimDecodes atomic.Int32
	hedgeErr := errors.New("injected hedge fault")
	r.decodeFault = func(gid GraphID) error {
		if gid != victim {
			return nil
		}
		if victimDecodes.Add(1) == 1 {
			<-gate // leader: parked until the hedge has failed
			return nil
		}
		return hedgeErr // every hedge of the victim fails
	}
	r.SetHedge(time.Millisecond)

	leaderDone := make(chan error, 1)
	go func() {
		_, err := r.Out(page, nil)
		leaderDone <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for victimDecodes.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader never reached the victim decode")
		}
		time.Sleep(100 * time.Microsecond)
	}
	waiterDone := make(chan error, 1)
	go func() {
		rows, err := r.Out(page, nil)
		if err == nil {
			assertPageRows(t, c, page, rows)
		}
		waiterDone <- err
	}()
	// Give the waiter time to hedge and fail, then release the leader.
	for victimDecodes.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never hedged the victim decode")
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(gate)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader: %v", err)
	}
	select {
	case err := <-waiterDone:
		if err != nil {
			t.Fatalf("waiter surfaced the hedge's private error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter never fell back to the leader's result")
	}
	if n := r.InflightDecodes(); n != 0 {
		t.Fatalf("InflightDecodes = %d after drain", n)
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
