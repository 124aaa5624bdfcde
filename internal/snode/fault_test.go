package snode

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"snode/internal/webgraph"
)

// neededGraphsOf lists every lower-level graph a page's supernode owns
// (the graphs an unfiltered Out of that page touches).
func neededGraphsOf(r *Representation, p webgraph.PageID) []GraphID {
	internal := r.m.Perm[p]
	i := r.snOf(internal)
	gids := []GraphID{r.m.IntraGID[i]}
	for k := r.m.SuperOff[i]; k < r.m.SuperOff[i+1]; k++ {
		gids = append(gids, r.m.SuperGID[k])
	}
	return gids
}

// snodeGoroutines counts goroutines whose stacks are parked inside this
// package — the leak signal for an abandoned in-flight decode (a waiter
// blocked in claim on a flight whose leader never completed it).
func snodeGoroutines() int {
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	n := 0
	for _, g := range strings.Split(stacks, "\n\n") {
		if strings.Contains(g, "snode/internal/snode.") && !strings.Contains(g, "snodeGoroutines") {
			n++
		}
	}
	return n
}

// TestMidSpanDecodeFaultReleasesWaiters is the error-path regression
// test for the span read machinery: with 16 concurrent readers of one
// page and a decode fault injected into the MIDDLE graph of the span,
// every reader must return (the fault as an error, or cleanly after the
// fault is no longer in its path) and no goroutine may be left blocked
// on an abandoned in-flight decode. Before the completion guarantees,
// an error or panic between a claim and complete left coalesced
// waiters blocked forever; this test trips the suite timeout in that
// case and fails fast on the leak counter.
func TestMidSpanDecodeFaultReleasesWaiters(t *testing.T) {
	c, _ := buildOnce(t)
	r := openRep(t, 32<<20)

	// The page whose supernode owns the most graphs: widest span, so a
	// mid-span failure strands the most claimed flights if mishandled.
	var page webgraph.PageID
	best := -1
	for p := int32(0); int(p) < c.Graph.NumPages(); p += 67 {
		if n := len(neededGraphsOf(r, p)); n > best {
			best, page = n, p
		}
	}
	if best < 3 {
		t.Skipf("no supernode with a wide enough span (best %d graphs)", best)
	}
	need := neededGraphsOf(r, page)
	victim := need[len(need)/2] // mid-span graph
	faultErr := errors.New("injected decode fault")

	baseline := snodeGoroutines()
	for trial := 0; trial < 4; trial++ {
		r.ResetCache(32 << 20)
		r.decodeFault = func(gid GraphID) error {
			if gid == victim {
				return fmt.Errorf("graph %d: %w", gid, faultErr)
			}
			return nil
		}

		const readers = 16
		start := make(chan struct{})
		errs := make([]error, readers)
		var wg sync.WaitGroup
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				_, errs[g] = r.Out(page, nil)
			}(g)
		}
		close(start)
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("trial %d: readers still blocked 30s after a mid-span decode fault — abandoned in-flight decode", trial)
		}
		for g, err := range errs {
			if err == nil {
				t.Fatalf("trial %d reader %d: no error despite injected fault in its span", trial, g)
			}
			if !errors.Is(err, faultErr) && !errors.Is(err, errDecodeAbandoned) {
				t.Fatalf("trial %d reader %d: unexpected error %v", trial, g, err)
			}
		}

		// Clear the fault: the failed graph must be retryable (a failed
		// flight must not poison the cache), and the page must read back
		// correctly.
		r.decodeFault = nil
		got, err := r.Out(page, nil)
		if err != nil {
			t.Fatalf("trial %d: read after clearing fault: %v", trial, err)
		}
		want := c.Graph.Out(page)
		if len(sortedCopy(got)) != len(want) {
			t.Fatalf("trial %d: %d targets after recovery, want %d", trial, len(got), len(want))
		}
	}

	// Leak check: transient goroutines may take a moment to unwind.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := snodeGoroutines(); n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d goroutines parked in snode code, baseline %d",
				snodeGoroutines(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPanickingDecodeReleasesWaiters injects a panicking decode: the
// leader unwinds, and the deferred completion sweep must still release
// coalesced waiters (with errDecodeAbandoned) instead of leaving them
// blocked forever.
func TestPanickingDecodeReleasesWaiters(t *testing.T) {
	c, _ := buildOnce(t)
	r := openRep(t, 32<<20)
	var page webgraph.PageID
	best := -1
	for p := int32(0); int(p) < c.Graph.NumPages(); p += 67 {
		if n := len(neededGraphsOf(r, p)); n > best {
			best, page = n, p
		}
	}
	need := neededGraphsOf(r, page)
	victim := need[len(need)/2]
	r.decodeFault = func(gid GraphID) error {
		if gid == victim {
			panic("injected decode panic")
		}
		return nil
	}

	const readers = 16
	start := make(chan struct{})
	var wg sync.WaitGroup
	outcomes := make([]error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer func() {
				if recover() != nil {
					outcomes[g] = errors.New("panicked (leader)")
				}
			}()
			<-start
			_, outcomes[g] = r.Out(page, nil)
		}(g)
	}
	close(start)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("readers still blocked 30s after a panicking decode — abandoned in-flight decode")
	}
	for g, err := range outcomes {
		if err == nil {
			t.Fatalf("reader %d: returned success through a panicking span", g)
		}
	}

	// Recovery: clear the fault, the representation must still serve.
	r.decodeFault = nil
	got, err := r.Out(page, nil)
	if err != nil {
		t.Fatalf("read after panic recovery: %v", err)
	}
	if want := c.Graph.Out(page); len(sortedCopy(got)) != len(want) {
		t.Fatalf("%d targets after recovery, want %d", len(got), len(want))
	}
}
