// Package workpool provides the bounded worker pool behind the build's
// three parallel stages: the ingester parses blocks of the edge list
// and the S-Node builder encodes supernodes through Ordered, and the
// refiner examines a round's elements with ForEachCtx. One shared
// primitive keeps the concurrency discipline
// uniform — a fixed number of goroutines pull indices from an atomic
// counter (work stealing, so uneven item costs balance), and the first
// error stops the dispatch of further work.
package workpool

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"snode/internal/trace"
)

// Pool is a bounded degree of parallelism. The zero value is not
// usable; construct with New. A Pool carries no goroutines of its own —
// each ForEachCtx spins up at most Workers() goroutines for its
// duration — so it is cheap to create and safe to share.
type Pool struct {
	workers int
}

// New returns a pool of the given width; workers <= 0 selects
// runtime.GOMAXPROCS(0).
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers reports the pool width.
func (p *Pool) Workers() int { return p.workers }

// ForEachCtx invokes fn(ctx, i) for every i in [0, n), distributing
// the calls over the pool's workers. Items are claimed from a shared
// counter, so a slow item does not idle the other workers. The first
// non-nil error stops further dispatch (in-progress items finish) and
// is returned. With one worker (or n <= 1) the calls run inline, in
// order. Dispatch also stops once ctx is cancelled (in-progress items
// finish; the context's error is returned when it cut the batch short),
// and when ctx carries an execution trace each dispatched item records
// a queue-wait span — the time the item sat between batch submission
// and a worker picking it up. fn receives ctx so the trace and
// cancellation propagate into the item's own work.
func (p *Pool) ForEachCtx(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	traced := trace.Active(ctx)
	var submitted time.Time
	if traced {
		submitted = time.Now()
	}
	w := p.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if traced {
				trace.RecordSpan(ctx, "pool.wait", submitted, time.Since(submitted),
					trace.Attr{Key: "item", Val: int64(i)})
			}
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next      atomic.Int64
		stopped   atomic.Bool
		cancelled atomic.Bool
		wg        sync.WaitGroup
		errMu     sync.Mutex
		first     error
	)
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for !stopped.Load() {
				if ctx.Err() != nil {
					// Stop claiming new items; whatever is mid-flight on the
					// other workers completes normally.
					cancelled.Store(true)
					stopped.Store(true)
					return
				}
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				if traced {
					trace.RecordSpan(ctx, "pool.wait", submitted, time.Since(submitted),
						trace.Attr{Key: "item", Val: i})
				}
				if err := fn(ctx, int(i)); err != nil {
					errMu.Lock()
					if first == nil {
						first = err
					}
					errMu.Unlock()
					stopped.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if first == nil && cancelled.Load() {
		first = ctx.Err()
	}
	return first
}

// End is what an Ordered fn returns for index i to say that the items
// stop before i. It is how a producer that learns its length only by
// running out (a file cut into blocks) ends an Unbounded call: consume
// sees 0..i-1 and Ordered returns nil. Indices above i may have been
// claimed by then; fn must answer End for them too, and whatever it
// answers is discarded.
var End = errors.New("workpool: end of items")

// Unbounded is the n of an Ordered call whose item count only fn knows.
const Unbounded = math.MaxInt

// Ordered computes fn(i) for every i in [0, n) on the pool's workers
// and delivers each result to consume in strict index order, from the
// calling goroutine, holding at most window completed-but-undelivered
// results at any moment. It is the shape of a producer/consumer
// pipeline whose output must be a deterministic in-order stream while
// its per-item work fans out: the S-Node builder overlaps supernode
// encoding with file assembly this way, with peak memory O(window)
// instead of O(n).
//
// Guarantees:
//   - consume is called for a prefix 0..k of the indices, in order,
//     never concurrently, and never after an error.
//   - An error from fn or consume (or ctx cancellation) stops further
//     dispatch; in-progress items finish and are discarded. When
//     several items fail concurrently, which error is returned is
//     unspecified (Ordered prefers the lowest-index one it observes).
//   - With one worker (or n <= 1) everything runs inline, in order.
//   - fn may end the items early by returning End (see End); n is then
//     an upper bound, Unbounded when there is none.
//   - Every index claimed and not yet delivered lies in [d, d+window),
//     d being the next delivery, and index i+window is claimed only
//     after consume(i) has returned: a caller may keep per-item scratch
//     in a ring of window slots, i's at i % window.
//
// The results delivered to consume are identical for every pool width,
// so pipelines built on Ordered are bit-deterministic regardless of
// GOMAXPROCS provided fn itself is.
func Ordered[T any](ctx context.Context, p *Pool, n, window int, fn func(ctx context.Context, i int) (T, error), consume func(i int, v T) error) error {
	if n <= 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if window < 1 {
		window = 1
	}
	w := p.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			v, err := fn(ctx, i)
			if err == End {
				return nil
			}
			if err != nil {
				return err
			}
			if err := consume(i, v); err != nil {
				return err
			}
		}
		return nil
	}
	if window > n {
		window = n
	}

	type item struct {
		i   int
		v   T
		err error
	}
	var (
		next    atomic.Int64
		stopped atomic.Bool
		wg      sync.WaitGroup
	)
	// Window discipline: a worker acquires a token BEFORE claiming an
	// index and the token stays attached to that index until the
	// consumer delivers it, so every claimed-but-undelivered index holds
	// exactly one of the window tokens. That both bounds the reorder
	// buffer (a claim is always within window of the next delivery) and
	// guarantees the next-to-deliver index is owned by a worker that
	// already holds a token — acquiring after claiming would let the
	// head-of-line index starve behind a window of undeliverable
	// higher-index results. The results channel is buffered to window
	// for the same reason: a token-holding worker can always send
	// without blocking, which keeps shutdown deadlock-free even when
	// every item errors (the bug this structure replaced: encode workers
	// exiting early while a producer blocked forever feeding an
	// unbuffered jobs channel).
	sem := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		sem <- struct{}{}
	}
	results := make(chan item, window)
	done := make(chan struct{})

	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for !stopped.Load() {
				select {
				case <-done:
					return
				case <-sem:
				}
				i := int(next.Add(1) - 1)
				if i >= n {
					// Hand the slot back so a sibling blocked on sem can
					// wake and discover exhaustion too.
					sem <- struct{}{}
					return
				}
				v, err := fn(ctx, i)
				results <- item{i: i, v: v, err: err}
				if err == End {
					return
				}
			}
		}()
	}

	var (
		firstErr error
		errIdx   int
	)
	fail := func(i int, err error) {
		if firstErr == nil || i < errIdx {
			firstErr, errIdx = err, i
		}
	}
	pending := make(map[int]item, window)
	nextDeliver := 0
	end := n // where delivery stops: n, or the index fn answered End for
	for nextDeliver < end && firstErr == nil {
		select {
		case it := <-results:
			pending[it.i] = it
		case <-ctx.Done():
			fail(n, ctx.Err())
		}
		for firstErr == nil {
			it, ok := pending[nextDeliver]
			if !ok {
				break
			}
			delete(pending, nextDeliver)
			if it.err == End {
				end = it.i
				break
			}
			if it.err != nil {
				fail(it.i, it.err)
				break
			}
			if err := consume(it.i, it.v); err != nil {
				fail(it.i, err)
				break
			}
			nextDeliver++
			sem <- struct{}{} // hand the delivered item's token back
		}
	}
	stopped.Store(true)
	close(done)
	wg.Wait()
	// Drain stragglers so a lower-index error, if one raced in, wins.
	close(results)
	for it := range results {
		pending[it.i] = it
	}
	for i, it := range pending {
		if it.err != nil && it.err != End && i < end {
			fail(i, it.err)
		}
	}
	return firstErr
}
