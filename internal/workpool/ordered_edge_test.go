package workpool

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"snode/internal/randutil"
)

// Edge cases of the Ordered pipeline: degenerate sizes, the smallest
// window, external cancellation racing slow workers, and randomized
// per-item delays that scramble completion order as hard as possible.

func TestOrderedZeroItems(t *testing.T) {
	for _, n := range []int{0, -5} {
		err := Ordered(context.Background(), New(4), n, 4,
			func(_ context.Context, i int) (int, error) {
				t.Errorf("fn called with n=%d", n)
				return 0, nil
			},
			func(i, v int) error {
				t.Errorf("consume called with n=%d", n)
				return nil
			})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
	// Empty input wins over a dead context: there is no work to refuse.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Ordered(ctx, New(4), 0, 4,
		func(_ context.Context, i int) (int, error) { return 0, nil },
		func(i, v int) error { return nil }); err != nil {
		t.Fatalf("n=0 on cancelled ctx: %v", err)
	}
}

func TestOrderedWindowOneLockstep(t *testing.T) {
	// window 1 degrades the pipeline to lockstep: index i may only be
	// claimed once i-1 has been delivered, whatever the pool width.
	// window <= 0 must normalize to the same discipline.
	for _, window := range []int{1, 0, -3} {
		const n = 200
		var delivered atomic.Int64
		err := Ordered(context.Background(), New(8), n, window,
			func(_ context.Context, i int) (int, error) {
				if d := delivered.Load(); int64(i) != d {
					t.Errorf("window=%d: index %d claimed while next delivery is %d", window, i, d)
				}
				return i, nil
			},
			func(i, v int) error { delivered.Store(int64(i) + 1); return nil })
		if err != nil {
			t.Fatalf("window=%d: %v", window, err)
		}
		if delivered.Load() != n {
			t.Fatalf("window=%d: delivered %d of %d", window, delivered.Load(), n)
		}
	}
}

func TestOrderedCancelMidStreamExternal(t *testing.T) {
	// Cancellation arrives from outside (a deadline, a dropped client)
	// while workers are mid-item, not from the consumer's own error
	// path. The consumed stream must still be an in-order prefix.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	var once atomic.Bool
	var got []int
	err := Ordered(ctx, New(4), 100000, 8,
		func(_ context.Context, i int) (int, error) {
			if once.CompareAndSwap(false, true) {
				close(started)
				// Cancel from outside once the stream is rolling.
				time.AfterFunc(2*time.Millisecond, cancel)
			}
			time.Sleep(100 * time.Microsecond)
			return i, nil
		},
		func(i, v int) error { got = append(got, i); return nil })
	select {
	case <-started:
	default:
		t.Fatal("no item ever started")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if len(got) == 100000 {
		t.Fatal("external cancel did not cut the stream short")
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("delivered prefix broken at position %d: %v", i, got[:i+1])
		}
	}
}

func TestOrderedRandomizedDelays(t *testing.T) {
	// Random per-item delays force maximal reordering of completions;
	// delivery must stay a complete, exact, in-order stream for every
	// width/window combination.
	seed := uint64(42)
	for _, workers := range []int{2, 4, 16} {
		for _, window := range []int{1, 3, 8} {
			const n = 300
			seed++
			rng := randutil.NewRNG(seed)
			delays := make([]time.Duration, n)
			for i := range delays {
				delays[i] = time.Duration(rng.Intn(200)) * time.Microsecond
			}
			var got []int
			err := Ordered(context.Background(), New(workers), n, window,
				func(_ context.Context, i int) (int, error) {
					time.Sleep(delays[i])
					return i * 3, nil
				},
				func(i, v int) error {
					if v != i*3 {
						t.Fatalf("workers=%d window=%d: consume(%d, %d), want %d",
							workers, window, i, v, i*3)
					}
					got = append(got, i)
					return nil
				})
			if err != nil {
				t.Fatalf("workers=%d window=%d: %v", workers, window, err)
			}
			if len(got) != n {
				t.Fatalf("workers=%d window=%d: delivered %d of %d", workers, window, len(got), n)
			}
			for i, v := range got {
				if v != i {
					t.Fatalf("workers=%d window=%d: out of order at %d: %v",
						workers, window, i, got[:i+1])
				}
			}
		}
	}
}

func TestOrderedEndsWhereFnSays(t *testing.T) {
	// An item count only fn knows: consume sees exactly the items before
	// the first End, in order, at every width and window, and indices
	// claimed past the end are run and thrown away.
	for _, workers := range []int{1, 2, 8} {
		for _, window := range []int{1, 3, 16} {
			for _, end := range []int{0, 1, 7, 250} {
				var got []int
				var past atomic.Int64
				err := Ordered(context.Background(), New(workers), Unbounded, window,
					func(_ context.Context, i int) (int, error) {
						if i >= end {
							if i > end {
								past.Add(1)
							}
							return 0, End
						}
						if i%5 == 0 {
							time.Sleep(50 * time.Microsecond) // let later indices finish first
						}
						return i * 2, nil
					},
					func(i, v int) error {
						if v != i*2 {
							t.Errorf("consume(%d, %d), want %d", i, v, i*2)
						}
						got = append(got, i)
						return nil
					})
				if err != nil {
					t.Fatalf("workers=%d window=%d end=%d: %v", workers, window, end, err)
				}
				if len(got) != end {
					t.Fatalf("workers=%d window=%d end=%d: delivered %d items", workers, window, end, len(got))
				}
				for i, v := range got {
					if v != i {
						t.Fatalf("workers=%d window=%d end=%d: out of order at %d", workers, window, end, i)
					}
				}
				if p := past.Load(); p >= int64(window) {
					t.Fatalf("workers=%d window=%d end=%d: %d indices claimed past the end", workers, window, end, p)
				}
			}
		}
	}
}

func TestOrderedEndBelowNAndErrors(t *testing.T) {
	// End is honoured under a known n as well, an error before the end
	// wins over it, and neither an End nor an error past it is reported
	// when the context is what stopped the call.
	boom := errors.New("boom")
	var consumed atomic.Int64
	err := Ordered(context.Background(), New(4), 1000, 8,
		func(_ context.Context, i int) (int, error) {
			if i >= 40 {
				return 0, End
			}
			return i, nil
		},
		func(i, v int) error { consumed.Add(1); return nil })
	if err != nil || consumed.Load() != 40 {
		t.Fatalf("End under n=1000: err %v after %d items, want nil after 40", err, consumed.Load())
	}

	err = Ordered(context.Background(), New(4), Unbounded, 8,
		func(_ context.Context, i int) (int, error) {
			switch {
			case i == 30:
				time.Sleep(time.Millisecond) // the End at 33 is in before this error
				return 0, boom
			case i >= 33:
				return 0, End
			}
			return i, nil
		},
		func(i, v int) error { return nil })
	if !errors.Is(err, boom) {
		t.Fatalf("error below the end: got %v, want boom", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err = Ordered(ctx, New(4), Unbounded, 4,
		func(_ context.Context, i int) (int, error) {
			switch i {
			case 0:
				cancel()
				time.Sleep(5 * time.Millisecond) // holds the head of the line
				return 0, nil
			case 2:
				return 0, End
			}
			return i, nil
		},
		func(i, v int) error { return nil })
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled with an End pending: got %v, want nil or context.Canceled", err)
	}
}

func TestOrderedRingOfWindowSlots(t *testing.T) {
	// What lets a caller keep per-item scratch in a ring: slot i % window
	// is index i's alone from fn(i) until consume(i) has returned.
	for _, workers := range []int{1, 3, 8} {
		for _, window := range []int{1, 2, 5} {
			const n = 400
			ring := make([]atomic.Int64, window)
			err := Ordered(context.Background(), New(workers), n, window,
				func(_ context.Context, i int) (int, error) {
					if !ring[i%window].CompareAndSwap(0, int64(i)+1) {
						t.Errorf("workers=%d window=%d: slot %d taken when index %d was claimed", workers, window, i%window, i)
					}
					return i, nil
				},
				func(i, v int) error {
					time.Sleep(20 * time.Microsecond) // a consume worth overtaking
					if !ring[i%window].CompareAndSwap(int64(i)+1, 0) {
						t.Errorf("workers=%d window=%d: slot %d changed hands before index %d was consumed", workers, window, i%window, i)
					}
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}
