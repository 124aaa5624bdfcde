package workpool

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 32} {
		const n = 1000
		seen := make([]atomic.Int32, n)
		err := New(workers).ForEachCtx(context.Background(), n, func(_ context.Context, i int) error {
			seen[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range seen {
			if got := seen[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

func TestForEachStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	err := New(4).ForEachCtx(context.Background(), 100000, func(_ context.Context, i int) error {
		calls.Add(1)
		if i == 10 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error %v, want boom", err)
	}
	if n := calls.Load(); n == 100000 {
		t.Fatal("error did not stop dispatch")
	}
}

func TestForEachCtxCancelStopsDispatch(t *testing.T) {
	const n = 100000
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	err := New(4).ForEachCtx(ctx, n, func(ctx context.Context, i int) error {
		if calls.Add(1) == 1 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	// Workers stop claiming once they observe the cancellation; only the
	// handful of items already mid-flight may still complete.
	if got := calls.Load(); got >= n/2 {
		t.Fatalf("%d of %d items ran after cancellation", got, n)
	}
}

func TestForEachCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	err := New(4).ForEachCtx(ctx, 100, func(ctx context.Context, i int) error {
		calls.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if got := calls.Load(); got != 0 {
		t.Fatalf("%d items ran on a pre-cancelled context", got)
	}
}

func TestForEachCtxSerialCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls int
	err := New(1).ForEachCtx(ctx, 100, func(ctx context.Context, i int) error {
		calls++
		if i == 2 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if calls != 3 {
		t.Fatalf("serial path ran %d items after cancel at item 2, want 3", calls)
	}
}

func TestForEachCtxFnErrorWins(t *testing.T) {
	// An item error reported before any cancellation is the one returned.
	boom := errors.New("boom")
	err := New(4).ForEachCtx(context.Background(), 1000, func(ctx context.Context, i int) error {
		if i == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error %v, want boom", err)
	}
}

func TestForEachSerialOrder(t *testing.T) {
	var order []int
	err := New(1).ForEachCtx(context.Background(), 5, func(_ context.Context, i int) error {
		order = append(order, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("single-worker order %v not sequential", order)
		}
	}
}

func TestDefaults(t *testing.T) {
	if New(0).Workers() < 1 {
		t.Fatal("default width under 1")
	}
	if err := New(3).ForEachCtx(context.Background(), 0, func(context.Context, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestOrderedDeliversInOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		for _, window := range []int{1, 2, 7, 64} {
			const n = 500
			var got []int
			err := Ordered(context.Background(), New(workers), n, window,
				func(_ context.Context, i int) (int, error) { return i * i, nil },
				func(i, v int) error {
					if v != i*i {
						t.Fatalf("workers=%d window=%d: consume(%d, %d), want %d", workers, window, i, v, i*i)
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
					t.Fatalf("workers=%d window=%d: out-of-order delivery %v...", workers, window, got[:i+1])
				}
			}
		}
	}
}

func TestOrderedBoundsInFlight(t *testing.T) {
	// With window w, no claimed index may ever run ahead of the next
	// delivery by w or more: claimed-but-undelivered indices each hold
	// one of the w tokens.
	const n, window = 400, 3
	var delivered atomic.Int64
	err := Ordered(context.Background(), New(8), n, window,
		func(_ context.Context, i int) (int, error) {
			if d := delivered.Load(); int64(i) >= d+window {
				t.Errorf("index %d claimed while next delivery is %d (window %d)", i, d, window)
			}
			return i, nil
		},
		func(i, v int) error { delivered.Store(int64(i) + 1); return nil })
	if err != nil {
		t.Fatal(err)
	}
}

func TestOrderedStopsOnFnError(t *testing.T) {
	boom := errors.New("boom")
	var consumed atomic.Int64
	err := Ordered(context.Background(), New(4), 10000, 8,
		func(_ context.Context, i int) (int, error) {
			if i >= 20 {
				return 0, boom
			}
			return i, nil
		},
		func(i, v int) error { consumed.Add(1); return nil })
	if !errors.Is(err, boom) {
		t.Fatalf("error %v, want boom", err)
	}
	if got := consumed.Load(); got > 20 {
		t.Fatalf("consumed %d items past the first error index", got)
	}
}

func TestOrderedEveryItemFails(t *testing.T) {
	// The regression shape behind the old builder deadlock: every worker
	// errors immediately. Ordered must return promptly, not hang.
	boom := errors.New("boom")
	done := make(chan error, 1)
	go func() {
		done <- Ordered(context.Background(), New(4), 5000, 4,
			func(_ context.Context, i int) (int, error) { return 0, boom },
			func(i, v int) error { t.Error("consume called despite universal failure"); return nil })
	}()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("error %v, want boom", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Ordered deadlocked when every item failed")
	}
}

func TestOrderedConsumeErrorStops(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	err := Ordered(context.Background(), New(4), 100000, 4,
		func(_ context.Context, i int) (int, error) { calls.Add(1); return i, nil },
		func(i, v int) error {
			if i == 3 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("error %v, want boom", err)
	}
	if n := calls.Load(); n == 100000 {
		t.Fatal("consume error did not stop dispatch")
	}
}

func TestOrderedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var consumed atomic.Int64
	err := Ordered(ctx, New(4), 100000, 8,
		func(_ context.Context, i int) (int, error) { return i, nil },
		func(i, v int) error {
			if consumed.Add(1) == 10 {
				cancel()
			}
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if n := consumed.Load(); n == 100000 {
		t.Fatal("cancellation did not stop delivery")
	}
}

func TestOrderedPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Ordered(ctx, New(4), 100, 4,
		func(_ context.Context, i int) (int, error) { return i, nil },
		func(i, v int) error { t.Error("consume on pre-cancelled context"); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
}
