package delta

import (
	"context"
	"sync"
	"time"

	"snode/internal/trace"
)

// CompactorConfig sets the background maintenance policy.
type CompactorConfig struct {
	// Interval is the poll cadence (default 250ms).
	Interval time.Duration
	// SealBytes seals the active memtable into a segment once its
	// accounted footprint reaches this many bytes (default 1 MiB).
	SealBytes int64
	// MaxSegments is the size-tiered trigger: while more than this many
	// segments exist, the adjacent pair with the smallest combined size
	// is merged (default 4).
	MaxSegments int
	// OnError observes background failures (default: ignore; the next
	// tick retries). Called from the compactor goroutine.
	OnError func(error)
}

func (c *CompactorConfig) defaults() {
	if c.Interval <= 0 {
		c.Interval = 250 * time.Millisecond
	}
	if c.SealBytes <= 0 {
		c.SealBytes = 1 << 20
	}
	if c.MaxSegments <= 0 {
		c.MaxSegments = 4
	}
}

// Compactor is the overlay's background maintenance goroutine: it
// seals full memtables and merges small segments size-tiered. Folding
// the overlay back into a fresh S-Node build is the owner's call
// (Overlay.FoldBack), not a policy of this loop. All work honours the
// context StartCompactor was given; Stop cancels it and waits the
// goroutine out.
type Compactor struct {
	o      *Overlay
	cfg    CompactorConfig
	cancel context.CancelFunc
	done   chan struct{}
	stop   sync.Once
}

// StartCompactor launches the maintenance loop over o. The returned
// Compactor must be Stopped before the overlay is Closed.
func StartCompactor(ctx context.Context, o *Overlay, cfg CompactorConfig) *Compactor {
	cfg.defaults()
	ctx, cancel := context.WithCancel(ctx)
	c := &Compactor{o: o, cfg: cfg, cancel: cancel, done: make(chan struct{})}
	go c.run(ctx)
	return c
}

// Stop cancels in-flight maintenance and waits for the goroutine to
// exit. Safe to call more than once.
func (c *Compactor) Stop() {
	c.stop.Do(c.cancel)
	<-c.done
}

func (c *Compactor) run(ctx context.Context) {
	defer close(c.done)
	tick := time.NewTicker(c.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		if err := c.RunOnce(ctx); err != nil && ctx.Err() == nil && c.cfg.OnError != nil {
			c.cfg.OnError(err)
		}
	}
}

// RunOnce performs one maintenance pass: seal if the memtable is over
// budget, merge segments down to the tier limit. Exported so tests can
// drive compaction deterministically; on traced contexts the pass
// records a "compact.run" span.
func (c *Compactor) RunOnce(ctx context.Context) error {
	_, span := trace.Start(ctx, "compact.run")
	defer span.End()
	var sealed, merges int64
	if c.o.MemtableBytes() >= c.cfg.SealBytes {
		if err := c.o.Seal(ctx); err != nil {
			return err
		}
		sealed = 1
	}
	for c.o.SegmentCount() > c.cfg.MaxSegments {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		did, err := c.o.MergeOnce(ctx)
		if err != nil {
			return err
		}
		if !did {
			break
		}
		merges++
	}
	span.SetAttr("sealed", sealed)
	span.SetAttr("merges", merges)
	return nil
}
