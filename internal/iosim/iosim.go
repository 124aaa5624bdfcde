// Package iosim provides a deterministic disk-cost model layered under
// every disk-backed graph representation. The paper's query-time results
// (§4.3, Figures 11-12) are driven by 2002-era disk behaviour — seeks
// dominate, transfers are slow, and 325 MB of buffer memory is scarce.
// Modern page-cached NVMe storage hides that cost structure, so each
// store routes its reads through an Accountant that charges a seek for
// every discontiguous access and transfer time per byte. Experiments
// report modeled navigation time (wall-clock CPU time is added by the
// harness), making results hardware-independent and reproducible.
package iosim

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"snode/internal/metrics"
	"snode/internal/trace"
)

// Model describes the simulated disk.
type Model struct {
	// Seek is charged whenever a read is discontiguous with the
	// previous read on the same file (beyond SkipFree).
	Seek time.Duration
	// BytesPerSecond is the sequential transfer rate.
	BytesPerSecond float64
	// SkipFree is the largest forward gap served from the drive's track
	// buffer / OS readahead: a read starting within SkipFree bytes
	// after the previous read's end is charged as a transfer of the
	// gap, not a seek.
	SkipFree int64
}

// Model2002 approximates the paper's testbed storage: a consumer disk
// of the era with ~9 ms average positioning time, ~25 MB/s sustained
// reads, and ~128 KB of effective readahead.
func Model2002() Model {
	return Model{Seek: 9 * time.Millisecond, BytesPerSecond: 25e6, SkipFree: 128 << 10}
}

// Stats is a snapshot of accumulated I/O accounting.
type Stats struct {
	Seeks     int64
	BytesRead int64
	// SkippedBytes counts forward gaps absorbed by readahead; they cost
	// transfer time but no seek.
	SkippedBytes int64
	Reads        int64
	// Stalls and StallNanos account the pacing layer: how many times a
	// reader slept off the pooled paced debt, and the total modeled time
	// actually slept. Zero when pacing is off. They do not feed
	// ModeledTime (which is computed from the access counters); they
	// exist so the serving metrics can show how much real wall time the
	// paced experiments spent stalled.
	Stalls     int64
	StallNanos int64
	// SpillOps and SpillBytes account the external-memory build path:
	// each sorted-run write and merge read-back is one positioning seek
	// plus a sequential transfer of its bytes, charged through Spill.
	// Kept separate from the read counters so serving-path dashboards
	// don't conflate build spill traffic with query I/O.
	SpillOps   int64
	SpillBytes int64
}

// cost is the model: positioning time for every seek plus transfer time
// for every byte. One access is paced by it and a run's counters are
// converted by it, so the two cannot drift apart.
func (m Model) cost(seeks, bytes int64) time.Duration {
	t := time.Duration(seeks) * m.Seek
	if m.BytesPerSecond > 0 {
		t += time.Duration(float64(bytes) / m.BytesPerSecond * float64(time.Second))
	}
	return t
}

// ModeledTime converts the counters to simulated elapsed time under m.
func (s Stats) ModeledTime(m Model) time.Duration {
	return m.cost(s.Seeks+s.SpillOps, s.BytesRead+s.SkippedBytes+s.SpillBytes)
}

// Accountant tracks read patterns across a set of files belonging to
// one representation. It is safe for concurrent use.
type Accountant struct {
	model Model

	// debt accumulates paced stall time (nanoseconds) too small to
	// sleep individually; whichever reader pushes it past paceMinSleep
	// sleeps it off. Avoids thousands of sub-millisecond sleeps for
	// byte-transfer costs while seeks stall their own caller.
	debt atomic.Int64

	// stall accounting (atomics: stall runs without holding mu).
	stalls     atomic.Int64
	stallNanos atomic.Int64

	mu      sync.Mutex
	stats   Stats
	lastEnd map[int]int64 // file id → end offset of last read
	nextID  int
	pace    float64 // >0: readers sleep modeled time × pace
}

// NewAccountant creates an accountant with the given disk model.
func NewAccountant(m Model) *Accountant {
	return &Accountant{model: m, lastEnd: map[int]int64{}}
}

// Model returns the accountant's disk model.
func (a *Accountant) Model() Model { return a.model }

// Stats returns a snapshot of the counters.
func (a *Accountant) Stats() Stats {
	a.mu.Lock()
	s := a.stats
	a.mu.Unlock()
	s.Stalls = a.stalls.Load()
	s.StallNanos = a.stallNanos.Load()
	return s
}

// Reset zeroes the counters (seek positions are retained: the disk arm
// does not move on reset). The paced-stall debt pool is cleared too:
// leftover sub-millisecond debt from before the reset belongs to the
// measurement interval that just closed, and must not be slept off by
// the first reader of the next one.
func (a *Accountant) Reset() {
	a.mu.Lock()
	a.stats = Stats{}
	a.mu.Unlock()
	a.debt.Store(0)
	a.stalls.Store(0)
	a.stallNanos.Store(0)
}

// ModeledTime reports the simulated time for everything since the last
// Reset.
func (a *Accountant) ModeledTime() time.Duration {
	return a.Stats().ModeledTime(a.model)
}

// RegisterMetrics exposes the accountant's counters on a registry under
// the given name prefix (e.g. "iosim_fwd"): seeks, reads, transferred
// and readahead-skipped bytes, the modeled time they imply, and the
// pacing layer's stall count and slept nanoseconds. Values are read at
// snapshot time, so a scrape always reconciles with Stats().
func (a *Accountant) RegisterMetrics(reg *metrics.Registry, prefix string) {
	reg.CounterFunc(prefix+"_seeks", func() int64 { return a.Stats().Seeks })
	reg.CounterFunc(prefix+"_reads", func() int64 { return a.Stats().Reads })
	reg.CounterFunc(prefix+"_bytes_read", func() int64 { return a.Stats().BytesRead })
	reg.CounterFunc(prefix+"_skipped_bytes", func() int64 { return a.Stats().SkippedBytes })
	reg.CounterFunc(prefix+"_stalls", func() int64 { return a.Stats().Stalls })
	reg.CounterFunc(prefix+"_stall_nanos", func() int64 { return a.Stats().StallNanos })
	reg.GaugeFunc(prefix+"_modeled_nanos", func() int64 { return int64(a.ModeledTime()) })
}

// SetPace turns the model's cost into real time: while scale > 0,
// every read stalls its calling goroutine for the read's modeled
// duration times scale (1.0 = full modeled time, 0 disables). Each
// goroutine waits out its own reads, so concurrent query streams
// overlap their modeled disk stalls the way they would against a
// queue-depth-rich device — the behaviour the concurrent-throughput
// experiments measure. Pacing never changes the counters.
func (a *Accountant) SetPace(scale float64) {
	a.mu.Lock()
	a.pace = scale
	a.mu.Unlock()
}

// paceMinSleep batches paced stalls: charges below it accumulate in
// debt rather than triggering their own sleep.
const paceMinSleep = int64(time.Millisecond)

// record accounts one read of n bytes at off on the given file and
// returns the paced stall the caller owes (zero when pacing is off)
// plus the seeks the read was charged, 0 or 1 (for trace attribution).
func (a *Accountant) record(fileID int, off int64, n int) (pause time.Duration, seeks int64) {
	a.mu.Lock()
	a.stats.Reads++
	a.stats.BytesRead += int64(n)
	var skipped int64
	end, ok := a.lastEnd[fileID]
	switch {
	case ok && end == off:
		// Sequential continuation.
	case ok && off > end && off-end <= a.model.SkipFree:
		// Short forward skip: absorbed by readahead.
		skipped = off - end
		a.stats.SkippedBytes += skipped
	default:
		a.stats.Seeks++
		seeks = 1
	}
	a.lastEnd[fileID] = off + int64(n)
	pause = a.pause(seeks, int64(n)+skipped)
	a.mu.Unlock()
	return pause, seeks
}

// pause is the stall one access owes under the current pace (zero when
// pacing is off). Called with a.mu held.
func (a *Accountant) pause(seeks, bytes int64) time.Duration {
	if a.pace <= 0 {
		return 0
	}
	return time.Duration(float64(a.model.cost(seeks, bytes)) * a.pace)
}

// stallCtx settles a paced charge: small charges pool in debt, and the
// reader whose charge pushes the pool past paceMinSleep sleeps the
// whole pool. Called without holding a.mu. When the calling request is
// traced and this reader is the one that sleeps off the pooled debt,
// the sleep is recorded as an "iosim.stall" span. Note
// the pooled debt may include other readers' sub-threshold charges —
// the span's pooled_ns attribute is the whole amount slept, which is
// exactly the wall time this request lost to the pacing layer.
//
// A cancellable ctx interrupts the sleep: the unslept remainder of the
// pooled debt is handed back to the pool (the modeled cost was charged
// and some reader must still pay it), and the caller returns promptly.
// Cancellation is NOT surfaced as an error here — a read that already
// happened stays a completed read, so a cancelled decode leader still
// completes its flight with real data instead of poisoning coalesced
// waiters with its own deadline. The waiters and the engine observe
// ctx themselves; this only guarantees none of them is stuck behind a
// multi-millisecond modeled stall when the request is already dead.
func (a *Accountant) stallCtx(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	a.debt.Add(int64(d))
	for {
		cur := a.debt.Load()
		if cur < paceMinSleep {
			return
		}
		if a.debt.CompareAndSwap(cur, 0) {
			_, span := trace.Start(ctx, "iosim.stall")
			slept := cur
			if done := ctx.Done(); done == nil {
				time.Sleep(time.Duration(cur))
			} else {
				start := time.Now()
				timer := time.NewTimer(time.Duration(cur))
				select {
				case <-timer.C:
				case <-done:
					timer.Stop()
					if slept = int64(time.Since(start)); slept > cur {
						slept = cur
					}
					// Hand the unslept remainder back: the modeled time was
					// charged and the next paced reader owes it.
					a.debt.Add(cur - slept)
				}
			}
			a.stalls.Add(1)
			a.stallNanos.Add(slept)
			span.SetAttr("pooled_ns", slept)
			span.End()
			trace.Add(ctx, trace.CtrStalls, 1)
			trace.Add(ctx, trace.CtrStallNanos, slept)
			return
		}
	}
}

// Scan accounts one modeled contiguous scan of n bytes that begins
// with a positioning seek — the cost shape of the build pipeline's
// repository reads: each partition element or supernode reads a
// contiguous run of the source crawl, then the arm moves elsewhere, so
// no inter-scan position is worth tracking (unlike File reads, Scan
// does not touch lastEnd). Under SetPace the caller stalls for the
// scan's modeled cost, which is how the build-scaling experiment turns
// worker parallelism into real overlapped wall time on any hardware;
// with pacing off, Scan only bumps the counters. A nil Accountant is
// inert, so unmodeled builds pay a single nil check. When ctx carries
// an execution trace the scan records an "iosim.scan" span and feeds
// the per-request I/O counters.
func (a *Accountant) Scan(ctx context.Context, n int64) {
	if a == nil {
		return
	}
	trace.Add(ctx, trace.CtrReads, 1)
	trace.Add(ctx, trace.CtrBytesRead, n)
	trace.Add(ctx, trace.CtrSeeks, 1)
	a.sweep(ctx, "iosim.scan", n, func(st *Stats) {
		st.Reads++
		st.Seeks++
		st.BytesRead += n
	})
}

// Spill accounts one modeled spill transfer of n bytes — a sorted-run
// write or a merge read-back in the external-memory build path. Like
// Scan it is one positioning seek plus a sequential transfer, but it
// lands on the dedicated spill counters so the modeled build cost of
// bounded-heap ingestion is visible separately from query reads. Under
// SetPace the caller stalls for the modeled cost; a nil Accountant is
// inert. A traced ctx records an "iosim.spill" span.
func (a *Accountant) Spill(ctx context.Context, n int64) {
	if a == nil {
		return
	}
	a.sweep(ctx, "iosim.spill", n, func(st *Stats) {
		st.SpillOps++
		st.SpillBytes += n
	})
}

// sweep is the body Scan and Spill share: count the transfer, record it
// as a span named name on a traced ctx, and stall the caller for one
// seek plus n bytes under the current pace.
func (a *Accountant) sweep(ctx context.Context, name string, n int64, count func(*Stats)) {
	_, span := trace.Start(ctx, name)
	a.mu.Lock()
	count(&a.stats)
	pause := a.pause(1, n)
	a.mu.Unlock()
	span.SetAttr("bytes", n)
	span.SetAttr("paced_ns", int64(pause))
	span.End()
	a.stallCtx(ctx, pause)
}

// File wraps an *os.File with accounting. Writes are not modeled (the
// paper measures query time over already-built representations).
type File struct {
	f   *os.File
	acc *Accountant
	id  int
}

// Open opens path read-only under the accountant.
func (a *Accountant) Open(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("iosim: %w", err)
	}
	a.mu.Lock()
	id := a.nextID
	a.nextID++
	a.mu.Unlock()
	return &File{f: f, acc: a, id: id}, nil
}

// ReadAt reads len(p) bytes at offset off, recording the access (and,
// under SetPace, stalling the caller for its modeled cost).
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	return f.ReadAtCtx(context.Background(), p, off)
}

// ReadAtCtx is ReadAt with request-scoped observability: when ctx
// carries an execution trace, the read records an "iosim.read" span
// (bytes, whether a seek was charged, the paced cost) and bumps the
// per-request I/O counters; any paced stall it triggers becomes an
// "iosim.stall" span. Untraced contexts add two context lookups and
// nothing else.
func (f *File) ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	_, span := trace.Start(ctx, "iosim.read")
	n, err := f.f.ReadAt(p, off)
	if n <= 0 {
		span.End()
		return n, err
	}
	pause, seeks := f.acc.record(f.id, off, n)
	if trace.Active(ctx) {
		span.SetAttr("bytes", int64(n))
		span.SetAttr("seek", seeks)
		span.SetAttr("paced_ns", int64(pause))
		trace.Add(ctx, trace.CtrReads, 1)
		trace.Add(ctx, trace.CtrBytesRead, int64(n))
		trace.Add(ctx, trace.CtrSeeks, seeks)
	}
	span.End()
	f.acc.stallCtx(ctx, pause)
	return n, err
}

// Size reports the file's size in bytes.
func (f *File) Size() (int64, error) {
	fi, err := f.f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// Close closes the underlying file.
func (f *File) Close() error { return f.f.Close() }
