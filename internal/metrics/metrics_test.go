package metrics

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	c.Add(-100) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Fatal("second lookup returned a different counter")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	r.CounterFunc("cf", func() int64 { return 42 })
	r.GaugeFunc("gf", func() int64 { return -9 })
	s := r.Snapshot()
	if s.Counters["cf"] != 42 || s.Gauges["gf"] != -9 || s.Counters["c"] != 5 || s.Gauges["g"] != 4 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(nil)
	// 100 observations at ~2ms, 5 at ~200ms: p50 lands in the 3ms
	// bucket, p99 in the 300ms bucket.
	for i := 0; i < 100; i++ {
		h.ObserveDuration(2 * time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		h.ObserveDuration(200 * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 105 {
		t.Fatalf("count = %d, want 105", s.Count)
	}
	if got := time.Duration(s.P50()); got != 3*time.Millisecond {
		t.Errorf("p50 = %v, want 3ms", got)
	}
	if got := time.Duration(s.P99()); got != 300*time.Millisecond {
		t.Errorf("p99 = %v, want 300ms", got)
	}
}

func TestHistogramEmptyAndOverflow(t *testing.T) {
	h := NewHistogram(nil)
	if got := h.Snapshot().P95(); got != 0 {
		t.Fatalf("empty p95 = %d, want 0", got)
	}
	h.ObserveDuration(time.Hour) // beyond the last bound: +Inf bucket
	s := h.Snapshot()
	if s.Count != 1 {
		t.Fatalf("count = %d, want 1", s.Count)
	}
	if got := time.Duration(s.P50()); got != 10*time.Second {
		t.Fatalf("overflow p50 = %v, want clamp to largest bound 10s", got)
	}
}

// TestHistogramSnapshotRace hammers one histogram from concurrent
// observers while other goroutines snapshot it and the registry — the
// regression the race detector gates: snapshots must never tear or
// race with Observe.
func TestHistogramSnapshotRace(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", nil)
	const writers, snapshots = 8, 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(int64(i%1000) * int64(time.Microsecond))
				r.Counter("ops").Inc()
				r.Gauge("busy").Set(int64(w))
			}
		}(w)
	}
	for s := 0; s < snapshots; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				snap := r.Snapshot()
				hs := snap.Histograms["lat"]
				var sum int64
				for _, c := range hs.Counts {
					sum += c
				}
				// Counts are loaded individually, so the bucket total may
				// trail Count by in-flight observations — but never exceed
				// what was ever observed, and quantiles must not panic.
				_ = hs.P99()
				if sum < 0 {
					t.Errorf("negative bucket total %d", sum)
					return
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	s := r.Snapshot().Histograms["lat"]
	var sum int64
	for _, c := range s.Counts {
		sum += c
	}
	if sum != s.Count {
		t.Fatalf("quiesced bucket total %d != count %d", sum, s.Count)
	}
}

func TestWriteTextAndHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("snode_cache_hits").Add(3)
	r.Gauge("snode_cache_bytes").Set(1024)
	r.Histogram("query_latency_q1", nil).ObserveDuration(2 * time.Millisecond)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE snode_cache_hits counter\nsnode_cache_hits 3",
		"# TYPE snode_cache_bytes gauge\nsnode_cache_bytes 1024",
		"# TYPE query_latency_q1 histogram",
		`query_latency_q1_count 1`,
		`query_latency_q1{quantile="0.5"}`,
		`query_latency_q1_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text exposition missing %q in:\n%s", want, out)
		}
	}

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "snode_cache_hits 3") {
		t.Fatalf("handler: code=%d body=%q", rec.Code, rec.Body.String())
	}
}
