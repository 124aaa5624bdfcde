package snode

import (
	"context"
	"errors"
	"testing"

	"snode/internal/iosim"
	"snode/internal/webgraph"
)

// scanGraph fills a CSR graph from Scan.
func scanGraph(t testing.TB, r *Representation) *webgraph.Graph {
	t.Helper()
	b := webgraph.NewBuilder(r.NumPages())
	err := r.Scan(context.Background(), func(p webgraph.PageID, out []webgraph.PageID) error {
		for _, q := range out {
			b.AddEdge(p, q)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return b.Build()
}

// TestScanLoadsEachGraphOnce: a scan from a cold cache loads each graph
// of the directory exactly once, at a 16 KiB budget and at one that
// holds the whole graph. What it visits is held to the corpus graph by
// the repository's one oracle (internal/store's TestOracle).
func TestScanLoadsEachGraphOnce(t *testing.T) {
	dir := buildTestRep(t, 900)
	for _, budget := range []int64{16 << 10, 1 << 30} {
		r, err := Open(dir, budget, iosim.Model2002())
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if err := r.Scan(context.Background(), func(webgraph.PageID, []webgraph.PageID) error { return nil }); err != nil {
			t.Fatalf("at %d B: %v", budget, err)
		}
		if loads, graphs := r.StatsExt().Cache.Loads, len(r.m.Directory); loads != int64(graphs) {
			t.Errorf("at %d B: a cold scan made %d loads, the directory holds %d graphs", budget, loads, graphs)
		}
	}
}

// TestScanStops: an error from the visitor ends the scan and comes back
// wrapped, and a context cancelled mid-scan ends it at the next
// supernode even when every graph is resident, so that no read checks
// the context.
func TestScanStops(t *testing.T) {
	r := openRep(t, 64<<20)
	if err := r.Verify(); err != nil { // leaves every graph resident
		t.Fatal(err)
	}
	stop := errors.New("visitor stops")
	calls := 0
	err := r.Scan(context.Background(), func(webgraph.PageID, []webgraph.PageID) error {
		if calls++; calls == 10 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || calls != 10 {
		t.Fatalf("visitor failing on its 10th page: %v after %d calls", err, calls)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r.ResetStats()
	calls = 0
	err = r.Scan(ctx, func(webgraph.PageID, []webgraph.PageID) error {
		calls++
		cancel()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("scan cancelled in its first supernode: %v", err)
	}
	if first := int(r.snSize(0)); calls != first {
		t.Fatalf("%d pages visited after a cancellation in supernode 0, which holds %d", calls, first)
	}
	if cs := r.StatsExt().Cache; cs.Misses != 0 {
		t.Fatalf("%d misses: the graph was not resident, so a read could have seen the cancellation", cs.Misses)
	}
}

// BenchmarkScan is the whole-graph read from a cold cache at Table 2's
// sequential budget (256 KiB): every op reads and decodes each graph
// once. Its ns/edge compares with the suite's refenc.decode_ns_per_edge.
func BenchmarkScan(b *testing.B) {
	r := openRep(b, 256<<10)
	visit := func(webgraph.PageID, []webgraph.PageID) error { return nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r.ResetCache(256 << 10)
		b.StartTimer()
		if err := r.Scan(context.Background(), visit); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*r.m.NumEdges), "ns/edge")
}
