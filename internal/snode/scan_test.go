package snode

import (
	"context"
	"errors"
	"slices"
	"testing"

	"snode/internal/iosim"
	"snode/internal/raceflag"
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

// cacheState is what a scan leaves as it found it: the graph each slot
// holds, and the bytes and entries the cache accounts.
type cacheState struct {
	slots         []*graph
	used, entries int64
}

func stateOf(r *Representation) cacheState {
	st := cacheState{used: r.cache.usedBytes(), entries: r.cache.entries()}
	for gid := range r.cache.slots {
		st.slots = append(st.slots, r.cache.slots[gid].Load())
	}
	return st
}

// scanRows returns every page's row from a Scan, sorted.
func scanRows(t *testing.T, r *Representation) [][]webgraph.PageID {
	t.Helper()
	rows := make([][]webgraph.PageID, r.NumPages())
	err := r.Scan(context.Background(), func(p webgraph.PageID, out []webgraph.PageID) error {
		rows[p] = sortedCopy(out)
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return rows
}

// The I/O of a cold Scan of the shared store: the span reads a lookup
// makes, one run of a supernode's graphs per file it spans.
const (
	coldScanSeeks = 8
	coldScanReads = 92
	coldScanBytes = 58697
)

// TestScanLeavesTheCacheAsItFound: a Scan reads through the cache without
// changing it. Over a cold store it leaves every slot empty and makes the
// span reads recorded above; over a half-warm one — graphs absent,
// resident encoded and resident whole — every slot holds the graph it
// held, the cache accounts the bytes and entries it did, and every row
// is the cold scan's.
func TestScanLeavesTheCacheAsItFound(t *testing.T) {
	r := openRep(t, 64<<20)
	want := scanRows(t, r)
	if got := stateOf(r); got.used != 0 || got.entries != 0 || slices.IndexFunc(got.slots, func(g *graph) bool { return g != nil }) >= 0 {
		t.Fatalf("a cold Scan left %d graphs resident, %d bytes", got.entries, got.used)
	}
	if io := r.StatsExt().IO; io.Seeks != coldScanSeeks || io.Reads != coldScanReads || io.BytesRead != coldScanBytes {
		t.Errorf("a cold Scan made %d seeks, %d reads, %d bytes; want %d, %d, %d",
			io.Seeks, io.Reads, io.BytesRead, coldScanSeeks, coldScanReads, coldScanBytes)
	}

	// Half warm: a lookup of the first page of every other supernode
	// loads the supernode's graphs encoded, and the same lookup again, in
	// every fourth, materializes those that hold a list of the page.
	var buf []webgraph.PageID
	for _, step := range []int32{2, 4} {
		for s := int32(0); s < int32(r.Supernodes()); s += step {
			var err error
			if buf, err = r.Out(r.m.Inv[r.m.SnBase[s]], buf[:0]); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := stateOf(r)
	var absent, encoded, whole int
	for _, g := range before.slots {
		switch {
		case g == nil:
			absent++
		case g.whole:
			whole++
		default:
			encoded++
		}
	}
	if absent == 0 || encoded == 0 || whole == 0 {
		t.Fatalf("the half-warm cache holds %d absent, %d encoded and %d whole graphs: the fixture misses a state", absent, encoded, whole)
	}
	got := scanRows(t, r)
	after := stateOf(r)
	if after.used != before.used || after.entries != before.entries {
		t.Errorf("Scan moved the cache from %d bytes in %d graphs to %d in %d", before.used, before.entries, after.used, after.entries)
	}
	for gid := range before.slots {
		if after.slots[gid] != before.slots[gid] {
			t.Fatalf("Scan changed slot %d", gid)
		}
	}
	for p := range want {
		if !slices.Equal(got[p], want[p]) {
			t.Fatalf("page %d: the half-warm Scan read %v, the cold one %v", p, got[p], want[p])
		}
	}
}

// scanAllocsPerSupernode bounds a cold Scan's allocations per supernode:
// its scratch grows to the largest supernode and is then reused, so the
// count does not grow with the graphs (26 a supernode in the shared
// store), as one allocation per graph read would make it.
const scanAllocsPerSupernode = 1.0

// TestScanAllocatesPerSupernode holds a cold Scan's allocations to
// scanAllocsPerSupernode per supernode.
func TestScanAllocatesPerSupernode(t *testing.T) {
	r := openRep(t, 256<<10)
	visit := func(webgraph.PageID, []webgraph.PageID) error { return nil }
	allocs := testing.AllocsPerRun(3, func() {
		r.ResetCache(256 << 10)
		if err := r.Scan(context.Background(), visit); err != nil {
			t.Fatal(err)
		}
	})
	per := allocs / float64(r.Supernodes())
	t.Logf("%.0f allocations a cold Scan of %d supernodes and %d graphs: %.2f a supernode", allocs, r.Supernodes(), len(r.m.Directory), per)
	// Not under the race detector, where the pools forget their scratch.
	if per > scanAllocsPerSupernode && !raceflag.Enabled {
		t.Errorf("%.2f allocations a supernode, budget %.1f", per, scanAllocsPerSupernode)
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
