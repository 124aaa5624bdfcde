package snode

import (
	"testing"

	"snode/internal/raceflag"
	"snode/internal/randutil"
	"snode/internal/webgraph"
)

// Cold-path guards: what a lookup pays per graph it has to load.

// coldAllocsPerLoad is the budget TestColdOutAllocsPerLoad holds a miss
// to. A load leaves its graph encoded: a positive superedge graph, which
// is most of what a cold lookup loads, is three allocations — its
// sources, the copy of its list section and its struct, which carries
// its cache node — and any other graph two. The claim, the completion,
// the decode scratch and the one list the lookup decodes cost none. The
// rest of the budget is the lookup's own few (a span's trace context).
const coldAllocsPerLoad = 3.5

// TestColdOutAllocsPerLoad resets the cache before every lookup, so
// each loads every graph it consults, and divides the allocations by
// the loads.
func TestColdOutAllocsPerLoad(t *testing.T) {
	c, _ := buildOnce(t)
	r := openRep(t, 256<<10)
	n := int32(c.Graph.NumPages())
	buf := make([]webgraph.PageID, 0, n)
	var loads int64
	lookups := func() {
		loads = 0
		for p := int32(0); p < n; p += 61 {
			r.ResetCache(256 << 10)
			var err error
			if buf, err = r.Out(p, buf[:0]); err != nil {
				t.Fatal(err)
			}
			loads += r.StatsExt().Cache.Loads
		}
	}
	allocs := testing.AllocsPerRun(5, lookups)
	lookupsPerRun := float64((n + 60) / 61)
	if loads < int64(10*lookupsPerRun) {
		t.Fatalf("%d loads in %v cold lookups: the fixture no longer exercises the miss path", loads, lookupsPerRun)
	}
	perLoad := allocs / float64(loads)
	t.Logf("%.0f allocations and %d loads in %v cold lookups: %.2f allocations per load", allocs, loads, lookupsPerRun, perLoad)
	// Not under the race detector, where the decode scratch pool forgets
	// and every few loads grow new scratch.
	if perLoad > coldAllocsPerLoad && !raceflag.Enabled {
		t.Errorf("%.2f allocations per graph loaded, budget %.1f", perLoad, coldAllocsPerLoad)
	}
}

// BenchmarkOutCold is the lookup nav_cold makes, without the server
// around it: uniform pages under a 256 KiB budget, so nearly every
// graph consulted is read and decoded. loads/op says how cold the run
// was; allocs/op over it is what TestColdOutAllocsPerLoad bounds;
// decoded/op is the list entries decoded (DecodedEdges) per lookup.
func BenchmarkOutCold(b *testing.B) {
	c, _ := buildOnce(b)
	r := openRep(b, 256<<10)
	rng := randutil.NewRNG(1)
	pages := make([]webgraph.PageID, 4096)
	for k := range pages {
		pages[k] = webgraph.PageID(rng.Intn(c.Graph.NumPages()))
	}
	buf := make([]webgraph.PageID, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = r.Out(pages[i%len(pages)], buf[:0]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.StatsExt().Cache.Loads)/float64(b.N), "loads/op")
	b.ReportMetric(float64(r.DecodedEdges())/float64(b.N), "decoded/op")
}
