package snode

import (
	"testing"

	"snode/internal/partition"
	"snode/internal/webgraph"
)

// laidOut refines the shared test corpus and lays its pages out, which
// is everything encodeSupernode reads.
func laidOut(t testing.TB) (*webgraph.Corpus, *meta, []int32) {
	t.Helper()
	c, _ := buildOnce(t)
	p, err := partition.Refine(c, DefaultConfig().Partition)
	if err != nil {
		t.Fatal(err)
	}
	m, snOfInternal := layOut(c, p)
	return c, m, snOfInternal
}

// BenchmarkEncodeSupernode is the build's encode stage without the file
// assembly behind it: every supernode's links bucketed and encoded, one
// supernode after another on one goroutine.
func BenchmarkEncodeSupernode(b *testing.B) {
	c, m, snOfInternal := laidOut(b)
	cfg := DefaultConfig()
	nSN := int32(len(m.SnBase) - 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := int32(0); s < nSN; s++ {
			if _, err := encodeSupernode(c, m, cfg, snOfInternal, s); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(c.Graph.NumEdges())*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
	b.ReportMetric(float64(nSN), "supernodes/op")
}

// TestBucketingAllocsIndependentOfEdges: once a worker's scratch has
// grown to the largest supernode, bucketing allocates nothing — for the
// supernode with the fewest links and the one with the most alike. A
// list grown by append, a map entry or a header array per bucket would
// make the count follow the links.
func TestBucketingAllocsIndependentOfEdges(t *testing.T) {
	c, m, snOfInternal := laidOut(t)
	links := func(s int32) (n int) {
		for it := m.SnBase[s]; it < m.SnBase[s+1]; it++ {
			n += len(c.Graph.Out(m.Inv[it]))
		}
		return n
	}
	nSN := int32(len(m.SnBase) - 1)
	least, most := int32(0), int32(0)
	for s := int32(1); s < nSN; s++ {
		if links(s) < links(least) {
			least = s
		}
		if links(s) > links(most) {
			most = s
		}
	}
	if links(most) < 20*links(least)+100 {
		t.Fatalf("supernodes %d and %d have %d and %d links: too alike to tell", least, most, links(least), links(most))
	}
	lb := new(linkBuckets)
	lb.fill(c, m, snOfInternal, most)
	for _, s := range []int32{least, most} {
		if allocs := testing.AllocsPerRun(20, func() { lb.fill(c, m, snOfInternal, s) }); allocs != 0 {
			t.Errorf("bucketing supernode %d (%d links): %v allocations, want 0", s, links(s), allocs)
		}
	}
}
